# Build/verify entry points for the splash4 reproduction.
#
#   make check        tier-1 gate: build, go vet, splash4-vet concurrency
#                     invariants, conformance, full test suite (which holds
#                     every daemon and cluster end-to-end check), allocs
#                     gate, trace smoke test
#   make race         tier-2 gate: the whole suite under the Go race detector,
#                     then the event-order stress test 20 more times
#   make vet          just the concurrency-invariant analyzers (splash4-vet)
#   make allocs-gate  re-measure every //sync4:zeroalloc annotation with
#                     testing.AllocsPerRun (uncached)
#   make bench        the testing.B experiment targets
#   make trace-smoke  capture fft traces under both kits and validate them
#   make chaos        fault-injection gate: workloads under the faulty kit
#                     with the watchdog armed, plus the wedged fixture
#   make traffic-gate SLO gate: live loadgen smoke against a loopback
#                     splash4d (retry contract end to end), then the
#                     pinned-seed deterministic sim
#   make conformance  verify docs/CONFORMANCE.md matches the tree's
#                     //sync4:req tags byte for byte and every MUST-level
#                     requirement has a covering conformance test
#   make conformance-gen regenerate docs/CONFORMANCE.md after tag edits

GO ?= go
TRACE_TMP := $(shell mktemp -d 2>/dev/null || echo /tmp)
CHAOS_SEED ?= 42
TRAFFIC_SEED ?= 42

.PHONY: check vet allocs-gate race test build bench trace-smoke chaos traffic-gate conformance conformance-gen

check: build
	$(GO) vet ./...
	$(GO) run ./cmd/splash4-vet ./...
	$(MAKE) conformance
	$(GO) test ./...
	$(MAKE) allocs-gate
	$(MAKE) trace-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	$(GO) run ./cmd/splash4-vet ./...

# allocs-gate forces an uncached run of the zero-alloc conformance test:
# every //sync4:zeroalloc annotation in the module is re-measured with
# testing.AllocsPerRun under both kits (plus the traced/instrumented
# wrappers) and must come out at exactly zero.
allocs-gate:
	$(GO) test -count=1 -run ZeroAlloc ./internal/allocgate/ ./internal/sync4/... ./internal/server/

# The event-order test's window is scheduling-dependent (a submitter losing
# the CPU between publishing a job and announcing it), so one pass proves
# little: race repeats it 20 times on top of the suite's single run.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=20 -run 'TestEventStreamOrderUnderInstantJobs' ./internal/server/

test:
	$(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem .

# trace-smoke runs the tracer end to end on fft at test scale under both
# kits. splash4-trace itself exits non-zero if the Chrome JSON fails
# validation or the trace census disagrees with sync4.Instrument.
trace-smoke:
	$(GO) run ./cmd/splash4-trace -workload fft -kit classic -threads 4 -scale test -out $(TRACE_TMP)/fft-classic.trace.json >/dev/null
	$(GO) run ./cmd/splash4-trace -workload fft -kit lockfree -threads 4 -scale test -out $(TRACE_TMP)/fft-lockfree.trace.json >/dev/null
	@echo "trace-smoke: ok"

# chaos runs fft and radix under both kits with deterministic fault
# injection (pinned seed — failures reproduce by rerunning with the same
# CHAOS_SEED) and the watchdog armed, requiring verified, census-identical
# results; then runs the wedged fixture and requires the watchdog to
# produce a structured stall diagnosis (chaos-diag.txt, uploaded as a CI
# artifact by the chaos-smoke job).
chaos:
	$(GO) run ./cmd/splash4-chaos -chaos-seed $(CHAOS_SEED) -workloads fft,radix -threads 4 -scale test
	$(GO) run ./cmd/splash4-chaos -wedge -rep-timeout 2s -diag chaos-diag.txt
	@echo "chaos: ok"

# traffic-gate is the service-level SLO gate. The live leg self-hosts a
# loopback splash4d (1 worker, capacity-2 ring) and drives every schedule
# shape through it, verifying the client retry contract end to end: bursts
# provoke real 429s with in-range Retry-After, dedup-hostile clumps get
# singleflight 200s, and an injected journal fault produces degraded 503s
# with a clean recovery. The sim leg re-runs the shapes through the
# deterministic pipeline model; its report is byte-stable under the pinned
# TRAFFIC_SEED (TestReportByteStable enforces that). Either leg failing its
# SLOs or contract checks fails the target.
traffic-gate:
	$(GO) run ./cmd/splash4-loadgen -mode live -seed $(TRAFFIC_SEED) -out $(TRACE_TMP)/traffic-live.json
	$(GO) run ./cmd/splash4-loadgen -mode sim -seed $(TRAFFIC_SEED) -out $(TRACE_TMP)/traffic-sim.json
	@echo "traffic-gate: ok"

# conformance is the spec drift gate: regenerate the conformance document
# in memory from the tree's //sync4:req tags and fail on any byte of
# difference from the committed docs/CONFORMANCE.md, or on any MUST-level
# requirement whose coverage proof no longer goes through.
conformance:
	$(GO) run ./cmd/splash4-vet -conformance-check docs/CONFORMANCE.md ./...
	@echo "conformance: ok"

# conformance-gen rewrites docs/CONFORMANCE.md; run after adding, editing,
# or re-covering //sync4:req requirements, and commit the result.
conformance-gen:
	$(GO) run ./cmd/splash4-vet -conformance docs/CONFORMANCE.md ./...
