# Build/verify entry points for the splash4 reproduction.
#
#   make check        tier-1 gate: build, gofmt (every .go file in the tree,
#                     analysis testdata included), go vet, splash4-vet
#                     concurrency invariants, conformance, full test suite
#                     (which holds every end-to-end check: daemon, cluster,
#                     fault injection, retry contract, tracer), allocs gate
#   make race         tier-2 gate: the whole suite under the Go race detector,
#                     then the scheduling-dependent tests again: event order
#                     x20, the ship loop's drain/heal/pacing/stop tests x10,
#                     barnes's pooled-lock tree build against its reference x10,
#                     the lu, lu-contiguous, cholesky and multigrid kernels'
#                     bit-identity tests x5 (-short: test and small scale)
#   make vet          just the concurrency-invariant analyzers (splash4-vet)
#   make allocs-gate  re-measure every //sync4:zeroalloc annotation with
#                     testing.AllocsPerRun (uncached)
#   make bench        the testing.B experiment targets
#   make conformance  verify docs/CONFORMANCE.md matches the tree's
#                     //sync4:req tags byte for byte and every MUST-level
#                     requirement has a covering conformance test
#   make conformance-gen regenerate docs/CONFORMANCE.md after tag edits

GO ?= go

.PHONY: check vet allocs-gate race test build bench conformance conformance-gen

check: build
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	$(GO) run ./cmd/splash4-vet ./...
	$(MAKE) conformance
	$(GO) test ./...
	$(MAKE) allocs-gate

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	$(GO) run ./cmd/splash4-vet ./...

# allocs-gate forces an uncached run of the zero-alloc conformance test:
# every //sync4:zeroalloc annotation in the module is re-measured with
# testing.AllocsPerRun under both kits (plus the observing wrapper as
# Instrument, Trace and Trace over Instrument) and must come out at exactly
# zero. make check ends with it, so CI needs no separate step.
allocs-gate:
	$(GO) test -count=1 -run ZeroAlloc ./internal/allocgate/ ./internal/sync4/...

# The event-order test's window is scheduling-dependent (a submitter losing
# the CPU between publishing a job and announcing it), so one pass proves
# little: race repeats it 20 times on top of the suite's single run. The
# ship loop's drain and stop tests race a wake, a cancel and a repair pass
# against fetches in flight, so they get 10 more passes for the same reason.
# barnes hashes its tree cells onto a pool of 2048 locks, so unrelated cells
# share a lock and a locking mistake shows only under some interleavings: its
# bit-for-bit comparison with a sequential reference gets 10 more passes.
# The register-tiled block updates and the multigrid restriction's per-thread
# rolling residual rows are where a scheduling-dependent mistake would hide
# (a tile edge shared by two owners, a row another thread overwrites), so
# their bit-for-bit comparisons with sequential references get 5 more passes
# at the test and small scales.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=20 -run 'TestEventStreamOrderUnderInstantJobs' ./internal/server/
	$(GO) test -race -count=10 -run 'TestShip(Drains|ResumesOnHeal|FailingPeer|StopsMidDrain)' ./internal/cluster/
	$(GO) test -race -count=10 -run 'TestDeterministicAcrossKits' ./internal/workloads/barnes/
	$(GO) test -race -short -count=5 -run 'TestBitIdenticalToReference' ./internal/workloads/lu/ ./internal/workloads/lucont/ ./internal/workloads/cholesky/ ./internal/workloads/mgcommon/

test:
	$(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem .

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
