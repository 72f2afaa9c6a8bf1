# Build/verify entry points for the splash4 reproduction.
#
#   make check        tier-1 gate: build, gofmt (every .go file in the tree,
#                     analysis testdata included), go vet, splash4-vet
#                     concurrency invariants, conformance, full test suite
#                     (which holds every end-to-end check: daemon, cluster,
#                     fault injection, retry contract, tracer), allocs gate
#   make race         tier-2 gate: the whole suite under the Go race detector,
#                     then the scheduling-dependent tests again: event order
#                     x20, the ship loop's drain/heal/pacing/stop/resync
#                     tests x10, and the result digests of barnes, lu,
#                     lu-contiguous, cholesky, ocean and ocean-contiguous x5
#   make fuzz         30 s of FuzzAddLine: AddLine's fast journal-line decoder
#                     against json.Unmarshal (its committed seeds run in
#                     every go test)
#   make vet          just the concurrency-invariant analyzers (splash4-vet)
#   make allocs-gate  re-measure every //sync4:zeroalloc annotation with
#                     testing.AllocsPerRun (uncached)
#   make bench        the testing.B experiment targets
#   make conformance  verify docs/CONFORMANCE.md matches the tree's
#                     //sync4:req tags byte for byte and every MUST-level
#                     requirement has a covering conformance test
#   make conformance-gen regenerate docs/CONFORMANCE.md after tag edits
#   make digests      rewrite internal/workloads/all/testdata/digests.txt, the
#                     programs' committed result digests, from this tree

GO ?= go

.PHONY: check vet allocs-gate race fuzz test build bench conformance conformance-gen digests

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
# ship loop's drain, stop and resync tests race a wake, a cancel and a
# journal generation change against fetches in flight, so they get 10 more
# passes for the same reason.
# barnes hashes its tree cells onto a pool of 2048 locks, so unrelated cells
# share a lock and a locking mistake shows only under some interleavings; the
# register-tiled block updates of lu, lu-contiguous and cholesky and the
# multigrid restriction's per-thread rolling residual rows of the two oceans
# are where a scheduling-dependent mistake would hide (a tile edge shared by
# two owners, a row another thread overwrites). Their committed result
# digests, at test and small scale and 1, 2, 3 and 7 threads, get 5 more
# passes.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=20 -run 'TestEventStreamOrderUnderInstantJobs' ./internal/server/
	$(GO) test -race -count=10 -run 'TestShip(Drains|ResumesOnHeal|FailingPeer|StopsMidDrain|Resyncs)' ./internal/cluster/
	$(GO) test -race -count=5 -run 'TestResultDigests/runs/(barnes|lu|lu-contiguous|cholesky|ocean|ocean-contiguous)$$' ./internal/workloads/all/

# fuzz searches past FuzzAddLine's committed seeds for a journal line on
# which AddLine's fast path and json.Unmarshal disagree: the fast path must
# decline it or decode the record json.Unmarshal does, and the malformed
# verdict must be the JSON rule's. A failing input is written under
# internal/resultstore/testdata/fuzz/FuzzAddLine, where go test replays it.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzAddLine -fuzztime 30s ./internal/resultstore/

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

# digests rewrites the committed result digests (TestResultDigests) of all
# fourteen programs, each at the thread counts the test's digestThreads
# table lists for it (where its result depends on its inputs alone). A
# kernel change must leave the file byte-identical; a change that alters a
# program's output rewrites it here and says why in CHANGES.md. The test
# refuses to write the file from a run that a -run filter cut short.
digests:
	$(GO) test -count=1 -run '^TestResultDigests$$' ./internal/workloads/all/ -update
