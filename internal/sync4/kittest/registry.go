package kittest

// This file is the registry of the conformance suites a sync4.Kit has to
// pass. The registry is the single enumeration the meta-test in
// internal/sync4 drives under every kit, so adding a suite here is what
// makes it impossible to forget a per-kit driver — and what the
// req-coverage analyzer's "both kits" proof leans on.

import (
	"testing"

	"repro/internal/sync4"
)

// SpecVersion is the current version of the generated conformance document
// (docs/CONFORMANCE.md). Bump it before declaring requirements with a newer
// since-version; splash4-vet's req-stale analyzer rejects tags from the
// future.
const SpecVersion = 4

// RegistrySeed pins the fault schedule the registry's FaultConformance
// entry runs under, matching the chaos tests' seed so failures reproduce
// identically in both places.
const RegistrySeed = 42

// Suite is one registered conformance suite: a name for subtest labels and
// a kit-parametric body.
type Suite struct {
	Name string
	Run  func(*testing.T, sync4.Kit)
}

// Suites enumerates every conformance suite of the contract. The sync4
// meta-test runs each entry under both the classic and the lockfree kit and
// fails if a baseline suite ever goes missing from this list.
func Suites() []Suite {
	return []Suite{
		{Name: "Conformance", Run: Conformance},
		{Name: "FaultConformance", Run: func(t *testing.T, kit sync4.Kit) { FaultConformance(t, kit, RegistrySeed) }},
		{Name: "ZeroAlloc", Run: ZeroAlloc},
	}
}
