// Package allocgate is the dynamic half of the //sync4:zeroalloc contract:
// it enumerates every annotation in the module through the same registry the
// static analyzer uses (analysis.ZeroAllocFuncs), maps each annotated
// function to a runtime probe, and drives testing.AllocsPerRun over it. A
// new annotation without a probe fails here, so the static claim can never
// silently outgrow its dynamic verification.
package allocgate

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/stats"
	"repro/internal/sync4"
	"repro/internal/sync4/classic"
	"repro/internal/sync4/kittest"
	"repro/internal/sync4/lockfree"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// minAnnotations guards against the registry silently emptying (a scan bug
// would otherwise pass this gate vacuously). The module has 77 annotations.
const minAnnotations = 75

// coveredElsewhere lists annotated unexported functions this package cannot
// reach; each entry names the in-package test that owns the probe instead.
// An entry that matches no annotation fails the gate, as does an unused
// directProbes key.
var coveredElsewhere = map[string]string{
	// lane is Record's claim path; the Recorder probes below exercise it on
	// their first per-thread Record call.
	"(*repro/internal/trace.Recorder).lane": "probed via (*Recorder).Record",
}

// registryEntry is one parsed annotation: package path, receiver type (no
// pointer star), method name.
type registryEntry struct {
	full    string
	pkgPath string
	typ     string
	method  string
}

func parseFullName(f analysis.ZeroAllocFunc) (registryEntry, error) {
	e := registryEntry{full: f.FullName, pkgPath: f.PkgPath}
	name := f.FullName
	// Methods render as "(*pkgpath.type).Method" or "(pkgpath.type).Method".
	if strings.HasPrefix(name, "(") {
		close := strings.Index(name, ")")
		if close < 0 || close+2 > len(name) {
			return e, fmt.Errorf("unparseable method name %q", name)
		}
		recv := strings.TrimPrefix(name[1:close], "*")
		dot := strings.LastIndex(recv, ".")
		if dot < 0 {
			return e, fmt.Errorf("no type in receiver %q", recv)
		}
		e.typ = recv[dot+1:]
		e.method = strings.TrimPrefix(name[close+1:], ".")
		return e, nil
	}
	// Plain function "pkgpath.Func".
	dot := strings.LastIndex(name, ".")
	if dot < 0 {
		return e, fmt.Errorf("unparseable function name %q", name)
	}
	e.method = name[dot+1:]
	return e, nil
}

// familyKey normalizes a receiver type name to the kittest probe key family:
// obsQueue/queue -> "queue", accumulator -> "accum".
func familyKey(typ string) string {
	base := typ
	if rest, ok := strings.CutPrefix(base, "obs"); ok && rest != "" {
		base = strings.ToLower(rest[:1]) + rest[1:]
	}
	switch base {
	case "accumulator", "accum":
		return "accum"
	case "spinLock", "lock", "Mutex":
		return "lock"
	case "minMax":
		return "minmax"
	}
	return base
}

// probeSets maps an annotation to the probe(s) exercising it, keyed by
// package path, or by wrapper mode for the observing decorator. Every mode
// is probed over both base kits, so "under both kits" holds for the
// decorator's annotations too.
func probeSets(t *testing.T) map[string]map[string][]func() {
	t.Helper()
	rec := trace.NewRecorder(8, 1<<12)
	var counters sync4.Counters

	kits := map[string][]sync4.Kit{
		"repro/internal/sync4/lockfree": {lockfree.New()},
		"repro/internal/sync4/classic":  {classic.New()},
		// Instrument with timing enabled so the timing path runs.
		"instr": {
			sync4.Instrument(classic.New(), &counters, true),
			sync4.Instrument(lockfree.New(), &counters, true),
		},
		// Trace alone, and Trace over Instrument — every splash4d job's kit.
		"traced": {
			sync4.Trace(classic.New(), rec),
			sync4.Trace(lockfree.New(), rec),
			sync4.Trace(sync4.Instrument(classic.New(), &counters, false), rec),
			sync4.Trace(sync4.Instrument(lockfree.New(), &counters, false), rec),
		},
	}
	out := make(map[string]map[string][]func())
	for pkg, ks := range kits {
		merged := make(map[string][]func())
		for _, k := range ks {
			for key, probe := range kittest.ZeroAllocProbes(k) {
				merged[key] = append(merged[key], probe)
			}
		}
		out[pkg] = merged
	}
	return out
}

// directProbes covers annotated functions outside the kit interface: the
// lockfree extras, the trace recorder, the stats histogram, and the
// telemetry span/latency hot path.
func directProbes() map[string][]func() {
	tl := new(lockfree.TicketLock)
	tb := lockfree.NewTreeBarrier(1, 4)
	sc := lockfree.NewStripedCounter(4)
	rec := trace.NewRecorder(8, 1<<12)
	obj := rec.RegisterObject(trace.FamilyCounter)
	h := stats.NewHistogram()
	// A SpanSet sized for one rep: the first probe iterations fill its
	// preallocated spans, the rest exercise the at-capacity drop path —
	// both must be allocation-free.
	ss := telemetry.NewSpanSet(time.Now(), 1)
	reg := telemetry.NewRegistry()
	return map[string][]func(){
		"TicketLock.Lock":       {func() { tl.Lock(); tl.Unlock() }},
		"TicketLock.Unlock":     {func() { tl.Lock(); tl.Unlock() }},
		"TreeBarrier.Wait":      {func() { tb.Wait(0) }},
		"StripedCounter.AddAt":  {func() { sc.AddAt(1, 3) }},
		"StripedCounter.Sum":    {func() { sc.Sum() }},
		"Recorder.Now":          {func() { rec.Now() }},
		"Recorder.Record":       {func() { rec.Record(trace.OpRMW, obj, rec.Now()) }},
		"Histogram.Add":         {func() { h.Add(1234) }},
		"Histogram.AddDuration": {func() { h.AddDuration(1234) }},
		"SpanSet.Mark":          {func() { ss.Mark(telemetry.PhaseRep, 0) }},
		"SpanSet.Annotate":      {func() { ss.Annotate(1, 2) }},
		"Registry.Observe":      {func() { reg.Observe(telemetry.PhaseRep, 1234) }},
	}
}

func TestZeroAllocAnnotationsHold(t *testing.T) {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	registry := analysis.ZeroAllocFuncs(pkgs)
	if len(registry) < minAnnotations {
		t.Fatalf("registry has %d annotations; want >= %d — did the directive scan break?",
			len(registry), minAnnotations)
	}

	kitProbes := probeSets(t)
	direct := directProbes()
	used := make(map[string]bool)

	for _, entry := range registry {
		e, err := parseFullName(entry)
		if err != nil {
			t.Errorf("%v", err)
			continue
		}
		if why, ok := coveredElsewhere[e.full]; ok {
			used[e.full] = true
			t.Logf("%s: covered by %s", e.full, why)
			continue
		}
		// Each observing-decorator annotation runs once per mode, so an
		// allocation is pinned to the counting or the recording path; the
		// subtest names the mode where the type's "obs" prefix is:
		// sync4.instrQueue).Put and sync4.tracedQueue).Put.
		name := strings.TrimPrefix(e.full, "(*repro/internal/")
		runs := [][2]string{{name, e.pkgPath}}
		if e.pkgPath == "repro/internal/sync4" && strings.HasPrefix(e.typ, "obs") {
			runs = [][2]string{
				{strings.Replace(name, ".obs", ".instr", 1), "instr"},
				{strings.Replace(name, ".obs", ".traced", 1), "traced"},
			}
		}
		for _, run := range runs {
			name, key := run[0], run[1]
			var probes []func()
			if byKey, ok := kitProbes[key]; ok {
				probes = byKey[familyKey(e.typ)+"."+e.method]
			}
			if probes == nil {
				probes = direct[e.typ+"."+e.method]
				used[e.typ+"."+e.method] = true
			}
			if len(probes) == 0 {
				t.Errorf("%s: no probe mapped — add one to kittest.ZeroAllocProbes, directProbes, or coveredElsewhere", name)
				continue
			}
			t.Run(name, func(t *testing.T) {
				for i, probe := range probes {
					if avg := testing.AllocsPerRun(100, probe); avg != 0 {
						t.Errorf("probe %d: %.1f allocs per op; want 0", i, avg)
					}
				}
			})
		}
	}
	for stale := range coveredElsewhere {
		if !used[stale] {
			t.Errorf("coveredElsewhere entry %s matches no //sync4:zeroalloc annotation; delete it", stale)
		}
	}
	for stale := range direct {
		if !used[stale] {
			t.Errorf("directProbes key %s matches no //sync4:zeroalloc annotation; delete it", stale)
		}
	}
}
