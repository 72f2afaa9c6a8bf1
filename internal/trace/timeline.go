package trace

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/results"
	"repro/internal/stats"
)

// Trace aggregation: the per-phase timeline and the blocked-time
// distributions. Splash-4 workloads are barrier-structured — every logical
// thread passes the same sequence of barrier episodes — so barrier
// completions are natural phase boundaries: phase k is the interval between
// the (k-1)-th and k-th episode completing on the slowest lane.

// Phase is one barrier-delimited interval of a capture.
type Phase struct {
	// Index is the 0-based phase number; the final phase runs from the last
	// barrier completion to the last recorded event.
	Index int
	// Start and End are nanosecond offsets from the capture epoch.
	Start, End int64
	// Events counts events whose start falls inside [Start, End).
	Events int
	// Blocked sums blocking-op durations of those events across all lanes.
	Blocked int64
}

// Phases splits the capture at barrier-episode completions. An episode's
// completion is the latest barrier-wait End among the lanes' k-th barrier
// events; lanes with fewer barriers than the minimum simply bound the
// episode count. A capture with no barrier events is one phase.
func Phases(c *Capture) []Phase {
	perLane := make([][]Event, 0, len(c.Lanes))
	for _, lane := range c.Lanes {
		var bs []Event
		for _, ev := range lane {
			if ev.Op == OpBarrierWait {
				bs = append(bs, ev)
			}
		}
		if len(bs) > 0 {
			perLane = append(perLane, bs)
		}
	}
	episodes := 0
	for i, bs := range perLane {
		if i == 0 || len(bs) < episodes {
			episodes = len(bs)
		}
	}
	var bounds []int64
	for k := 0; k < episodes; k++ {
		var end int64
		for _, bs := range perLane {
			if bs[k].End > end {
				end = bs[k].End
			}
		}
		bounds = append(bounds, end)
	}

	var last int64
	for _, lane := range c.Lanes {
		for _, ev := range lane {
			if ev.End > last {
				last = ev.End
			}
		}
	}
	if len(bounds) == 0 || bounds[len(bounds)-1] < last {
		bounds = append(bounds, last)
	}

	phases := make([]Phase, len(bounds))
	start := int64(0)
	for i, end := range bounds {
		phases[i] = Phase{Index: i, Start: start, End: end}
		start = end
	}
	for _, lane := range c.Lanes {
		for _, ev := range lane {
			p := phaseAt(phases, ev.Start)
			phases[p].Events++
			if ev.Op.Blocking() {
				phases[p].Blocked += ev.Dur()
			}
		}
	}
	return phases
}

// phaseAt locates the phase containing offset t (binary search over the
// sorted phase bounds).
func phaseAt(phases []Phase, t int64) int {
	lo, hi := 0, len(phases)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if t >= phases[mid].End {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TimelineTable renders the per-phase timeline as an aligned-text table:
// one row per barrier-delimited phase with its span, event count, summed
// blocked time and blocked share of phase wall-time across lanes.
func TimelineTable(c *Capture, label string) *results.Table {
	t := results.New("TRACE", fmt.Sprintf("phase timeline (%s)", label),
		"phase", "start", "dur", "events", "blocked", "blocked-share")
	lanes := 0
	for _, lane := range c.Lanes {
		if len(lane) > 0 {
			lanes++
		}
	}
	for _, p := range Phases(c) {
		wall := time.Duration(p.End - p.Start)
		share := "-"
		if wall > 0 && lanes > 0 {
			share = fmt.Sprintf("%.1f%%",
				100*float64(p.Blocked)/(float64(wall.Nanoseconds())*float64(lanes)))
		}
		t.AddRow(
			p.Index,
			time.Duration(p.Start).Round(time.Microsecond),
			wall.Round(time.Microsecond),
			p.Events,
			time.Duration(p.Blocked).Round(time.Microsecond),
			share,
		)
	}
	return t
}

// BlockedStats holds the blocked-time distributions of a capture: one
// histogram per blocking operation plus their union.
type BlockedStats struct {
	Total *stats.Histogram
	ByOp  map[Op]*stats.Histogram
}

// Blocked folds every blocking event's duration into log-spaced histograms.
func Blocked(c *Capture) BlockedStats {
	bs := BlockedStats{
		Total: stats.NewHistogram(),
		ByOp:  make(map[Op]*stats.Histogram),
	}
	for _, lane := range c.Lanes {
		for _, ev := range lane {
			if !ev.Op.Blocking() {
				continue
			}
			d := ev.Dur()
			bs.Total.Add(d)
			h := bs.ByOp[ev.Op]
			if h == nil {
				h = stats.NewHistogram()
				bs.ByOp[ev.Op] = h
			}
			h.Add(d)
		}
	}
	return bs
}

// BlockedTable renders the blocked-time distributions: one row per blocking
// op (in Op order) plus a total row, with count, sum and quantiles.
func BlockedTable(c *Capture, label string) *results.Table {
	bs := Blocked(c)
	t := results.New("TRACE", fmt.Sprintf("blocked time (%s)", label),
		"op", "n", "sum", "p50", "p95", "max")
	addRow := func(name string, h *stats.Histogram) {
		t.AddRow(name, h.N(),
			time.Duration(h.Sum()).Round(time.Microsecond),
			time.Duration(h.Quantile(0.50)).Round(time.Nanosecond),
			time.Duration(h.Quantile(0.95)).Round(time.Nanosecond),
			time.Duration(h.Max()).Round(time.Nanosecond))
	}
	for op := Op(0); op < NumOps; op++ {
		if h, ok := bs.ByOp[op]; ok {
			addRow(op.String(), h)
		}
	}
	if bs.Total.N() > 0 {
		addRow("total", bs.Total)
	}
	return t
}

// WaitSplit decomposes blocked time into what the program causes and what
// the construct costs. All values are nanoseconds, one per event, in no
// particular order.
type WaitSplit struct {
	// Imbalance and Release split each barrier wait at its episode's last
	// arrival: Imbalance runs from the wait's Start to that arrival (no
	// barrier can shorten it), Release from there to the wait's End (the
	// construct). The two sum to the wait's duration exactly.
	Imbalance, Release []int64
	// EarlyDepartures counts barrier waits that ended before their
	// episode's last arrival — a broken barrier, or a capture whose lanes
	// are not one thread each. Their Release is negative.
	EarlyDepartures int
	// Hold runs from a lock acquire's End to the same lane's next release
	// of that lock; Handoff from another lane's release Start to the End of
	// an acquire that was waiting for it.
	Hold, Handoff []int64
	// Wake runs from a flag's first Set to the End of each wait on it that
	// began before that Set.
	Wake []int64
}

// Waits splits every barrier wait, lock acquire and flag wait of c. The
// k-th wait on a barrier object in each lane belongs to episode k, as in
// Phases; an episode some lane did not record takes its last arrival from
// the lanes that did.
func Waits(c *Capture) WaitSplit {
	var w WaitSplit
	type laneEvent struct {
		lane int
		ev   Event
	}
	barriers := map[uint32][][]Event{} // object -> lane -> its waits in order
	locks := map[uint32][]laneEvent{}
	flagSet := map[uint32]int64{}
	var flagWaits []Event
	for li, lane := range c.Lanes {
		for _, ev := range lane {
			switch ev.Op {
			case OpBarrierWait:
				perLane := barriers[ev.Obj]
				if perLane == nil {
					perLane = make([][]Event, len(c.Lanes))
					barriers[ev.Obj] = perLane
				}
				perLane[li] = append(perLane[li], ev)
			case OpLockAcquire, OpLockRelease:
				locks[ev.Obj] = append(locks[ev.Obj], laneEvent{li, ev})
			case OpFlagSet:
				if s, ok := flagSet[ev.Obj]; !ok || ev.Start < s {
					flagSet[ev.Obj] = ev.Start
				}
			case OpFlagWait:
				flagWaits = append(flagWaits, ev)
			}
		}
	}

	for _, perLane := range barriers {
		for k := 0; ; k++ {
			last, seen := int64(math.MinInt64), false
			for _, evs := range perLane {
				if k < len(evs) {
					last, seen = max(last, evs[k].Start), true
				}
			}
			if !seen {
				break
			}
			for _, evs := range perLane {
				if k < len(evs) {
					w.Imbalance = append(w.Imbalance, last-evs[k].Start)
					w.Release = append(w.Release, evs[k].End-last)
					if evs[k].End < last {
						w.EarlyDepartures++
					}
				}
			}
		}
	}

	for _, evs := range locks {
		// Lanes record in time order, so each lane's acquire precedes its
		// release; releases sorted by Start find each acquire's hand-over.
		var rels []laneEvent
		held := map[int]int64{} // lane -> End of its open acquire
		for _, le := range evs {
			if le.ev.Op == OpLockRelease {
				rels = append(rels, le)
				if end, ok := held[le.lane]; ok {
					w.Hold = append(w.Hold, le.ev.Start-end)
					delete(held, le.lane)
				}
			} else {
				held[le.lane] = le.ev.End
			}
		}
		sort.Slice(rels, func(i, j int) bool { return rels[i].ev.Start < rels[j].ev.Start })
		for _, le := range evs {
			if le.ev.Op != OpLockAcquire {
				continue
			}
			// The last release that starts no later than this acquire ends.
			i := sort.Search(len(rels), func(i int) bool { return rels[i].ev.Start > le.ev.End }) - 1
			if i >= 0 && rels[i].lane != le.lane && rels[i].ev.Start > le.ev.Start {
				w.Handoff = append(w.Handoff, le.ev.End-rels[i].ev.Start)
			}
		}
	}

	for _, ev := range flagWaits {
		if set, ok := flagSet[ev.Obj]; ok && ev.Start < set {
			w.Wake = append(w.Wake, ev.End-set)
		}
	}
	return w
}
