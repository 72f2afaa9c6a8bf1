package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// The host probe. The hosts this repository runs on are shared 2-CPU virtual
// machines whose speed shifts for minutes at a time with load that is not
// ours: lock and atomic loops by 10 %, memory-bound code by 30-70 %. A shift
// that covers a whole 20 s run moves every timing in it, which no median
// within the run can remove. So every run also times, all through its window,
// three small fixed loops that depend on nothing in this repository, and
// reports how long they took: host.alu_us, host.mem_us, host.sync_us. Two runs
// whose host numbers differ were measured on differently loaded machines.
//
// suite_default goes one step further, because its programs are the
// memory-bound ones: it divides every timed region by how much slower than
// idle the memory loop ran right before and after it (see adjust).

const (
	probeALUSteps  = 50_000
	probeMemWords  = 512 << 10 // 4 MiB of uint64: past a core's L2, into the cache the neighbours share
	probeSyncSteps = 5_000

	// memIdleUS is what the memory loop takes on this class of host when
	// nothing else runs. On another class it is off by a constant factor,
	// which scales the adjusted times and changes no comparison.
	memIdleUS = 860.0
)

// hostSample is one timing of the three loops, in microseconds.
type hostSample struct{ aluUS, memUS, syncUS float64 }

type hostProbe struct {
	mu      sync.Mutex
	samples []hostSample

	mem64 []uint64
	word  atomic.Int64
	lock  sync.Mutex
	sink  uint64
}

func newHostProbe() *hostProbe {
	return &hostProbe{mem64: make([]uint64, probeMemWords)}
}

// sample times the three loops once, about a millisecond in all. Safe for
// concurrent use; concurrent callers serialize.
func (h *hostProbe) sample() hostSample {
	h.mu.Lock()
	defer h.mu.Unlock()

	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < probeALUSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	t1 := time.Now()
	for i := range h.mem64 {
		x += h.mem64[i]
		h.mem64[i] = x
	}
	t2 := time.Now()
	for i := 0; i < probeSyncSteps; i++ {
		h.word.Add(1)
		h.lock.Lock()
		h.sink += x
		h.lock.Unlock()
	}
	t3 := time.Now()
	s := hostSample{aluUS: us(t1.Sub(t0)), memUS: us(t2.Sub(t1)), syncUS: us(t3.Sub(t2))}
	h.samples = append(h.samples, s)
	return s
}

// adjust is the factor that takes a time measured between two samples to what
// it would have been on an idle host: idle memory-loop time over the mean of
// the two samples' memory-loop times.
func adjust(before, after hostSample) float64 {
	return memIdleUS / ((before.memUS + after.memUS) / 2)
}

// medians returns the median time of each loop, in microseconds.
func (h *hostProbe) medians() (aluUS, memUS, syncUS float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var alu, mem, syn []float64
	for _, s := range h.samples {
		alu, mem, syn = append(alu, s.aluUS), append(mem, s.memUS), append(syn, s.syncUS)
	}
	return median(alu), median(mem), median(syn)
}
