package server

import (
	"reflect"
	"slices"
	"sync"

	"repro/internal/sync4"
	"repro/internal/trace"
)

// maxIdleRecorderBytes caps the event-buffer memory the pool keeps alive
// between jobs. The default geometry (1<<16 events per lane) costs 1.5 MiB
// a lane, so 64 MiB holds every worker's recorder up to 20 threads a job on
// a 2-worker host; a wider job's recorder is simply not kept.
const maxIdleRecorderBytes = 64 << 20

// eventBytes is the size of one preallocated event slot.
var eventBytes = int(reflect.TypeOf(trace.Event{}).Size())

// recorderPool is the engine's free list of idle trace recorders. A fresh
// recorder is lanes x TraceCapacity x 24 B of zeroed memory — 6 MiB for a
// one-thread job — which cost more to allocate and collect than the job it
// traced; a recycled one costs a table wipe.
//
// Recorders match by exact lane count (the job's thread count fixes it).
// The list is ordered oldest first: get takes the most recently returned
// match, put evicts from the front once the list exceeds the worker count
// or the byte cap, so a geometry the traffic stopped using ages out.
type recorderPool struct {
	capacity int // events per lane, Config.TraceCapacity
	maxIdle  int // Config.Workers

	reused, allocated sync4.Counter

	mu   sync.Mutex
	idle []*trace.Recorder
}

func newRecorderPool(kit sync4.Kit, capacity, maxIdle int) *recorderPool {
	return &recorderPool{
		capacity: capacity, maxIdle: maxIdle,
		reused: kit.NewCounter(), allocated: kit.NewCounter(),
	}
}

// get returns a recorder with exactly lanes lanes in the just-constructed
// state, from the free list when it has one.
func (p *recorderPool) get(lanes int) *trace.Recorder {
	p.mu.Lock()
	for i := len(p.idle) - 1; i >= 0; i-- {
		if rec := p.idle[i]; rec.MaxLanes() == lanes {
			p.idle = slices.Delete(p.idle, i, i+1)
			p.mu.Unlock()
			p.reused.Inc()
			return rec
		}
	}
	p.mu.Unlock()
	p.allocated.Inc()
	return trace.NewRecorder(lanes, p.capacity)
}

// put recycles rec and files it for the next job. Only a recorder whose
// every recording goroutine has been joined may come back: after a stall,
// timeout or cancellation the abandoned workers can still write to theirs,
// and the caller must drop it instead.
func (p *recorderPool) put(rec *trace.Recorder) {
	rec.Recycle()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.idle = append(p.idle, rec)
	for len(p.idle) > p.maxIdle || p.idleBytes() > maxIdleRecorderBytes {
		p.idle = slices.Delete(p.idle, 0, 1)
	}
}

// idleBytes sums the idle recorders' event buffers. Callers hold p.mu.
func (p *recorderPool) idleBytes() (n int) {
	for _, rec := range p.idle {
		n += rec.MaxLanes() * p.capacity * eventBytes
	}
	return n
}
