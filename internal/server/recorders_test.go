package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/splitmix"
	"repro/internal/sync4"
	"repro/internal/trace"
	"repro/internal/workloads/all"
)

// idleRecorders reports how many recorders the pool holds.
func (s *Server) idleRecorders() int {
	s.recorders.mu.Lock()
	defer s.recorders.mu.Unlock()
	return len(s.recorders.idle)
}

// repCensus is an execObserver that keeps what the last repetition reported.
type repCensus struct {
	noopObserver
	events, dropped, syncOps int64
}

func (c *repCensus) repDone(_ int, _ time.Duration, events, dropped, syncOps, _ int64) {
	c.events, c.dropped, c.syncOps = events, dropped, syncOps
}

// retireThreads ends n OS threads: a goroutine that exits while locked takes
// its thread with it, and holding all n at once keeps them distinct. A
// daemon sheds and spawns threads as connections block; a test that calls
// the engine in a loop would otherwise see the same few thread ids forever.
func retireThreads(n int) {
	var locked, exited sync.WaitGroup
	release := make(chan struct{})
	locked.Add(n)
	exited.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer exited.Done()
			runtime.LockOSThread()
			locked.Done()
			<-release
		}()
	}
	locked.Wait()
	close(release)
	exited.Wait()
}

// TestPooledRecorderMatchesFreshOne runs 50 jobs of shuffled thread counts
// and kits through one server's engine, on OS threads that keep changing,
// so every recorder is reused across kits and by threads it has never seen;
// every job must report no dropped event and exactly the trace and sync
// census the same spec gives harness.RunContext on a recorder nobody used
// before.
func TestPooledRecorderMatchesFreshOne(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 4, TraceCapacity: 256})
	fft, err := all.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	type census struct{ events, syncOps int64 }
	fresh := map[string]census{}
	rng := uint64(19)
	const jobs = 50
	for i := 0; i < jobs; i++ {
		sp := Spec{
			Workload: "fft", Kit: []string{"classic", "lockfree"}[splitmix.Next(&rng)%2],
			Threads: 1 + int(splitmix.Next(&rng)%4), Scale: "test", Seed: 7, Reps: 1,
		}
		key := fmt.Sprintf("%s/%d", sp.Kit, sp.Threads)
		want, ok := fresh[key]
		if !ok {
			kit, _ := sp.kit()
			res, err := harness.RunContext(context.Background(), fft,
				core.Config{Threads: sp.Threads, Kit: kit, Scale: core.ScaleTest, Seed: sp.Seed},
				harness.Options{Reps: 1, Verify: true, Instrument: true,
					Trace: trace.NewRecorder(2*sp.Threads+2, s.cfg.TraceCapacity)})
			if err != nil {
				t.Fatal(err)
			}
			want = census{int64(res.Trace.Events()), res.Sync.Total()}
			fresh[key] = want
		}
		retireThreads(8)
		var got repCensus
		if _, err := s.executeSpec(context.Background(), sp, &got); err != nil {
			t.Fatalf("job %d (%s): %v", i, key, err)
		}
		if got.dropped != 0 || got.events != want.events || got.syncOps != want.syncOps {
			t.Fatalf("job %d (%s): trace_events=%d sync_ops=%d trace_dropped=%d, a fresh recorder gives %d/%d/0",
				i, key, got.events, got.syncOps, got.dropped, want.events, want.syncOps)
		}
	}
	reused, allocated := s.recorders.reused.Load(), s.recorders.allocated.Load()
	if reused != jobs-4 || allocated != 4 {
		t.Fatalf("recorders reused=%d allocated=%d over %d jobs, want one allocation per thread count", reused, allocated, jobs)
	}
}

// kitBench is a controllable workload that touches the kit it was prepared
// with: Run announces itself on entered, waits for gate, performs ops
// counter increments (one traced event each) and closes wrote.
type kitBench struct {
	name                 string
	ops                  int
	entered, gate, wrote chan struct{}
}

func newKitBench(name string, ops int) *kitBench {
	return &kitBench{name: name, ops: ops,
		entered: make(chan struct{}), gate: make(chan struct{}), wrote: make(chan struct{})}
}

func (b *kitBench) Name() string        { return b.name }
func (b *kitBench) Description() string { return "kit-touching gated benchmark for pool tests" }
func (b *kitBench) Prepare(cfg core.Config) (core.Instance, error) {
	return &kitInstance{b: b, ctr: cfg.Kit.NewCounter()}, nil
}

type kitInstance struct {
	b   *kitBench
	ctr sync4.Counter
}

func (i *kitInstance) Run() error {
	close(i.b.entered)
	<-i.b.gate
	for n := 0; n < i.b.ops; n++ {
		i.ctr.Inc()
	}
	close(i.b.wrote)
	return nil
}
func (i *kitInstance) Verify() error { return nil }

// TestStalledJobForfeitsItsRecorder wedges a job the way
// TestStalledJobEmitsDiagnosis does, then lets the abandoned worker resume
// and record while the next job of the same geometry is mid-repetition:
// the stalled job's recorder must have left the pool for good, so the next
// job's trace holds none of the leaked worker's events.
func TestStalledJobForfeitsItsRecorder(t *testing.T) {
	wedge, next := newKitBench("wedge", 1), newKitBench("next", 0)
	s, _ := newTestServer(t, Config{
		Workers: 1, QueueCapacity: 4,
		JobTimeout: time.Hour, RepTimeout: 100 * time.Millisecond,
		Resolver: func(name string) (core.Benchmark, error) {
			switch name {
			case "wedge":
				return wedge, nil
			case "next":
				return next, nil
			}
			return &gatedBench{name: name}, nil
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Prime the pool, so the wedged job runs on a recycled recorder that a
	// careless engine would hand straight back.
	_, body := postRun(t, ts, `{"workload":"free","kit":"lockfree","threads":1}`)
	waitStatus(t, ts, body["id"].(string), "done")
	if n := s.idleRecorders(); n != 1 {
		t.Fatalf("pool holds %d recorders after a clean job, want 1", n)
	}
	_, body = postRun(t, ts, `{"workload":"wedge","kit":"lockfree","threads":1}`)
	waitStatus(t, ts, body["id"].(string), "error")
	if n := s.idleRecorders(); n != 0 {
		t.Fatalf("pool holds %d recorders after a stalled job, want 0: its abandoned worker can still record", n)
	}

	_, body = postRun(t, ts, `{"workload":"next","kit":"lockfree","threads":1}`)
	id := body["id"].(string)
	<-next.entered    // the next job's repetition is under way ...
	close(wedge.gate) // ... when the leaked worker wakes up
	<-wedge.wrote     // and records its event
	close(next.gate)
	waitStatus(t, ts, id, "done")
	evs, err := serveStream(context.Background(), s.Handler(), id)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		if ev.Type == "rep" && (ev.Data["trace_events"] != 0.0 || ev.Data["trace_dropped"] != 0.0) {
			t.Fatalf("job after the stall reports %v events, %v dropped; want 0/0: a leaked worker wrote to its recorder",
				ev.Data["trace_events"], ev.Data["trace_dropped"])
		}
	}
	if reused, allocated := s.recorders.reused.Load(), s.recorders.allocated.Load(); reused != 1 || allocated != 2 {
		t.Fatalf("recorders reused=%d allocated=%d, want 1 (the wedged job) and 2 (the first job and the one after the stall)", reused, allocated)
	}
}

// fftSpec is the daemon_submit job: fft, test scale, one thread.
func fftSpec(i int) Spec {
	return Spec{Workload: "fft", Kit: []string{"classic", "lockfree"}[i%2],
		Threads: 1, Scale: "test", Seed: int64(i), Reps: 1}
}

// TestSteadyStateBytesPerJob bounds what one daemon_submit-shaped job
// allocates once the pool is warm. A fresh one-thread recorder alone is
// 6 MiB; with reuse a job is left with fft's own instance and oracle,
// about 1 MiB.
func TestSteadyStateBytesPerJob(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	run := func(i int) {
		if _, err := s.executeSpec(context.Background(), fftSpec(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	run(0)
	run(1)
	const jobs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < jobs; i++ {
		run(2 + i)
	}
	runtime.ReadMemStats(&after)
	perJob := (after.TotalAlloc - before.TotalAlloc) / jobs
	if perJob > 3<<20 {
		t.Fatalf("steady state allocates %d B/job, want <= 3 MiB (a per-job recorder alone is 6 MiB)", perJob)
	}
	if allocated := s.recorders.allocated.Load(); allocated != 1 {
		t.Fatalf("%d recorders allocated over %d same-shape jobs, want 1", allocated, jobs+2)
	}
}

// BenchmarkExecuteSpec is the engine's cost per daemon_submit-shaped job,
// kits alternating; run with -benchmem to see the bytes a job allocates.
func BenchmarkExecuteSpec(b *testing.B) {
	s, _ := newTestServer(b, Config{Workers: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.executeSpec(context.Background(), fftSpec(i), nil); err != nil {
			b.Fatal(err)
		}
	}
}
