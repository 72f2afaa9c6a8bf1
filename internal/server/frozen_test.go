package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// waitFor polls cond, under the job's lock, until it holds.
func waitFor(t *testing.T, j *Job, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); ; {
		j.mu.Lock()
		ok := cond()
		j.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s: %s never happened", j.ID, what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func getBody(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s = %d: %s", url, resp.StatusCode, body)
	}
	return body, err
}

// TestFrozenJobReadsBackAsServed: a frozen job must serve the bytes it
// served while live. The first subtest freezes hand-built terminal jobs
// (done, and failed after a stall) and compares each response rendered
// just before freeze with the one after, deduped view and /jobs entry
// included. The others run a job through the daemon, capture the event
// stream its live subscriber read and the finished view, and read both
// back once the job is frozen: a done job, a failed one, and one whose
// subscriber attached between two repetitions.
//
//sync4:covers SYNC4-SERVE-013
func TestFrozenJobReadsBackAsServed(t *testing.T) {
	t.Run("freeze", func(t *testing.T) {
		s, _ := newTestServer(t, Config{Workers: 1, QueueCapacity: 4, NodeID: "a"})
		for _, st := range []State{StateDone, StateFailed} {
			ss := telemetry.NewSpanSet(time.Now().Add(-time.Millisecond), 1)
			for p := telemetry.PhaseAdmission; p <= telemetry.PhasePublish; p++ {
				ss.Mark(p, 0)
			}
			j := &Job{
				ID: "r-a-1", Seq: 1, Submitted: time.Now().Add(-time.Millisecond), RequestID: "q-1",
				Spec:  Spec{Workload: "fft", Kit: "lockfree", Threads: 2, Scale: "test", Seed: 7, Reps: 1},
				spans: ss,
			}
			j.emit("queued", map[string]any{"id": j.ID, "queue_depth": 0, "request_id": j.RequestID})
			j.emit("started", map[string]any{"threads": 2, "scale": "test", "reps": 1})
			j.started, j.finished = time.Now(), time.Now()
			j.state.Store(int32(st))
			if st == StateDone {
				j.emit("rep", map[string]any{"rep": 0, "wall_ns": int64(1234)})
				j.result = jobResult{MeanNS: 1234, TimesNS: []int64{1234}, TraceEvents: 5, SyncOps: 6}
				j.emit("done", map[string]any{"mean_ns": int64(1234), "times_ns": []int64{1234}})
			} else {
				j.stall, j.errMsg = "all 2 threads blocked", "stalled: all 2 threads blocked"
				j.emit("stall", map[string]any{"rep": 0, "diagnosis": j.stall})
				j.emit("error", map[string]any{"error": j.errMsg})
			}
			render := func(deduped bool) []byte {
				var b bytes.Buffer
				if err := json.NewEncoder(&b).Encode(s.jobView(j, deduped)); err != nil {
					t.Fatal(err)
				}
				return b.Bytes()
			}
			view, twin, summary := render(false), render(true), jobSummary(j, "a")
			stream, _, _ := j.subscribe(1)
			j.freeze(j.spans.Spans())
			if j.spans != nil || j.subs != nil {
				t.Errorf("%v: frozen job still holds its span set or subscribers", st)
			}
			got, _, _ := j.subscribe(1)
			for _, c := range []struct {
				name      string
				live, got []byte
			}{
				{"view", view, render(false)},
				{"deduped view", twin, render(true)},
				{"stream", stream, got},
			} {
				if !bytes.Equal(c.live, c.got) {
					t.Errorf("%v: frozen %s differs from the live one:\nlive:   %q\nfrozen: %q", st, c.name, c.live, c.got)
				}
			}
			if after := jobSummary(j, "a"); !reflect.DeepEqual(summary, after) {
				t.Errorf("%v: /jobs entry changed on freeze: %v, then %v", st, summary, after)
			}
		}
	})

	for _, c := range []struct {
		name   string
		err    error
		midRun bool
	}{
		{name: "done"},
		{name: "error", err: errors.New("repetition failed")},
		{name: "mid_run", midRun: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			gate := make(chan struct{}, 2)
			bench := &gatedBench{name: "gated", gate: gate, err: c.err}
			s, _ := newTestServer(t, Config{
				Workers: 1, QueueCapacity: 4,
				Resolver: func(string) (core.Benchmark, error) { return bench, nil },
			})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			_, body := postRun(t, ts, `{"workload":"gated","kit":"lockfree","threads":1,"reps":2}`)
			id := body["id"].(string)
			j, _ := s.jobByID(id)
			if c.midRun {
				gate <- struct{}{}
				waitFor(t, j, "the first rep event", func() bool { return j.nEvents == 3 })
			}
			type result struct {
				body []byte
				err  error
			}
			live := make(chan result, 1)
			go func() {
				b, err := getBody(ts.URL + "/runs/" + id + "/events")
				live <- result{b, err}
			}()
			waitFor(t, j, "a live subscriber", func() bool { return len(j.subs) == 1 })
			for len(gate) < cap(gate) {
				gate <- struct{}{}
			}
			streamed := <-live
			if streamed.err != nil {
				t.Fatal(streamed.err)
			}
			terminal := "event: done\n"
			if c.err != nil {
				terminal = "event: error\n"
			}
			if !bytes.HasPrefix(streamed.body, []byte("id: 0\nevent: queued\n")) || !bytes.Contains(streamed.body, []byte(terminal)) {
				t.Fatalf("live stream %q: want queued first and %q", streamed.body, terminal)
			}
			// The view is final once the publish span is in it, whether the
			// job is frozen yet or not.
			var view []byte
			for !bytes.Contains(view, []byte(`"phase": "publish"`)) {
				var err error
				if view, err = getBody(ts.URL + "/runs/" + id); err != nil {
					t.Fatal(err)
				}
			}
			waitFor(t, j, "freeze", func() bool { return j.finalSpans != nil })
			for _, r := range []struct {
				path string
				want []byte
			}{{"/events", streamed.body}, {"", view}} {
				got, err := getBody(ts.URL + "/runs/" + id + r.path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, r.want) {
					t.Errorf("GET /runs/%s%s after freeze:\n got %q\nwant %q", id, r.path, got, r.want)
				}
			}
		})
	}
}

// maxObjectsPerFinishedJob bounds the heap objects a finished job leaves
// live in a daemon: the job and its strings, its event stream and span
// chain, and the journal index's share (the record's repetition times and
// span chain, its population entry). Keeping each event's payload map
// beside its frame reads 26.
const maxObjectsPerFinishedJob = 12

// TestFinishedJobRetention drives jobs the way a client does (POST, a
// subscriber that attaches while the job runs, GET of the result) and
// holds the heap objects still live per finished job, after a collection,
// to maxObjectsPerFinishedJob.
func TestFinishedJobRetention(t *testing.T) {
	const warm, jobs = 50, 1000
	gate := make(chan struct{})
	bench := &gatedBench{name: "gated", gate: gate}
	s, _ := newTestServer(t, Config{
		Workers: 1, QueueCapacity: 4, TraceCapacity: 16,
		Resolver: func(string) (core.Benchmark, error) { return bench, nil },
	})
	h := s.Handler()
	run := func(seed int) {
		t.Helper()
		rec := httptest.NewRecorder()
		spec := fmt.Sprintf(`{"workload":"gated","kit":"lockfree","threads":1,"seed":%d}`, seed)
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/runs", strings.NewReader(spec)))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("POST /runs = %d (%s)", rec.Code, rec.Body)
		}
		id := strings.Split(strings.SplitN(rec.Body.String(), `"id": "`, 2)[1], `"`)[0]
		j, _ := s.jobByID(id)
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		streamed := make(chan error, 1)
		go func() {
			_, err := serveStream(ctx, h, id)
			streamed <- err
		}()
		waitFor(t, j, "a live subscriber", func() bool { return len(j.subs) == 1 })
		gate <- struct{}{}
		if err := <-streamed; err != nil {
			t.Fatal(err)
		}
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/runs/"+id, nil))
		waitFor(t, j, "freeze", func() bool { return j.finalSpans != nil })
	}
	live := func() (objects, bytes int64) {
		runtime.GC()
		runtime.GC() // the second cycle empties sync.Pool victim caches
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapObjects), int64(ms.HeapAlloc)
	}

	for i := 0; i < warm; i++ {
		run(i)
	}
	objects0, bytes0 := live()
	for i := warm; i < warm+jobs; i++ {
		run(i)
	}
	objects1, bytes1 := live()
	runtime.KeepAlive(s)
	perJob := float64(objects1-objects0) / jobs
	t.Logf("%.1f heap objects, %d bytes live per finished job", perJob, (bytes1-bytes0)/jobs)
	if perJob > maxObjectsPerFinishedJob {
		t.Errorf("each finished job leaves %.1f heap objects live, want at most %d", perJob, maxObjectsPerFinishedJob)
	}
}
