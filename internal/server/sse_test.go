package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// sseEvents is the corpus of event shapes the pipeline actually emits plus
// adversarial payloads (escapes, unicode, float edge cases, nesting).
func sseCorpus() []Event {
	return []Event{
		{Seq: 0, Type: "queued", Data: map[string]any{
			"id": "r-000001", "workload": "radix", "kit": "lockfree", "queue_depth": 3,
		}},
		{Seq: 1, Type: "started", Data: map[string]any{"threads": 8, "scale": 2, "reps": 5}},
		{Seq: 2, Type: "rep", Data: map[string]any{
			"rep": 0, "wall_ns": int64(1234567), "trace_events": 42, "trace_dropped": int64(0),
		}},
		{Seq: 3, Type: "stall", Data: map[string]any{
			"rep": 1, "kind": "deadlock", "diagnosis": "all 8 threads blocked in barrier.Wait",
		}},
		{Seq: 4, Type: "done", Data: map[string]any{
			"mean_ns": int64(987654), "reps": 5, "times_ns": []int64{1, 2, 3, 4, 5},
		}},
		{Seq: 5, Type: "error", Data: map[string]any{"error": `bench "x" failed: exit 1`}},
		{Seq: 6, Type: "empty"},
		{Seq: 7, Type: "escapes", Data: map[string]any{
			"newline": "a\nb", "tab": "a\tb", "quote": `say "hi"`, "backslash": `a\b`,
			"ctrl": "a\x01b", "unicode": "héllo wörld ≥ 0", "cr": "a\rb",
		}},
		{Seq: 8, Type: "numbers", Data: map[string]any{
			"zero": 0, "neg": int64(-12345), "big": uint64(1 << 63),
			"f":       1.5,
			"f2":      0.1,
			"big_f":   1e21,
			"tiny_f":  1e-9,
			"neg_e":   -2.5e-7,
			"max_i64": int64(math.MaxInt64),
			"min_i64": int64(math.MinInt64),
		}},
		{Seq: 9, Type: "nested", Data: map[string]any{
			"outer": map[string]any{"b": 1, "a": "x", "c": []string{"p", "q"}},
			"null":  nil,
			"flag":  true,
		}},
	}
}

// TestSSEEncoderMatchesJSON checks appendSSE's frame for every corpus event:
// id, event name and one data line holding exactly json.Marshal(ev).
func TestSSEEncoderMatchesJSON(t *testing.T) {
	for _, ev := range sseCorpus() {
		b, err := appendSSE(nil, ev)
		if err != nil {
			t.Fatalf("event %d: %v", ev.Seq, err)
		}
		frame := string(b)
		want, err := json.Marshal(ev)
		if err != nil {
			t.Fatalf("json.Marshal(%+v): %v", ev, err)
		}
		payload, ok := strings.CutPrefix(frame, fmt.Sprintf("id: %d\nevent: %s\ndata: ", ev.Seq, ev.Type))
		payload, ok2 := strings.CutSuffix(payload, "\n\n")
		if !ok || !ok2 || strings.Contains(payload, "\n") {
			t.Fatalf("event %d: malformed frame %q", ev.Seq, frame)
		}
		if payload != string(want) {
			t.Errorf("event %d payload:\n got: %s\nwant: %s", ev.Seq, payload, want)
		}
	}
}

// streamEvents decodes an SSE byte stream (a replay, or frames read off a
// subscriber channel) back into its events.
func streamEvents(t *testing.T, b []byte) []Event {
	t.Helper()
	var evs []Event
	for _, line := range strings.Split(string(b), "\n") {
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatalf("event %q: %v", data, err)
		}
		evs = append(evs, ev)
	}
	return evs
}

// TestSubscribeBetweenTerminalStateAndEvent subscribes in the window where
// finishJob has stored the terminal state but not yet emitted the terminal
// event: the subscriber must still get a live channel and exactly one
// terminal event, and a subscriber arriving after it gets it by replay.
func TestSubscribeBetweenTerminalStateAndEvent(t *testing.T) {
	j := &Job{ID: "r-000001"}
	j.emit("queued", nil)
	j.emit("started", nil)
	j.state.Store(int32(StateDone)) // finishJob: state first ...

	replay, ch, cancel := j.subscribe(4)
	defer cancel()
	if ch == nil {
		t.Fatal("subscriber in the state-before-event window got no channel: its stream ends without the terminal event")
	}
	j.emit("done", nil) // ... terminal event second

	var terminal int
	for _, ev := range streamEvents(t, replay) {
		if ev.terminal() {
			terminal++
		}
	}
	select {
	case frame := <-ch:
		if evs := streamEvents(t, frame); len(evs) != 1 || evs[0].Type != "done" {
			t.Fatalf("live frame %q, want the done event", frame)
		}
		terminal++
	default:
		t.Fatal("terminal event never reached the subscriber's channel")
	}
	if _, open := <-ch; open || terminal != 1 {
		t.Fatalf("subscriber saw %d terminal events, channel still open: %v; want exactly 1 and a closed channel", terminal, open)
	}

	late, lateCh, lateCancel := j.subscribe(4)
	defer lateCancel()
	if evs := streamEvents(t, late); lateCh != nil || len(evs) != 3 || evs[2].Type != "done" {
		t.Fatalf("late subscriber: channel %v, replay %+v; want nil channel and the full replay", lateCh, evs)
	}
}

// TestSubscribeAfterMisorderedTerminalEvent: a terminal event that is not
// the last one recorded (here the order a descheduled submitter used to
// produce: the worker's started, rep, done, then the late queued) still
// ends the stream — nothing can follow it on a channel, so a subscriber
// handed one would wait forever.
//
//sync4:covers SYNC4-SERVE-012
func TestSubscribeAfterMisorderedTerminalEvent(t *testing.T) {
	j := &Job{ID: "r-000001"}
	for _, typ := range []string{"started", "rep", "done", "queued"} {
		j.emit(typ, nil)
	}
	replay, ch, cancel := j.subscribe(4)
	defer cancel()
	if ch != nil {
		t.Fatal("replay holds the terminal event, yet the subscriber got a live channel: its stream never ends")
	}
	if evs := streamEvents(t, replay); len(evs) != 4 {
		t.Fatalf("replay = %+v, want all 4 events", evs)
	}
}

// TestCancelLeavesNoChannelReachable: a subscriber that leaves before the
// job ends must not stay reachable from the job's subscriber slice, in its
// live part or in the backing array's tail, or every departed subscriber's
// buffered channel lives as long as the job.
func TestCancelLeavesNoChannelReachable(t *testing.T) {
	j := &Job{ID: "r-000001"}
	j.emit("queued", nil)
	_, a, cancelA := j.subscribe(4)
	_, b, cancelB := j.subscribe(4)
	for _, c := range []struct {
		ch     chan []byte
		cancel func()
	}{{a, cancelA}, {b, cancelB}} {
		c.cancel()
		j.mu.Lock()
		slots := j.subs[:cap(j.subs)]
		j.mu.Unlock()
		if slices.Contains(slots, c.ch) {
			t.Fatalf("canceled channel still in the subscriber slots %v", slots)
		}
	}
}

// serveStream runs one in-process GET /runs/{id}/events to the end of the
// stream (or ctx) and returns the events in wire order.
func serveStream(ctx context.Context, h http.Handler, id string) ([]Event, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/runs/"+id+"/events", nil).WithContext(ctx))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET /runs/%s/events = %d", id, rec.Code)
	}
	var evs []Event
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return nil, fmt.Errorf("run %s: event %q: %v", id, data, err)
		}
		evs = append(evs, ev)
	}
	return evs, ctx.Err()
}

// submitAndFollow posts one spec in process (retrying while the ring is
// full), reads the job's event stream to its end and checks the order
// guarantee: queued at seq 0, seqs 0..n-1, one terminal event, in last
// place, and a stream that closes by itself.
func submitAndFollow(h http.Handler, spec string) error {
	var id string
	for id == "" {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/runs", strings.NewReader(spec)))
		switch rec.Code {
		case http.StatusAccepted:
			var body struct{ ID string }
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.ID == "" {
				return fmt.Errorf("POST /runs body %q: %v", rec.Body, err)
			}
			id = body.ID
		case http.StatusTooManyRequests:
			runtime.Gosched() // ring full: let the workers drain it
		default:
			return fmt.Errorf("POST /runs = %d (%s)", rec.Code, rec.Body)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	evs, err := serveStream(ctx, h, id)
	if err != nil {
		return fmt.Errorf("run %s: stream did not close (%v); events %+v", id, err, evs)
	}
	if len(evs) < 2 || evs[0].Type != "queued" || !evs[len(evs)-1].terminal() {
		return fmt.Errorf("run %s: stream %+v, want queued first and a terminal event last", id, evs)
	}
	for seq, ev := range evs {
		if ev.Seq != seq || (ev.terminal() && seq != len(evs)-1) {
			return fmt.Errorf("run %s: stream %+v, want seq 0..%d and one terminal event", id, evs, len(evs)-1)
		}
	}
	return nil
}

// TestEventStreamOrderUnderInstantJobs pushes a few thousand jobs that
// finish the moment a worker touches them through POST /runs and
// GET /runs/{id}/events, with more clients than CPUs and the collector
// preempting everyone, so a submitter regularly loses the CPU between
// publishing its job and returning. Every stream must still pass
// submitAndFollow's checks.
//
//sync4:covers SYNC4-SERVE-012
func TestEventStreamOrderUnderInstantJobs(t *testing.T) {
	bench := &gatedBench{name: "instant"} // nil gate: Run returns at once
	s, _ := newTestServer(t, Config{
		Workers: 2, QueueCapacity: 64, TraceCapacity: 16,
		Resolver: func(string) (core.Benchmark, error) { return bench, nil },
	})
	h := s.Handler()

	stopGC := make(chan struct{})
	var gcWG sync.WaitGroup
	gcWG.Add(1)
	go func() {
		defer gcWG.Done()
		for {
			select {
			case <-stopGC:
				return
			default:
				runtime.GC() // stop-the-world preempts submitters at arbitrary points
			}
		}
	}()

	const clients, perClient = 8, 300
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func() {
			for i := 0; i < perClient; i++ {
				spec := fmt.Sprintf(`{"workload":"instant","kit":"lockfree","threads":1,"seed":%d}`, c*perClient+i)
				if err := submitAndFollow(h, spec); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	close(stopGC)
	gcWG.Wait()
}
