package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
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

// TestSSEEncoderMatchesJSON checks the hand-rolled payload is semantically
// identical to encoding/json's for every corpus event: same frame shape,
// and a payload that unmarshals to the same value. Byte equality is also
// required except where encoding/json HTML-escapes (none of the corpus
// triggers it) — sorted keys make the output deterministic.
func TestSSEEncoderMatchesJSON(t *testing.T) {
	for _, ev := range sseCorpus() {
		frame := sseFrameString(ev)
		wantPayload, err := json.Marshal(ev)
		if err != nil {
			t.Fatalf("json.Marshal(%+v): %v", ev, err)
		}
		wantFrame := fmt.Sprintf("id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, wantPayload)

		// Semantic equality of the data payload.
		gotPayload, ok := strings.CutPrefix(frame, fmt.Sprintf("id: %d\nevent: %s\ndata: ", ev.Seq, ev.Type))
		if !ok || !strings.HasSuffix(gotPayload, "\n\n") {
			t.Fatalf("event %d: malformed frame %q", ev.Seq, frame)
		}
		gotPayload = strings.TrimSuffix(gotPayload, "\n\n")
		var gotVal, wantVal any
		if err := json.Unmarshal([]byte(gotPayload), &gotVal); err != nil {
			t.Fatalf("event %d: payload %q is not valid JSON: %v", ev.Seq, gotPayload, err)
		}
		if err := json.Unmarshal(wantPayload, &wantVal); err != nil {
			t.Fatalf("event %d: reference payload: %v", ev.Seq, err)
		}
		if !reflect.DeepEqual(gotVal, wantVal) {
			t.Errorf("event %d payload mismatch:\n got: %s\nwant: %s", ev.Seq, gotPayload, wantPayload)
		}
		// Byte-for-byte framing equality for the corpus (no HTML-escaping
		// triggers in it, so this should hold exactly).
		if frame != wantFrame {
			t.Errorf("event %d frame mismatch:\n got: %q\nwant: %q", ev.Seq, frame, wantFrame)
		}
	}
}

// TestSSEEncoderUnsupported pins the graceful-degradation contract: unknown
// dynamic types render as a placeholder string instead of panicking.
func TestSSEEncoderUnsupported(t *testing.T) {
	frame := sseFrameString(Event{Seq: 1, Type: "x", Data: map[string]any{"ch": make(chan int)}})
	if !strings.Contains(frame, `"ch":"<unsupported>"`) {
		t.Fatalf("unsupported value not rendered as placeholder: %q", frame)
	}
}

// TestSSEEncoderZeroAlloc is the dynamic half of the //sync4:zeroalloc
// annotation on encode: after warm-up, encoding a steady stream of events
// allocates nothing. (internal/allocgate cross-checks that this test exists
// for the annotation it cannot probe from outside the package.)
func TestSSEEncoderZeroAlloc(t *testing.T) {
	enc := newSSEEncoder()
	events := sseCorpus()
	// Warm the buffer past the largest event.
	for _, ev := range events {
		enc.encode(ev)
	}
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		enc.encode(events[i%len(events)])
		i++
	})
	if avg != 0 {
		t.Fatalf("sseEncoder.encode allocates %.1f times per event; want 0", avg)
	}
}

// BenchmarkSSEEncode measures the streaming hot path as shipped; the
// stdlib variant below replays the pre-encoder implementation
// (json.Marshal + fmt.Fprintf per event) for the before/after numbers in
// EXPERIMENTS.md.
func BenchmarkSSEEncode(b *testing.B) {
	enc := newSSEEncoder()
	events := sseCorpus()
	for _, ev := range events {
		enc.encode(ev)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.encode(events[i%len(events)])
	}
}

func BenchmarkSSEEncodeStdlibJSON(b *testing.B) {
	events := sseCorpus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := events[i%len(events)]
		payload, err := json.Marshal(ev)
		if err != nil {
			b.Fatal(err)
		}
		fmt.Fprintf(io.Discard, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, payload)
	}
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
	for _, ev := range replay {
		if ev.terminal() {
			terminal++
		}
	}
	select {
	case ev := <-ch:
		if ev.Type != "done" {
			t.Fatalf("live event %q, want done", ev.Type)
		}
		terminal++
	default:
		t.Fatal("terminal event never reached the subscriber's channel")
	}
	if terminal != 1 || len(ch) != 0 {
		t.Fatalf("subscriber saw %d terminal events (+%d queued), want exactly 1", terminal, len(ch))
	}

	late, lateCh, lateCancel := j.subscribe(4)
	defer lateCancel()
	if lateCh != nil || len(late) != 3 || late[2].Type != "done" {
		t.Fatalf("late subscriber: channel %v, replay %+v; want nil channel and the full replay", lateCh, late)
	}
}
