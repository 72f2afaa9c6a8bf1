package server

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/splitmix"
)

// retryAfter parses a 429/503's Retry-After header and enforces the
// documented contract (docs/SERVICE.md): present, integer seconds, within
// the daemon's [1, 30] clamp.
func retryAfter(resp *http.Response) (int, error) {
	raw := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(raw)
	if err != nil || secs < 1 || secs > 30 {
		return 0, fmt.Errorf("%d with Retry-After %q, want an integer in [1, 30]", resp.StatusCode, raw)
	}
	return secs, nil
}

// submitRetrying is the client docs/SERVICE.md describes: it POSTs spec
// and, on 429/503, waits out the advised Retry-After (perSec of real time
// per advised second) and resubmits the identical spec until it is admitted
// or the deadline passes. It returns the job id, whether the answer was a
// singleflight 200, and how many times it was bounced.
func submitRetrying(base, spec string, perSec time.Duration, deadline time.Time) (id string, deduped bool, bounces int, err error) {
	for time.Now().Before(deadline) {
		resp, err := http.Post(base+"/runs", "application/json", strings.NewReader(spec))
		if err != nil {
			return "", false, bounces, err
		}
		body, _ := io.ReadAll(resp.Body) // a short read fails the decode below
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted, http.StatusOK:
			var view struct {
				ID      string `json:"id"`
				Deduped bool   `json:"deduped"`
			}
			if err := json.Unmarshal(body, &view); err != nil || view.ID == "" {
				return "", false, bounces, fmt.Errorf("%d without a job id: %s", resp.StatusCode, body)
			}
			if view.Deduped != (resp.StatusCode == http.StatusOK) {
				return "", false, bounces, fmt.Errorf("status %d with deduped=%v", resp.StatusCode, view.Deduped)
			}
			return view.ID, view.Deduped, bounces, nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			bounces++
			secs, err := retryAfter(resp)
			if err != nil {
				return "", false, bounces, err
			}
			time.Sleep(time.Duration(secs) * perSec)
		default:
			return "", false, bounces, fmt.Errorf("unexpected status %d: %s", resp.StatusCode, body)
		}
	}
	return "", false, bounces, fmt.Errorf("still bouncing at the deadline after %d tries", bounces)
}

// arrival is one scheduled submission: its offset from the run start and
// the job seed. Arrivals sharing a seed are identical submissions.
type arrival struct {
	atNS int64
	seed int64
}

// unit draws a uniform value in [0, 1) from the stream in *state.
func unit(state *uint64) float64 {
	return float64(splitmix.Next(state)>>11) / (1 << 53)
}

// sortArrivals orders a schedule by arrival time; the sort is stable, so
// the schedule is fully determined by its seed.
func sortArrivals(sched []arrival) []arrival {
	slices.SortStableFunc(sched, func(a, b arrival) int { return cmp.Compare(a.atNS, b.atNS) })
	return sched
}

// burstSchedule compresses 80% of n arrivals into four bursts, each 2% of
// the span wide; the rest trickle across the window. Every arrival is a
// distinct job, so the bursts overrun the admission ring and exercise 429 +
// Retry-After.
func burstSchedule(n int, spanNS int64, seed uint64) []arrival {
	const bursts = 4
	sched := make([]arrival, n)
	for i := range sched {
		var at int64
		if i%5 == 0 { // the 20% background trickle
			at = int64(unit(&seed) * float64(spanNS))
		} else {
			b := int64(splitmix.Next(&seed) % bursts)
			at = b*spanNS/bursts + int64(unit(&seed)*float64(spanNS/50))
		}
		sched[i] = arrival{atNS: at, seed: int64(i + 1)}
	}
	return sortArrivals(sched)
}

// dedupClump is the size of a dedup-hostile clump of identical specs.
const dedupClump = 8

// dedupSchedule emits clumps of dedupClump identical specs, each clump
// landing inside 1% of the span, spread across the span: while the first of
// a clump is still queued or running, the rest must be answered by
// singleflight.
func dedupSchedule(n int, spanNS int64, seed uint64) []arrival {
	sched := make([]arrival, n)
	clumps := int64((n + dedupClump - 1) / dedupClump)
	for i := range sched {
		c := int64(i / dedupClump)
		at := c*spanNS/clumps + int64(unit(&seed)*float64(spanNS)/100)
		sched[i] = arrival{atNS: at, seed: c + 1}
	}
	return sortArrivals(sched)
}

// TestRetryContractUnderBurstAndDedupTraffic replays seeded burst and
// dedup-hostile schedules at a real-suite server small enough to
// overflow (one worker over a capacity-2 ring), through submitRetrying.
// Bursts must provoke real backpressure, clumps of identical specs must be
// answered by singleflight, and nothing may be lost: every request ends on
// a job that reaches done, and every created job is journaled once.
func TestRetryContractUnderBurstAndDedupTraffic(t *testing.T) {
	const (
		requests = 64
		spanNS   = 200e6                // arrivals replayed in real time
		perSec   = 5 * time.Millisecond // honored wait per advised second
	)
	for _, shape := range []struct {
		name  string
		sched []arrival
	}{
		{"burst", burstSchedule(requests, spanNS, 42)},
		{"dedup_hostile", dedupSchedule(requests, spanNS, 42)},
	} {
		t.Run(shape.name, func(t *testing.T) {
			sched := shape.sched
			// The schedule must replay in order inside the span, and each
			// dedup clump must be one spec: a sorted run of dedupClump
			// arrivals sharing a seed.
			for i, a := range sched {
				if a.atNS < 0 || a.atNS >= spanNS || i > 0 && a.atNS < sched[i-1].atNS {
					t.Fatalf("arrival %d at %d: out of order or outside [0, %d)", i, a.atNS, int64(spanNS))
				}
				if shape.name == "dedup_hostile" && a.seed != int64(i/dedupClump+1) {
					t.Fatalf("arrival %d has seed %d, want its clump's seed %d", i, a.seed, i/dedupClump+1)
				}
			}
			s, store := newTestServer(t, Config{Workers: 1, QueueCapacity: 2})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			var created, deduped, bounced atomic.Int64
			ids := make([]string, len(sched))
			start := time.Now()
			deadline := start.Add(60 * time.Second)
			var wg sync.WaitGroup
			for i, req := range sched {
				wg.Add(1)
				go func(i int, req arrival) {
					defer wg.Done()
					time.Sleep(time.Until(start.Add(time.Duration(req.atNS))))
					spec := fmt.Sprintf(`{"workload":"fft","kit":"lockfree","threads":1,"scale":"test","seed":%d}`, req.seed)
					id, dup, bounces, err := submitRetrying(ts.URL, spec, perSec, deadline)
					bounced.Add(int64(bounces))
					if err != nil {
						t.Errorf("request %d: %v", i, err)
						return
					}
					if dup {
						deduped.Add(1)
					} else {
						created.Add(1)
					}
					ids[i] = id
				}(i, req)
			}
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}

			for _, id := range ids {
				waitStatus(t, ts, id, "done")
			}
			if int64(store.Len()) != created.Load() {
				t.Errorf("journal holds %d records for %d created jobs", store.Len(), created.Load())
			}
			t.Logf("%s: %d created, %d deduped, %d bounced", shape.name, created.Load(), deduped.Load(), bounced.Load())
			switch shape.name {
			case "burst":
				if bounced.Load() == 0 {
					t.Error("burst never overflowed the ring: no 429 observed, the Retry-After contract went unexercised")
				}
			case "dedup_hostile":
				if deduped.Load() == 0 {
					t.Error("no deduped answer: clumps of identical in-flight specs were never coalesced")
				}
			}
		})
	}
}
