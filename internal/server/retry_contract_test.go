package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/loadgen"
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

// TestRetryContractUnderBurstAndDedupTraffic replays the traffic lab's
// burst and dedup-hostile schedules at a real-suite server small enough to
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
	for _, shape := range []string{loadgen.ShapeBurst, loadgen.ShapeDedupHostile} {
		t.Run(shape, func(t *testing.T) {
			sched, err := loadgen.Schedule(loadgen.ScheduleConfig{
				Shape: shape, Requests: requests, SpanNS: spanNS, Seed: 42})
			if err != nil {
				t.Fatal(err)
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
				go func(i int, req loadgen.Request) {
					defer wg.Done()
					time.Sleep(time.Until(start.Add(time.Duration(req.AtNS))))
					// Requests sharing a SpecKey share a seed, which is what
					// makes them identical submissions.
					spec := fmt.Sprintf(`{"workload":"fft","kit":"lockfree","threads":1,"scale":"test","seed":%d}`, req.Seed)
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
			t.Logf("%s: %d created, %d deduped, %d bounced", shape, created.Load(), deduped.Load(), bounced.Load())
			switch shape {
			case loadgen.ShapeBurst:
				if bounced.Load() == 0 {
					t.Error("burst never overflowed the ring: no 429 observed, the Retry-After contract went unexercised")
				}
			case loadgen.ShapeDedupHostile:
				if deduped.Load() == 0 {
					t.Error("no deduped answer: clumps of identical in-flight specs were never coalesced")
				}
			}
		})
	}
}
