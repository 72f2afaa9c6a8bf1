package cluster

import (
	"context"
	"errors"
	"io"
	"net/http"
	"time"

	"repro/internal/cluster/peernet"
	"repro/internal/splitmix"
)

// The composed peer-call path. Every peer exchange goes through call(),
// which layers, in order: breaker admission (an open breaker refuses
// without touching the network), the transport round trip, breaker
// outcome recording, and a budgeted retry loop with exponential backoff.
// The response body streams to the caller. What is retried is a policy of
// the endpoint:
//
//   - health, journal, stolen-probe: idempotent reads — retried under the
//     budget;
//   - steal: a failed donation round trip is simply dropped (the stealer
//     asks again next tick, and an undelivered donation is the victim's
//     reclaim deadline's problem) — never retried;
//   - complete: a failed completion is never retried blind; the thief
//     first re-probes whether the victim still awaits the result (see
//     runStolen), which preserves the retry contract of the admission API
//     cluster-side;
//   - forward: one attempt, breaker-gated; a failed hop falls back to
//     local admission, which beats a retry in both latency and semantics.

// errBreakerOpen is returned without a network attempt while a peer's
// breaker refuses exchanges.
var errBreakerOpen = errors.New("cluster: peer breaker is open")

// retryableEndpoint reports whether an endpoint is an idempotent read the
// call path may retry on its own.
func retryableEndpoint(ep string) bool {
	switch ep {
	case peernet.EndpointHealth, peernet.EndpointJournal, peernet.EndpointStolenQ:
		return true
	}
	return false
}

// endpointIndex maps an endpoint to its slot in per-endpoint counter
// arrays (the canonical peernet.Endpoints order).
func endpointIndex(ep string) int {
	for i, e := range peernet.Endpoints {
		if e == ep {
			return i
		}
	}
	return -1
}

// call performs one peer exchange through the breaker/retry stack.
// Health probes bypass breaker admission and recording: they are the
// liveness oracle the rest of the layer keys off, and must keep flowing
// while everything else is refused. The caller closes the returned body.
func (c *Cluster) call(ctx context.Context, p *peer, endpoint, method, path string, hdr http.Header, body []byte) (*peernet.PeerResponse, error) {
	pc := &peernet.PeerCall{
		Peer: p.id, Endpoint: endpoint, Method: method,
		URL: p.base + path, Header: hdr, Body: body,
	}
	gated := endpoint != peernet.EndpointHealth
	retryable := retryableEndpoint(endpoint)
	var lastResp *peernet.PeerResponse
	var lastErr error
	for attempt := 0; ; attempt++ {
		if gated && !p.brk.admit(time.Now()) {
			if attempt == 0 {
				return nil, errBreakerOpen
			}
			return lastResp, lastErr
		}
		resp, err := c.transport.RoundTrip(ctx, pc)
		failure := err != nil || resp.Status >= http.StatusInternalServerError
		if gated {
			p.brk.record(time.Now(), failure)
		}
		if !failure || !retryable || attempt >= c.retryMax() || ctx.Err() != nil || !p.budget.take(time.Now()) {
			return resp, err
		}
		if resp != nil {
			// The retry supersedes this answer: drain and close its body so
			// the connection goes back to the pool, and keep only its status
			// in case no further attempt is admitted.
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
			_ = resp.Body.Close()
			resp.Body = http.NoBody
		}
		lastResp, lastErr = resp, err
		if i := endpointIndex(endpoint); i >= 0 {
			c.retries[i].v.Add(1)
		}
		timer := time.NewTimer(c.backoff(attempt))
		select {
		case <-ctx.Done():
			timer.Stop()
			return lastResp, lastErr
		case <-timer.C:
		}
	}
}

// retryMax resolves the per-exchange retry cap: RetryMax retries beyond
// the first attempt, default 2, negative disables.
func (c *Cluster) retryMax() int {
	if c.cfg.RetryMax < 0 {
		return 0
	}
	return c.cfg.RetryMax
}

// backoff returns the exponential delay before retry number attempt+1,
// with deterministic jitter in [0.5, 1.0] of the step so synchronized
// loops de-correlate without a global random source.
func (c *Cluster) backoff(attempt int) time.Duration {
	base := c.cfg.RetryBaseDelay
	step := base << uint(attempt)
	if max := 32 * base; step > max {
		step = max
	}
	h := splitmix.Mix(c.jitterSeq.Add(1))
	frac := 0.5 + 0.5*float64(h>>11)/(1<<53)
	return time.Duration(float64(step) * frac)
}
