package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/cluster/peernet"
	"repro/internal/splitmix"
)

// The composed peer-call path. Every peer exchange goes through call(),
// which layers, in order: breaker admission (an open breaker refuses
// without touching the network), the transport round trip (hedged for
// idempotent reads), breaker outcome recording, and a budgeted retry loop
// with exponential backoff that honors Retry-After. What is retried is a
// policy of the endpoint:
//
//   - health, journal, stolen-probe: idempotent reads — retried under the
//     budget and hedged with a second request when the first is slow;
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
// call path may retry and hedge on its own.
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

// call performs one peer exchange through the breaker/retry/hedge stack.
// Health probes bypass breaker admission and recording: they are the
// liveness oracle the rest of the layer keys off, and must keep flowing
// while everything else is refused. Responses of retryable endpoints come
// back with fully buffered bodies (hedging requires replayable responses);
// forward responses stream.
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
		var resp *peernet.PeerResponse
		var err error
		if retryable {
			resp, err = c.hedgedRoundTrip(ctx, pc)
		} else {
			resp, err = c.transport.RoundTrip(ctx, pc)
		}
		failure := err != nil || resp.Status >= http.StatusInternalServerError
		if gated {
			p.brk.record(time.Now(), failure)
		}
		if !failure && (resp == nil || resp.Status != http.StatusTooManyRequests) {
			return resp, err
		}
		lastResp, lastErr = resp, err
		if !retryable || attempt >= c.retryMax() || ctx.Err() != nil {
			return lastResp, lastErr
		}
		if !p.budget.take(time.Now()) {
			return lastResp, lastErr
		}
		if i := endpointIndex(endpoint); i >= 0 {
			c.retries[i].v.Add(1)
		}
		delay := c.backoff(attempt)
		if resp != nil {
			if ra := retryAfter(resp.Header); ra > 0 {
				delay = min(ra, c.cfg.HTTPTimeout)
			}
		}
		timer := time.NewTimer(delay)
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

// retryAfter parses a Retry-After header in delay-seconds form; 0 when
// absent or unparseable.
func retryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// hedgeResult is one transport attempt's outcome.
type hedgeResult struct {
	resp *peernet.PeerResponse
	err  error
}

// hedgedRoundTrip races a second identical request after HedgeAfter when
// the first has not answered: tail latency on idempotent reads becomes
// the better of two draws instead of a stall. The first success wins; the
// loser is cancelled. Bodies come back fully buffered so the caller never
// touches a cancelled stream.
func (c *Cluster) hedgedRoundTrip(ctx context.Context, pc *peernet.PeerCall) (*peernet.PeerResponse, error) {
	if c.cfg.HedgeAfter <= 0 {
		return bufferResponse(c.transport.RoundTrip(ctx, pc))
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	res := make(chan hedgeResult, 2)
	launch := func() {
		resp, err := bufferResponse(c.transport.RoundTrip(hctx, pc))
		res <- hedgeResult{resp, err}
	}
	go launch()
	pending := 1
	timer := time.NewTimer(c.cfg.HedgeAfter)
	defer timer.Stop()
	for {
		select {
		case r := <-res:
			pending--
			good := r.err == nil && r.resp.Status < http.StatusInternalServerError
			if good || pending == 0 {
				return r.resp, r.err
			}
			// Failed first answer with the hedge still in flight: its draw
			// may yet land, wait for it.
		case <-timer.C:
			c.hedgedTotal.v.Add(1)
			pending++
			go launch()
		}
	}
}

// bufferedBodyCap bounds one buffered peer response body; journal chunks
// (the largest peer payloads) stay well under it.
const bufferedBodyCap = 1 << 20

// bufferResponse drains a response body into memory and rewraps it, so the
// response survives the cancellation of its transport context. A declared
// Content-Length sizes the buffer up front. A read failure mid-body (a
// torn connection) is reported as a transport error.
func bufferResponse(resp *peernet.PeerResponse, err error) (*peernet.PeerResponse, error) {
	if err != nil || resp == nil {
		return resp, err
	}
	size, _ := strconv.Atoi(resp.Header.Get("Content-Length"))
	buf := bytes.NewBuffer(make([]byte, 0, min(max(size, 0), bufferedBodyCap)+bytes.MinRead))
	_, rerr := buf.ReadFrom(io.LimitReader(resp.Body, bufferedBodyCap))
	_ = resp.Body.Close()
	if rerr != nil {
		return nil, rerr
	}
	resp.Body = io.NopCloser(bytes.NewReader(buf.Bytes()))
	return resp, nil
}
