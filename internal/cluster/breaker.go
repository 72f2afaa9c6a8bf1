package cluster

import (
	"sync"
	"time"
)

// Per-peer circuit breaking and retry budgeting. A flapping or partitioned
// peer turns every exchange into a timeout; without a breaker each loop
// (prober, shipper, stealer, router) pays that timeout on every tick and
// the node's whole cluster layer slows to the sick peer's pace. The
// breaker converts repeated failure into fast local refusal, the retry
// budget caps how much extra traffic retries may add while things are
// bad, and both recover on their own: the breaker by letting one trial
// exchange through after a cooldown, the budget by refilling with time.

// Breaker and budget sizing, the same on every node: the breaker judges
// the failure rate of each peer's last breakerWindow outcomes once it
// holds breakerMinSamples; the retry bucket holds retryBurst tokens and
// mints one per retryRefill.
const (
	breakerWindow     = 20
	breakerMinSamples = 5
	retryBurst        = 10
	retryRefill       = 500 * time.Millisecond
)

// Breaker states, exposed as splash4d_peer_breaker_state.
const (
	breakerClosed int32 = iota
	breakerOpen
	breakerHalfOpen
)

// breakerStateName renders a state for logs.
func breakerStateName(s int32) string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker is one peer's failure-rate circuit breaker. Closed passes
// everything and tracks outcomes over a sliding window; when the window
// holds enough samples and at least half failed, the breaker opens and
// refuses exchanges without touching the network. After cooldown one trial
// exchange is admitted (half-open); its success closes the breaker, its
// failure reopens it for another cooldown. All methods are safe for
// concurrent use.
//
//sync4:req SYNC4-CLUS-004 v2 MUST An open circuit breaker fails peer exchanges immediately, without a network attempt, until its cooldown elapses; the first exchange admitted after cooldown is a half-open trial whose outcome alone decides between reopening and closing.
type breaker struct {
	mu          sync.Mutex
	state       int32
	window      []bool // outcome ring, true = failure
	n, idx      int
	fails       int
	until       time.Time // open: earliest half-open trial
	trialing    bool      // half-open: a trial is in flight
	cooldown    time.Duration
	minSamples  int
	transitions int64
}

// newBreaker sizes the window and cooldown; zero values take defaults.
func newBreaker(window, minSamples int, cooldown time.Duration) *breaker {
	if window <= 0 {
		window = breakerWindow
	}
	if minSamples <= 0 {
		minSamples = breakerMinSamples
	}
	if minSamples > window {
		minSamples = window
	}
	if cooldown <= 0 {
		cooldown = 2 * time.Second
	}
	return &breaker{window: make([]bool, window), minSamples: minSamples, cooldown: cooldown}
}

// admit reports whether an exchange may proceed now. An open breaker whose
// cooldown has elapsed moves to half-open and admits exactly one trial.
func (b *breaker) admit(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if now.Before(b.until) {
			return false
		}
		b.shift(breakerHalfOpen)
		b.trialing = true
		return true
	default: // half-open: one trial at a time
		if b.trialing {
			return false
		}
		b.trialing = true
		return true
	}
}

// record feeds one admitted exchange's outcome back.
func (b *breaker) record(now time.Time, failure bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		b.trialing = false
		if failure {
			b.open(now)
			return
		}
		b.reset()
		b.shift(breakerClosed)
	case breakerClosed:
		if b.n < len(b.window) {
			b.n++
		} else if b.window[b.idx] {
			b.fails--
		}
		b.window[b.idx] = failure
		if failure {
			b.fails++
		}
		b.idx = (b.idx + 1) % len(b.window)
		if b.n >= b.minSamples && b.fails*2 >= b.n {
			b.open(now)
		}
	default:
		// Open: a straggling outcome from before the trip; nothing to learn.
	}
}

// open trips the breaker and clears the window. Caller holds mu.
func (b *breaker) open(now time.Time) {
	b.reset()
	b.until = now.Add(b.cooldown)
	b.shift(breakerOpen)
}

// reset clears the outcome window. Caller holds mu.
func (b *breaker) reset() {
	for i := range b.window {
		b.window[i] = false
	}
	b.n, b.idx, b.fails = 0, 0, 0
	b.trialing = false
}

// shift moves to state s, counting the transition. Caller holds mu.
func (b *breaker) shift(s int32) {
	if b.state == s {
		return
	}
	b.state = s
	b.transitions++
}

// snapshot returns the current state and lifetime transition count.
func (b *breaker) snapshot() (state int32, transitions int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.transitions
}

// retryBudget is a token bucket bounding retry amplification per peer:
// first attempts are free, every retry (and every completion re-probe
// retry) spends one token, and tokens refill with time. When the bucket is
// dry the caller keeps the first attempt's failure — under a long outage
// retries stop adding traffic instead of multiplying it.
type retryBudget struct {
	mu     sync.Mutex
	tokens float64
	burst  float64
	refill time.Duration // time to mint one token
	last   time.Time
}

// newRetryBudget allows at most burst saved-up retries, refilling one
// token per refill interval; zero values take defaults.
func newRetryBudget(burst int, refill time.Duration) *retryBudget {
	if burst <= 0 {
		burst = retryBurst
	}
	if refill <= 0 {
		refill = retryRefill
	}
	return &retryBudget{tokens: float64(burst), burst: float64(burst), refill: refill}
}

// take spends one retry token, reporting false when the bucket is dry.
func (rb *retryBudget) take(now time.Time) bool {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	if !rb.last.IsZero() {
		rb.tokens += float64(now.Sub(rb.last)) / float64(rb.refill)
		if rb.tokens > rb.burst {
			rb.tokens = rb.burst
		}
	}
	rb.last = now
	if rb.tokens < 1 {
		return false
	}
	rb.tokens--
	return true
}
