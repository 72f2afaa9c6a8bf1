package loadgen

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/stats"
)

// SLO is the gate threshold set for one shape: latency ceilings at the
// median and the tail, plus the tolerable fraction of failed requests.
type SLO struct {
	P50MaxNS    int64   `json:"p50_max_ns"`
	P99MaxNS    int64   `json:"p99_max_ns"`
	ErrorBudget float64 `json:"error_budget"`
}

// ShapeReport is one shape's modeled outcome plus its verdict. All fields
// are derived from the schedule and the model — no wall-clock timestamps,
// so a pinned-seed report is byte-stable.
type ShapeReport struct {
	Shape    string `json:"shape"`
	Requests int    `json:"requests"`
	Accepted int    `json:"accepted"`
	Deduped  int    `json:"deduped"`
	// Rejected429 counts every 429 bounce; a request that bounced and then
	// got in is counted here and in Accepted.
	Rejected429 int `json:"rejected_429"`
	Errors      int `json:"errors"`

	P50NS  int64   `json:"p50_ns"`
	P99NS  int64   `json:"p99_ns"`
	MinNS  int64   `json:"min_ns"`
	MaxNS  int64   `json:"max_ns"`
	MeanNS float64 `json:"mean_ns"`

	MaxQueueDepth  int `json:"max_queue_depth,omitempty"`
	MaxRetryAfterS int `json:"max_retry_after_s,omitempty"`

	ErrorRate  float64  `json:"error_rate"`
	SLO        SLO      `json:"slo"`
	Pass       bool     `json:"pass"`
	Violations []string `json:"violations,omitempty"`
}

// Report is the full traffic-lab artifact (BENCH_traffic.json).
type Report struct {
	Mode     string `json:"mode"` // "sim": modeled, not measured
	Seed     uint64 `json:"seed"`
	Workers  int    `json:"workers"`
	QueueCap int    `json:"queue_cap"`
	// Requests and SpanNS echo the per-shape schedule sizing.
	Requests int   `json:"requests_per_shape"`
	SpanNS   int64 `json:"span_ns"`

	Shapes []ShapeReport `json:"shapes"`
	Pass   bool          `json:"pass"`
}

// Gate scores one shape's measurements against its SLO and returns the
// report entry with the verdict and each violated threshold spelled out.
func Gate(shape string, requests int, lat *stats.Histogram,
	accepted, deduped, rejected, errors int, slo SLO) ShapeReport {
	rep := ShapeReport{
		Shape:       shape,
		Requests:    requests,
		Accepted:    accepted,
		Deduped:     deduped,
		Rejected429: rejected,
		Errors:      errors,
		SLO:         slo,
	}
	if lat.N() > 0 {
		rep.P50NS = lat.Quantile(0.50)
		rep.P99NS = lat.Quantile(0.99)
		rep.MinNS = lat.Min()
		rep.MaxNS = lat.Max()
		rep.MeanNS = lat.Mean()
	}
	if requests > 0 {
		rep.ErrorRate = float64(errors) / float64(requests)
	}
	if slo.P50MaxNS > 0 && rep.P50NS > slo.P50MaxNS {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("p50 %dns exceeds SLO %dns", rep.P50NS, slo.P50MaxNS))
	}
	if slo.P99MaxNS > 0 && rep.P99NS > slo.P99MaxNS {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("p99 %dns exceeds SLO %dns", rep.P99NS, slo.P99MaxNS))
	}
	if rep.ErrorRate > slo.ErrorBudget {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("error rate %.4f exceeds budget %.4f", rep.ErrorRate, slo.ErrorBudget))
	}
	rep.Pass = len(rep.Violations) == 0
	return rep
}

// Finalize sets the report's overall verdict: every shape passed.
func (r *Report) Finalize() {
	r.Pass = true
	for _, s := range r.Shapes {
		if !s.Pass {
			r.Pass = false
		}
	}
}

// Encode renders the report deterministically: fixed field order (struct
// order), two-space indent, trailing newline.
func (r *Report) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteFile writes the report artifact.
func (r *Report) WriteFile(path string) error {
	b, err := r.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// SimSLOs returns the pinned thresholds for the deterministic model run.
// They are set with ~2× headroom over the pinned-seed measurements so the
// gate trips on regressions in the model or scheduler, not on noise —
// the model has none.
func SimSLOs(cfg SimConfig) map[string]SLO {
	svc := cfg.ServiceNS
	return map[string]SLO{
		// Steady load keeps the ring shallow: latency is a few service
		// times (queueing behind at most a couple of jobs).
		ShapeSteady: {P50MaxNS: 8 * svc, P99MaxNS: 30 * svc, ErrorBudget: 0},
		// Bursts overrun the ring by design; what is bounded is the tail
		// after Retry-After spreading, and a small give-up budget.
		ShapeBurst: {P50MaxNS: 30 * svc, P99MaxNS: 150 * svc, ErrorBudget: 0.02},
		// The diurnal peak is gentler than a burst but sustained.
		ShapeDiurnal: {P50MaxNS: 15 * svc, P99MaxNS: 80 * svc, ErrorBudget: 0.01},
		// Dedup-hostile traffic mostly coalesces; latency tracks the
		// underlying job, and nothing should error.
		ShapeDedupHostile: {P50MaxNS: 10 * svc, P99MaxNS: 40 * svc, ErrorBudget: 0},
	}
}
