package server

import (
	"net/http"
	"sort"
	"time"

	"repro/internal/resultstore"
)

// handleJobs is GET /jobs: every job this node knows about — live jobs in
// the local pipeline, this node's journaled history, and (when cluster
// hooks are installed) every peer's replicated journal — one summary per
// job ID, sorted by ID. On a caught-up cluster the listing is the same
// from every node, which is what makes any node a valid entry point for
// dashboards and the load generator.
//
// Query parameters: workload and kit filter; limit caps the result count
// after sorting (default unlimited).
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	workload, kit := q.Get("workload"), q.Get("kit")
	limit, err := intParam(q.Get("limit"), 0)
	if err != nil || limit < 0 {
		writeError(w, http.StatusBadRequest, "bad limit")
		return
	}

	// Journaled history first (local, then replicas), live view last: a job
	// that is both journaled and still in the jobs map (just finished) keeps
	// the live summary, which carries the freshest state.
	byID := make(map[string]map[string]any)
	add := func(rec resultstore.Record) {
		byID[rec.ID] = recordSummary(rec)
	}
	for _, rec := range s.store.All() {
		add(rec)
	}
	if h := s.hooks.Load(); h != nil && h.Records != nil {
		for _, rec := range h.Records() {
			add(rec)
		}
	}
	s.mu.Lock()
	live := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		live = append(live, j)
	}
	s.mu.Unlock()
	for _, j := range live {
		byID[j.ID] = jobSummary(j, s.cfg.NodeID)
	}

	out := make([]map[string]any, 0, len(byID))
	for _, v := range byID {
		if workload != "" && v["workload"] != workload {
			continue
		}
		if kit != "" && v["kit"] != kit {
			continue
		}
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i]["id"].(string) < out[j]["id"].(string)
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	writeJSON(w, http.StatusOK, map[string]any{"count": len(out), "jobs": out})
}

// recordSummary renders one journal record as a /jobs entry. Journal
// status "ok" maps to the job-lifecycle vocabulary ("done").
func recordSummary(rec resultstore.Record) map[string]any {
	status := rec.Status
	if status == "ok" {
		status = "done"
	}
	v := map[string]any{
		"id":       rec.ID,
		"status":   status,
		"workload": rec.Workload,
		"kit":      rec.Kit,
		"threads":  rec.Threads,
		"scale":    rec.Scale,
		"reps":     rec.Reps,
	}
	if rec.Node != "" {
		v["node"] = rec.Node
	}
	if !rec.Submitted.IsZero() {
		v["submitted"] = rec.Submitted.UTC().Format(time.RFC3339Nano)
	}
	if rec.Status == "ok" {
		v["mean_ns"] = rec.MeanNS
	}
	if rec.Error != "" {
		v["error"] = rec.Error
	}
	return v
}

// jobSummary renders one job of the jobs map as a /jobs entry, from its
// scalar fields alone, which a frozen job keeps.
func jobSummary(j *Job, nodeID string) map[string]any {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := map[string]any{
		"id":        j.ID,
		"status":    j.State().String(),
		"workload":  j.Spec.Workload,
		"kit":       j.Spec.Kit,
		"threads":   j.Spec.Threads,
		"scale":     j.Spec.Scale,
		"reps":      j.Spec.Reps,
		"submitted": j.Submitted.UTC().Format(time.RFC3339Nano),
	}
	if nodeID != "" {
		v["node"] = nodeID
	}
	if j.ranOn != "" {
		v["ran_on"] = j.ranOn
	}
	if j.errMsg != "" {
		v["error"] = j.errMsg
	}
	if j.State() == StateDone {
		v["mean_ns"] = j.result.MeanNS
	}
	return v
}
