package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one interval the benchmark recorded around a call into a layer.
// Spans of one job or one program run share Group; Parent is the ID of the
// span that caused this one (0 for a root). Times are nanoseconds since the
// tracer's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Group  string `json:"group"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the workload ends. A nil tracer is the
// untraced run: every method is a no-op, so call sites do not branch.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records one closed interval and returns its ID for use as a parent.
func (t *tracer) add(group, name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	return t.addNS(group, name, parent, start.Sub(t.epoch).Nanoseconds(), end.Sub(t.epoch).Nanoseconds())
}

func (t *tracer) addNS(group, name string, parent int, startNS, endNS int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Group: group, Name: name, Start: startNS, End: endNS})
	return id
}

// since converts an instant to the tracer's clock.
func (t *tracer) since(at time.Time) int64 {
	if t == nil {
		return 0
	}
	return at.Sub(t.epoch).Nanoseconds()
}

// selfTimes returns each span's self time by ID: its duration minus the part
// of its interval that its child spans cover. Children may overlap each
// other and may stick out of the parent; the covered part is the union of
// the children clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// selfByName groups self times (in nanoseconds) by span name.
func (t *tracer) selfByName() map[string][]float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	out := make(map[string][]float64)
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(self[s.ID]))
	}
	return out
}

// write stores the spans as benchmark/out/trace-<workload>.json.
func (t *tracer) write(dir, workload string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(map[string]any{"workload": workload, "spans": t.spans})
	if err != nil {
		return "", fmt.Errorf("encoding trace: %w", err)
	}
	return path, os.WriteFile(path, data, 0o644)
}
