package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// Chrome trace-event export. The output is the JSON object form of the
// trace-event format ({"traceEvents": [...]}), loadable in Perfetto and
// chrome://tracing. Timestamps and durations are microseconds (the format's
// native unit); sub-microsecond spans keep their nanosecond precision as
// fractional values. Field order is fixed by the struct declarations below,
// so the output is byte-stable for golden tests.

// chromeEvent is one trace-event record. Complete events carry ph "X" with
// ts/dur; metadata events carry ph "M" with a name argument.
type chromeEvent struct {
	Name string      `json:"name"`
	Cat  string      `json:"cat,omitempty"`
	Ph   string      `json:"ph"`
	Ts   float64     `json:"ts"`
	Dur  *float64    `json:"dur,omitempty"`
	Pid  int         `json:"pid"`
	Tid  int         `json:"tid"`
	Args *chromeArgs `json:"args,omitempty"`
}

// chromeArgs is the fixed-shape argument payload; a struct rather than a
// map so marshalled key order never varies.
type chromeArgs struct {
	Name string `json:"name,omitempty"`
	Obj  string `json:"obj,omitempty"`
	Op   string `json:"op,omitempty"`
}

// chromeFile is the top-level JSON object.
type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// objLabel names an object id using the registry ("barrier#0", "queue#2");
// unregistered ids degrade to "obj#<id>".
func objLabel(objects []Object, id uint32) string {
	if int(id) < len(objects) {
		o := objects[id]
		return fmt.Sprintf("%s#%d", o.Family, o.Seq)
	}
	return fmt.Sprintf("obj#%d", id)
}

// WriteChrome writes the capture as Chrome trace-event JSON. label names the
// process row in the viewer (typically "<workload>/<kit>"); each lane
// becomes one thread row. Events are emitted lane by lane in record order,
// which within a pinned lane is start-time order.
func WriteChrome(w io.Writer, c *Capture, label string) error {
	f := chromeFile{
		TraceEvents:     make([]chromeEvent, 0, c.Events()+1+len(c.Lanes)),
		DisplayTimeUnit: "ms",
	}
	f.TraceEvents = append(f.TraceEvents, chromeEvent{
		Name: "process_name",
		Ph:   "M",
		Pid:  1,
		Args: &chromeArgs{Name: label},
	})
	for li := range c.Lanes {
		f.TraceEvents = append(f.TraceEvents, chromeEvent{
			Name: "thread_name",
			Ph:   "M",
			Pid:  1,
			Tid:  li,
			Args: &chromeArgs{Name: fmt.Sprintf("lane %d", li)},
		})
	}
	for li, lane := range c.Lanes {
		for _, ev := range lane {
			dur := float64(ev.Dur()) / 1e3
			f.TraceEvents = append(f.TraceEvents, chromeEvent{
				Name: ev.Op.String(),
				Cat:  objFamily(c.Objects, ev.Obj),
				Ph:   "X",
				Ts:   float64(ev.Start) / 1e3,
				Dur:  &dur,
				Pid:  1,
				Tid:  li,
				Args: &chromeArgs{Obj: objLabel(c.Objects, ev.Obj)},
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}

// objFamily returns the family name for an object id, used as the event
// category so the viewer can filter by construct.
func objFamily(objects []Object, id uint32) string {
	if int(id) < len(objects) {
		return objects[id].Family.String()
	}
	return "unknown"
}

// ValidateChrome parses data as trace-event JSON and checks the structural
// invariants the exporter guarantees: a traceEvents array, every event named
// with a known phase, complete events with non-negative microsecond ts/dur.
// splash4-trace runs this on every export before writing it.
func ValidateChrome(data []byte) error {
	var f struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			Ts   float64  `json:"ts"`
			Dur  *float64 `json:"dur"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("trace json: %w", err)
	}
	if f.TraceEvents == nil {
		return fmt.Errorf("trace json: no traceEvents array")
	}
	for i, ev := range f.TraceEvents {
		if ev.Name == "" {
			return fmt.Errorf("trace json: event %d has no name", i)
		}
		switch ev.Ph {
		case "X":
			if ev.Dur == nil {
				return fmt.Errorf("trace json: event %d (%s): complete event without dur", i, ev.Name)
			}
			if ev.Ts < 0 || *ev.Dur < 0 {
				return fmt.Errorf("trace json: event %d (%s): negative ts/dur", i, ev.Name)
			}
		case "M":
		default:
			return fmt.Errorf("trace json: event %d (%s): unexpected phase %q", i, ev.Name, ev.Ph)
		}
	}
	return nil
}
