package resultstore

import (
	"bytes"
	"math"
	"time"

	"repro/internal/telemetry"
)

// decodeLine is AddLine's fast path: a one-pass decoder, without
// reflection, for the line shape Store.Append writes, which is
// encoding/json's output for a Record. That shape is one object whose keys
// are spelled exactly as the struct tags spell them, each at most once,
// with no whitespace. Its strings are printable ASCII with nothing escaped,
// its numbers are integers in range, times_ns is an array or null, and
// spans is an array of telemetry.Span's wire form. The time fields go
// through time.Time's own UnmarshalJSON.
//
// Anything else is declined (ok false), and AddLine hands the line to
// json.Unmarshal, which stays the authority: a line this accepts decodes
// to exactly the record json.Unmarshal makes of it (FuzzAddLine holds it
// to that). A record without an ID is declined too, so the malformed
// verdict is always json.Unmarshal's.
func decodeLine(line []byte) (r Record, ok bool) {
	d := lineDecoder{b: line}
	if !d.record(&r) || d.i != len(line) || r.ID == "" {
		return Record{}, false
	}
	return r, true
}

// lineDecoder reads b from offset i. Each method consumes one value and
// reports whether it had the fast path's shape.
type lineDecoder struct {
	b []byte
	i int
}

// record decodes a Record object.
func (d *lineDecoder) record(r *Record) bool {
	_, ok := d.object(func(key []byte) (uint32, bool) {
		switch string(key) {
		case "id":
			return 1 << 0, d.string(&r.ID)
		case "workload":
			return 1 << 1, d.string(&r.Workload)
		case "kit":
			return 1 << 2, d.string(&r.Kit)
		case "threads":
			return 1 << 3, d.int(&r.Threads)
		case "scale":
			return 1 << 4, d.string(&r.Scale)
		case "seed":
			return 1 << 5, d.int64(&r.Seed)
		case "reps":
			return 1 << 6, d.int(&r.Reps)
		case "node":
			return 1 << 7, d.string(&r.Node)
		case "submitted":
			return 1 << 8, d.time(&r.Submitted)
		case "started":
			return 1 << 9, d.time(&r.Started)
		case "finished":
			return 1 << 10, d.time(&r.Finished)
		case "status":
			return 1 << 11, d.string(&r.Status)
		case "error":
			return 1 << 12, d.string(&r.Error)
		case "times_ns":
			// Append writes a nil slice as null, which leaves TimesNS nil;
			// [] makes it empty but not nil, as encoding/json does.
			if d.null() {
				return 1 << 13, true
			}
			r.TimesNS = make([]int64, 0, d.count(',')+1)
			return 1 << 13, d.array(func() bool {
				var ns int64
				ok := d.int64(&ns)
				r.TimesNS = append(r.TimesNS, ns)
				return ok
			})
		case "mean_ns":
			return 1 << 14, d.int64(&r.MeanNS)
		case "trace_events":
			return 1 << 15, d.int64(&r.TraceEvents)
		case "sync_ops":
			return 1 << 16, d.int64(&r.SyncOps)
		case "request_id":
			return 1 << 17, d.string(&r.RequestID)
		case "spans":
			r.Spans = make([]telemetry.Span, 0, d.count('{'))
			return 1 << 18, d.array(func() bool {
				var s telemetry.Span
				ok := d.span(&s)
				r.Spans = append(r.Spans, s)
				return ok
			})
		}
		return 0, false
	})
	return ok
}

// span decodes one span by telemetry.Span.UnmarshalJSON's rules: the phase
// must be a known name, and rep is -1 unless given.
func (d *lineDecoder) span(s *telemetry.Span) bool {
	s.Rep = -1
	seen, ok := d.object(func(key []byte) (uint32, bool) {
		switch string(key) {
		case "phase":
			name, ok := d.str()
			if !ok {
				return 0, false
			}
			s.Phase, ok = telemetry.PhaseByName(string(name))
			return 1 << 0, ok
		case "rep":
			return 1 << 1, d.int(&s.Rep)
		case "start_ns":
			return 1 << 2, d.int64(&s.Start)
		case "end_ns":
			return 1 << 3, d.int64(&s.End)
		case "trace_events":
			return 1 << 4, d.int64(&s.TraceEvents)
		case "blocked_ns":
			return 1 << 5, d.int64(&s.BlockedNS)
		}
		return 0, false
	})
	return ok && seen&1 != 0
}

// object decodes {"key":value,...}. field decodes the value of key and
// returns the key's bit; a key seen twice declines. object returns the
// bits of the keys seen.
func (d *lineDecoder) object(field func(key []byte) (bit uint32, ok bool)) (seen uint32, ok bool) {
	if !d.next('{') {
		return 0, false
	}
	if d.next('}') {
		return 0, true
	}
	for {
		key, ok := d.str()
		if !ok || !d.next(':') {
			return 0, false
		}
		bit, ok := field(key)
		if !ok || seen&bit != 0 {
			return 0, false
		}
		seen |= bit
		if d.next('}') {
			return seen, true
		}
		if !d.next(',') {
			return 0, false
		}
	}
}

// array decodes [elem,...], calling elem once per element.
func (d *lineDecoder) array(elem func() bool) bool {
	if !d.next('[') {
		return false
	}
	if d.next(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if d.next(']') {
			return true
		}
		if !d.next(',') {
			return false
		}
	}
}

// count returns how often sep occurs before the next ']', which sizes an
// array's slice to its elements: commas between integers, braces opening
// span objects. It only sizes; the decode that follows checks the array.
func (d *lineDecoder) count(sep byte) int {
	rest := d.b[d.i:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	return bytes.Count(rest, []byte{sep})
}

// str decodes a string that needs no unescaping and returns its bytes:
// printable ASCII without '"' or '\\'. Escapes, control bytes and
// non-ASCII bytes (which encoding/json would validate as UTF-8) decline.
func (d *lineDecoder) str() ([]byte, bool) {
	if !d.next('"') {
		return nil, false
	}
	for i := d.i; i < len(d.b); i++ {
		if c := d.b[i]; !plain[c] {
			if c != '"' {
				return nil, false
			}
			s := d.b[d.i:i]
			d.i = i + 1
			return s, true
		}
	}
	return nil, false
}

// plain holds the bytes str takes inside a string.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

func (d *lineDecoder) string(s *string) bool {
	b, ok := d.str()
	*s = string(b)
	return ok
}

// time hands a quoted string to time.Time.UnmarshalJSON, as encoding/json
// would, so the two cannot disagree on what a time is.
func (d *lineDecoder) time(t *time.Time) bool {
	start := d.i
	if _, ok := d.str(); !ok {
		return false
	}
	return t.UnmarshalJSON(d.b[start:d.i]) == nil
}

// int64 decodes an integer in JSON's syntax, an optional minus then 0 or
// digits without a leading zero, that fits in an int64. A fraction or an
// exponent is left unread, so the delimiter the caller expects next is
// missing and the line declines.
func (d *lineDecoder) int64(v *int64) bool {
	neg := d.next('-')
	end := d.i
	for end < len(d.b) && '0' <= d.b[end] && d.b[end] <= '9' {
		end++
	}
	digits := d.b[d.i:end]
	d.i = end
	// 19 digits cannot overflow the uint64 below; int64 has at most 19.
	if len(digits) == 0 || len(digits) > 19 || (digits[0] == '0' && len(digits) > 1) {
		return false
	}
	var u uint64
	for _, c := range digits {
		u = u*10 + uint64(c-'0')
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	if u > limit {
		return false
	}
	*v = int64(u)
	if neg {
		*v = -*v // for u == 1<<63 this wraps to math.MinInt64, as wanted
	}
	return true
}

func (d *lineDecoder) int(v *int) bool {
	var x int64
	if !d.int64(&x) || int64(int(x)) != x {
		return false
	}
	*v = int(x)
	return true
}

// next consumes c if it is the next byte.
func (d *lineDecoder) next(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// null consumes a null literal if one comes next.
func (d *lineDecoder) null() bool {
	if string(d.b[d.i:min(d.i+4, len(d.b))]) != "null" {
		return false
	}
	d.i += 4
	return true
}
