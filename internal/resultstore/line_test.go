package resultstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// daemonRec is rec as splash4d journals it: with the request ID and the span
// chain from admission through the last repetition, and, for a failed run,
// the error and no times.
func daemonRec(id, errMsg string, times ...int64) Record {
	r := rec(id, "radix", "lockfree", times...)
	r.Node, r.RequestID, r.TraceEvents, r.SyncOps = "n1", "req-"+id, 42, 1234
	r.Spans = []telemetry.Span{
		{Phase: telemetry.PhaseAdmission, Rep: -1, Start: 0, End: 1200},
		{Phase: telemetry.PhaseDedup, Rep: -1, Start: 1200, End: 1500},
		{Phase: telemetry.PhaseQueue, Rep: -1, Start: 1500, End: 9000},
		{Phase: telemetry.PhaseRep, Rep: 0, Start: 9000, End: 300000, TraceEvents: 42, BlockedNS: 700},
		{Phase: telemetry.PhaseRep, Rep: 1, Start: 300000, End: 590000},
	}
	if errMsg != "" {
		r.Status, r.Error = "error", errMsg
	}
	return r
}

// preloadedRec is a record as a preloaded cluster journal holds it: an
// owning node, no spans, times in UTC.
func preloadedRec() Record {
	r := rec("r-n1-p7", "fft", "classic", 61000, 59000, 60500)
	r.Node, r.Seed = "n1", 2718281828
	return r
}

// TestDecodeLineTakesAppendedLines: every shape Append writes takes the fast
// path, to the record json.Unmarshal makes of it. FuzzAddLine shows that the
// fast path never disagrees with json.Unmarshal; this shows it is taken.
func TestDecodeLineTakesAppendedLines(t *testing.T) {
	local := time.Date(2026, 3, 1, 12, 30, 45, 123456789, time.FixedZone("X", -7*3600))
	nanos := daemonRec("nanos", "", 5)
	nanos.Submitted, nanos.Started, nanos.Finished = local, local.Add(time.Microsecond), time.Now()
	empty := rec("empty", "fft", "classic")
	empty.TimesNS = []int64{}
	for _, r := range []Record{
		preloadedRec(),
		daemonRec("spans", "", 300000, 290000),
		daemonRec("failed", "verify: mismatch at 7"), // times_ns is null
		nanos,
		empty,
		rec("negative", "lu", "lockfree", -1, 0),
	} {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := decodeLine(line)
		if !ok {
			t.Errorf("fast path declined a line Append writes: %s", line)
			continue
		}
		var want Record
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("fast path decoded\n%+v\njson.Unmarshal decoded\n%+v\nfrom %s", got, want, line)
		}
	}
}

// FuzzAddLine holds AddLine's fast path to encoding/json: a line decodeLine
// accepts is one json.Unmarshal decodes without error to a DeepEqual record,
// and AddLine's malformed verdict and indexed record are those of the
// JSON-only rule. The seeds under testdata/fuzz/FuzzAddLine run with every
// go test; make fuzz searches beyond them.
func FuzzAddLine(f *testing.F) {
	f.Fuzz(func(t *testing.T, line []byte) {
		trimmed := bytes.TrimSpace(line)
		var want Record
		err := json.Unmarshal(trimmed, &want)
		if got, ok := decodeLine(trimmed); ok {
			if err != nil {
				t.Fatalf("fast path took a line json.Unmarshal rejects (%v): %s", err, trimmed)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("fast path decoded\n%+v\njson.Unmarshal decoded\n%+v\nfrom %s", got, want, trimmed)
			}
		}
		malformed := len(trimmed) > 0 && (err != nil || want.ID == "")
		ix := NewIndex()
		if got := ix.AddLine(line); got != malformed {
			t.Fatalf("AddLine's malformed verdict is %v, the JSON rule's %v, for %q", got, malformed, line)
		}
		wantLen := 0
		if len(trimmed) > 0 && !malformed {
			wantLen = 1
		}
		if recs := ix.All(); len(recs) != wantLen || (wantLen == 1 && !reflect.DeepEqual(recs[0], want)) {
			t.Fatalf("AddLine indexed %+v, the JSON rule %d record(s) %+v, for %q", recs, wantLen, want, line)
		}
	})
}

// BenchmarkAddLine times one journal line into an index, for a preloaded
// record and for a splash4d record with its span chain: through AddLine,
// and through json.Unmarshal then Add, which was AddLine before the fast
// path. Those cases reuse one index; fill indexes 2 000 preloaded lines
// into a fresh index per iteration, as a replay does, so it pays for the
// index's growth too.
func BenchmarkAddLine(b *testing.B) {
	b.Run("fill", func(b *testing.B) {
		lines := make([][]byte, 2000)
		for i := range lines {
			r := preloadedRec()
			r.ID = fmt.Sprintf("r-n1-p%d", i)
			r.Workload = []string{"fft", "lu", "radix", "ocean"}[i%4]
			r.Kit = []string{"classic", "lockfree"}[i/4%2]
			line, err := json.Marshal(r)
			if err != nil {
				b.Fatal(err)
			}
			lines[i] = line
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix := NewIndex()
			for _, line := range lines {
				ix.AddLine(line)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(lines)), "ns/line")
	})
	for _, tc := range []struct {
		name string
		r    Record
	}{
		{"preloaded", preloadedRec()},
		{"spans", daemonRec("r-n1-42", "", 300000, 290000)},
	} {
		line, err := json.Marshal(tc.r)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name+"/AddLine", func(b *testing.B) {
			benchIndex(b, func(ix *Index) { ix.AddLine(line) })
		})
		b.Run(tc.name+"/json", func(b *testing.B) {
			benchIndex(b, func(ix *Index) {
				var r Record
				if err := json.Unmarshal(line, &r); err != nil {
					b.Fatal(err)
				}
				ix.Add(r)
			})
		})
	}
}

// benchIndex runs add b.N times on an index it empties every 1024 lines, so
// that memory stays bounded at any b.N.
func benchIndex(b *testing.B, add func(ix *Index)) {
	ix := NewIndex()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%1024 == 0 {
			ix.Reset()
		}
		add(ix)
	}
}
