package resultstore

import (
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

func rec(id, workload, kit string, times ...int64) Record {
	var sum int64
	for _, t := range times {
		sum += t
	}
	var mean int64
	if len(times) > 0 {
		mean = sum / int64(len(times))
	}
	return Record{
		ID: id, Workload: workload, Kit: kit, Threads: 2, Scale: "test",
		Seed: 1, Reps: len(times), Status: "ok", TimesNS: times, MeanNS: mean,
		Submitted: time.Unix(100, 0).UTC(), Started: time.Unix(101, 0).UTC(),
		Finished: time.Unix(102, 0).UTC(),
	}
}

func TestAppendAndReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(rec("r1", "fft", "classic", 200, 210)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(rec("r2", "fft", "lockfree", 100, 110)); err != nil {
		t.Fatal(err)
	}
	// Records as splash4d journals them: a span chain with rep spans and a
	// request ID, and for the failed run an error that needs escaping.
	for _, r := range []Record{
		daemonRec("d1", "", 300, 290),
		daemonRec("d2", "verify: \"x\" != y\n<tag> & café"),
	} {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	appended := s.All()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the journal replays into an identical index.
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.All(); !reflect.DeepEqual(got, appended) {
		t.Fatalf("reopened store holds\n%+v\nwant what was appended\n%+v", got, appended)
	}
	r, ok := s2.ByID("r2")
	if !ok || r.Kit != "lockfree" || r.MeanNS != 105 {
		t.Fatalf("ByID(r2) = %+v, %v", r, ok)
	}
	k := Key{Workload: "fft", Kit: "classic", Threads: 2, Scale: "test"}
	if got := s2.TimesNS(k); len(got) != 2 || got[0] != 200 || got[1] != 210 {
		t.Fatalf("TimesNS(classic) = %v", got)
	}

	// And the reopened store accepts further appends.
	if err := s2.Append(rec("r3", "fft", "classic", 220)); err != nil {
		t.Fatal(err)
	}
	if got := s2.TimesNS(k); len(got) != 3 {
		t.Fatalf("pooled sample has %d entries after append, want 3", len(got))
	}
}

func TestTornLineIsSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(rec("r1", "radix", "classic", 500)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn final write from a crash.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":"r2","workload":"radix","ki`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 1 || s2.Skipped() != 1 {
		t.Fatalf("len=%d skipped=%d, want 1 and 1", s2.Len(), s2.Skipped())
	}
	// The store stays appendable after recovery, and the recovered journal
	// parses cleanly on the next open.
	if err := s2.Append(rec("r3", "radix", "classic", 510)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Len() != 2 {
		t.Fatalf("after recovery append, reopened store holds %d records, want 2", s3.Len())
	}
}

func TestFailedRunsExcludedFromSample(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ok := rec("ok", "lu", "classic", 300)
	bad := rec("bad", "lu", "classic", 1)
	bad.Status = "error"
	bad.Error = "verify: mismatch"
	if err := s.Append(ok); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(bad); err != nil {
		t.Fatal(err)
	}
	k := Key{Workload: "lu", Kit: "classic", Threads: 2, Scale: "test"}
	if got := s.TimesNS(k); len(got) != 1 || got[0] != 300 {
		t.Fatalf("TimesNS includes failed runs: %v", got)
	}
	if got := s.ByKey(k); len(got) != 2 {
		t.Fatalf("ByKey hides failed runs: %d records, want 2", len(got))
	}
}

func TestConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const writers, per = 8, 25
	var wg sync.WaitGroup
	wg.Add(writers)
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := rune('a' + w)
				if err := s.Append(rec(string(id), "fmm", "lockfree", int64(1000+i))); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s.Len() != writers*per {
		t.Fatalf("store holds %d records, want %d", s.Len(), writers*per)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != writers*per || s2.Skipped() != 0 {
		t.Fatalf("reopen found %d records (%d skipped), want %d clean",
			s2.Len(), s2.Skipped(), writers*per)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(rec("r1", "fft", "classic", 1)); err == nil {
		t.Fatal("append after close succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestAppendRequiresID(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r := rec("", "fft", "classic", 1)
	if err := s.Append(r); err == nil {
		t.Fatal("accepted record without ID")
	}
}

func TestReadJournalTailsToDurableWatermark(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append(rec("r1", "fft", "classic", 200)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(rec("r2", "fft", "lockfree", 100)); err != nil {
		t.Fatal(err)
	}
	durable := s.DurableSize()
	if durable <= 0 {
		t.Fatalf("durable watermark %d after two appends", durable)
	}

	// A follower tails in small chunks: concatenated reads reproduce the
	// journal bytes exactly, and reaching the watermark yields n == 0.
	var tailed []byte
	buf := make([]byte, 7)
	off := int64(0)
	for {
		n, d, err := s.ReadJournal(buf, off)
		if err != nil {
			t.Fatal(err)
		}
		if d != durable {
			t.Fatalf("watermark moved %d→%d during an idle tail", durable, d)
		}
		if n == 0 {
			break
		}
		tailed = append(tailed, buf[:n]...)
		off += int64(n)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(tailed) != string(raw) {
		t.Fatalf("tailed %d bytes != journal's %d on disk", len(tailed), len(raw))
	}
	if off != durable {
		t.Fatalf("tail stopped at %d, watermark %d", off, durable)
	}

	// Past-the-end and negative offsets: caught-up and error, respectively.
	if n, _, err := s.ReadJournal(buf, durable+100); n != 0 || err != nil {
		t.Fatalf("read past watermark = (%d, %v), want (0, nil)", n, err)
	}
	if _, _, err := s.ReadJournal(buf, -1); err == nil {
		t.Fatal("negative offset did not error")
	}
}

func TestIndexPoolsInJournalOrder(t *testing.T) {
	ix := NewIndex()
	ix.Add(rec("r1", "fft", "classic", 200, 210))
	ix.Add(rec("r2", "fft", "classic", 300))
	if ix.Len() != 2 {
		t.Fatalf("index holds %d, want 2", ix.Len())
	}
	// The index mirrors journal semantics: a re-shipped line appends in
	// journal order and ByID answers with the most recent version — the
	// same answer a replayed origin journal gives.
	ix.Add(rec("r2", "fft", "classic", 305))
	if ix.Len() != 3 {
		t.Fatalf("index holds %d after a re-shipped line, want 3 (journal order)", ix.Len())
	}
	r, ok := ix.ByID("r2")
	if !ok || r.TimesNS[0] != 305 {
		t.Fatalf("ByID(r2) = %+v, %v; want the latest journal line", r, ok)
	}
	k := Key{Workload: "fft", Kit: "classic", Threads: 2, Scale: "test"}
	times := ix.TimesNS(k)
	if len(times) != 4 || times[0] != 200 || times[3] != 305 {
		t.Fatalf("pooled times %v, want [200 210 300 305]", times)
	}
	if got := len(ix.ByKey(k)); got != 3 {
		t.Fatalf("ByKey found %d records, want 3", got)
	}
}
