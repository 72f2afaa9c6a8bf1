package resultstore

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// storageRec is the i-th record of the storage tests: four populations,
// every third record failed, and every fifth reusing an earlier ID, so that
// ByID has to find the most recent of several.
func storageRec(i int) Record {
	id := fmt.Sprintf("r%d", i)
	if i%5 == 4 {
		id = fmt.Sprintf("r%d", i/2)
	}
	r := rec(id, []string{"fft", "lu"}[i%2], []string{"classic", "lockfree"}[i/2%2], int64(i), int64(i+1))
	if i%3 == 2 {
		r.Status = "error"
	}
	return r
}

// checkIndex holds ix to a plain slice of the records added, in order.
func checkIndex(t *testing.T, ix *Index, model []Record) {
	t.Helper()
	if got := ix.Len(); got != len(model) {
		t.Fatalf("Len() = %d, want %d", got, len(model))
	}
	if got := ix.All(); !reflect.DeepEqual(got, model) && len(model) > 0 {
		t.Fatalf("All() differs from the %d records added", len(model))
	}
	latest := map[string]Record{}
	byKey := map[Key][]Record{}
	times := map[Key][]int64{}
	for _, r := range model {
		latest[r.ID] = r
		byKey[r.Key()] = append(byKey[r.Key()], r)
		if r.Status == "ok" {
			times[r.Key()] = append(times[r.Key()], r.TimesNS...)
		}
	}
	for id, want := range latest {
		if got, ok := ix.ByID(id); !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("ByID(%s) = %+v, %v; want %+v", id, got, ok, want)
		}
	}
	if _, ok := ix.ByID("absent"); ok {
		t.Fatal("ByID found an ID never added")
	}
	for k, want := range byKey {
		if got := ix.ByKey(k); !reflect.DeepEqual(got, want) {
			t.Fatalf("ByKey(%v) holds %d records, want the %d added", k, len(got), len(want))
		}
		if got := ix.TimesNS(k); !reflect.DeepEqual(got, times[k]) {
			t.Fatalf("TimesNS(%v) = %v, want %v", k, got, times[k])
		}
	}
}

// TestIndexStorageMatchesSlice fills an index across its chunk boundaries
// and holds every query to a plain slice of the same records, before and
// after a Reset and a smaller refill.
func TestIndexStorageMatchesSlice(t *testing.T) {
	for _, n := range []int{0, 1, chunkRecs - 1, chunkRecs, chunkRecs + 1, 2000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			ix := NewIndex()
			var model []Record
			for i := 0; i < n; i++ {
				r := storageRec(i)
				ix.Add(r)
				model = append(model, r)
			}
			checkIndex(t, ix, model)

			ix.Reset()
			if ix.chunks != nil {
				t.Fatalf("Reset kept %d chunks of the old records reachable", len(ix.chunks))
			}
			model = model[:0]
			for i := 0; i < n/2; i++ {
				r := storageRec(n + i)
				ix.Add(r)
				model = append(model, r)
			}
			checkIndex(t, ix, model)
		})
	}
}

// TestIndexReadsDuringIngest runs readers against an index while one
// goroutine ingests journal lines, for the race detector: every read sees a
// prefix of the journal.
func TestIndexReadsDuringIngest(t *testing.T) {
	const n = 3 * chunkRecs
	lines := make([][]byte, n)
	for i := range lines {
		line, err := json.Marshal(storageRec(i))
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = line
	}
	ix := NewIndex()
	k := storageRec(0).Key()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for last := 0; ; {
				all := ix.All()
				if len(all) < last {
					t.Errorf("All() shrank from %d to %d records", last, len(all))
					return
				}
				last = len(all)
				ix.TimesNS(k)
				ix.ByID(fmt.Sprintf("r%d", last))
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	for _, line := range lines {
		if ix.AddLine(line) {
			t.Errorf("ingest reported a line Marshal wrote as malformed: %s", line)
		}
	}
	close(done)
	wg.Wait()
	if got := ix.Len(); got != n {
		t.Fatalf("index holds %d records after ingest, want %d", got, n)
	}
}
