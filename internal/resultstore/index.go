package resultstore

import (
	"bytes"
	"encoding/json"
	"sync"
)

// chunkRecs is how many records one storage chunk of an Index holds.
const chunkRecs = 256

// Index is the queryable in-memory view of a result journal: records in
// journal order plus a by-population lookup. The Store embeds one for its
// own journal, and cluster followers (internal/cluster) build one per
// shipped peer journal, so a node answers /compare and /jobs queries over
// replicated data through exactly the same code path it uses for its own.
// All methods are safe for concurrent use.
type Index struct {
	mu sync.Mutex
	// chunks holds the records in journal order, chunkRecs to a chunk:
	// every chunk but the last is full, and growth adds a chunk instead of
	// re-copying the records already stored.
	chunks [][]Record
	byKey  map[Key][]int // positions in journal order
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{byKey: make(map[Key][]int)}
}

// Add appends r in journal order.
func (ix *Index) Add(r Record) {
	ix.mu.Lock()
	ix.add(r)
	ix.mu.Unlock()
}

// AddLine is the one journal-line rule, shared by replay-on-open and
// cluster journal shipping: a blank line is ignored, a line that parses
// into a record with an ID is added, and anything else (a torn fragment,
// or one glued onto the next write) is reported as malformed for the
// caller's skipped count. Lines in the shape Append writes take
// decodeLine's fast path; json.Unmarshal parses every other line and
// decides what is malformed.
func (ix *Index) AddLine(line []byte) (malformed bool) {
	line = bytes.TrimSpace(line)
	if len(line) == 0 {
		return false
	}
	r, ok := decodeLine(line)
	if !ok {
		// A variable of its own: json.Unmarshal makes it escape, and r
		// would otherwise go to the heap on the fast path too.
		var slow Record
		if err := json.Unmarshal(line, &slow); err != nil || slow.ID == "" {
			return true
		}
		r = slow
	}
	ix.Add(r)
	return false
}

// Reset empties the index. Journal followers call it when the origin's
// journal generation changes — the replicated records belong to a journal
// that no longer exists, so the replica starts over from offset zero. The
// old records' storage is dropped, not kept for reuse, so that none of
// them stays reachable.
func (ix *Index) Reset() {
	ix.mu.Lock()
	ix.chunks = nil
	ix.byKey = make(map[Key][]int)
	ix.mu.Unlock()
}

// add appends r. Caller holds mu.
func (ix *Index) add(r Record) {
	n := ix.len()
	if n%chunkRecs == 0 {
		ix.chunks = append(ix.chunks, make([]Record, 0, chunkRecs))
	}
	last := &ix.chunks[len(ix.chunks)-1]
	*last = append(*last, r)
	ix.byKey[r.Key()] = append(ix.byKey[r.Key()], n)
}

// len returns the number of records. Caller holds mu.
func (ix *Index) len() int {
	if len(ix.chunks) == 0 {
		return 0
	}
	return (len(ix.chunks)-1)*chunkRecs + len(ix.chunks[len(ix.chunks)-1])
}

// at returns the record at journal position i. Caller holds mu.
func (ix *Index) at(i int) *Record {
	return &ix.chunks[i/chunkRecs][i%chunkRecs]
}

// Len returns the number of indexed records.
func (ix *Index) Len() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.len()
}

// All returns a copy of every record in journal order.
func (ix *Index) All() []Record {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	out := make([]Record, 0, ix.len())
	for _, c := range ix.chunks {
		out = append(out, c...)
	}
	return out
}

// ByID returns the most recent record with the given id.
func (ix *Index) ByID(id string) (Record, bool) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for c := len(ix.chunks) - 1; c >= 0; c-- {
		recs := ix.chunks[c]
		for i := len(recs) - 1; i >= 0; i-- {
			if recs[i].ID == id {
				return recs[i], true
			}
		}
	}
	return Record{}, false
}

// ByKey returns every record of one measurement population, in journal
// order.
func (ix *Index) ByKey(k Key) []Record {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	idxs := ix.byKey[k]
	out := make([]Record, len(idxs))
	for i, idx := range idxs {
		out[i] = *ix.at(idx)
	}
	return out
}

// TimesNS pools the repetition times of every successful record of one
// population, in journal order — the sample /compare feeds to the
// bootstrap. Journal order is what makes the pool deterministic: two
// indexes built from the same journal bytes return identical slices.
func (ix *Index) TimesNS(k Key) []int64 {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	var out []int64
	for _, idx := range ix.byKey[k] {
		r := ix.at(idx)
		if r.Status != "ok" {
			continue
		}
		out = append(out, r.TimesNS...)
	}
	return out
}
