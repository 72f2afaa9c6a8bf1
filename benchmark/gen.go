package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/resultstore"
	"repro/internal/server"
)

// The benchmark's load generator. Everything the programs under test receive
// is derived from -seed here; the programs never see the seed itself except
// as a field of a generated input.

// Streams keep the generators independent: drawing more from one never
// shifts another.
const (
	streamSpecs   = 1 // + client index
	streamReads   = 16
	streamPreload = 32 // + node index
)

func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// specGen yields one client's job specs: fft at test scale, 1 thread, 1 rep,
// kits alternating (and opposite between two clients). No two specs of a run are equal — the sequence number and
// the client index are part of the seed — so singleflight never coalesces
// them and consistent hashing spreads them over the nodes.
type specGen struct {
	rng     *rand.Rand
	client  int
	clients int
	n       int
}

func newSpecGen(seed int64, client, clients int) *specGen {
	return &specGen{rng: newRand(seed, streamSpecs+uint64(client)), client: client, clients: clients}
}

func (g *specGen) next() server.Spec {
	sp := server.Spec{
		Workload: "fft", Kit: kitNames[(g.n+g.client)%2], Threads: 1, Scale: "test", Reps: 1,
		Seed: int64(g.rng.Uint32())<<24 | int64(g.n*g.clients+g.client),
	}
	g.n++
	return sp
}

// readKind is one of the reader's request shapes.
type readKind int

const (
	readCompare readKind = iota
	readJobs
	readStatus
	readMetrics
	numReadKinds
)

var readKindNames = [numReadKinds]string{"compare", "jobs", "status", "metrics"}

// readOp is one generated read: what to ask, which node to ask, and a draw
// the reader uses to pick among what exists at that moment (a finished job's
// id, a preloaded population).
type readOp struct {
	kind readKind
	node int
	pick uint32
}

// readGen yields the reader's mix: the four kinds equally likely, the node
// rotating so every node serves every kind.
type readGen struct {
	rng   *rand.Rand
	nodes int
	n     int
}

func newReadGen(seed int64, nodes int) *readGen {
	return &readGen{rng: newRand(seed, streamReads), nodes: nodes}
}

func (g *readGen) next() readOp {
	op := readOp{kind: readKind(g.rng.IntN(int(numReadKinds))), node: g.n % g.nodes, pick: g.rng.Uint32()}
	g.n++
	return op
}

// preloadPopulations are the (workload, threads) populations the preloaded
// journals hold, each under both kits at test scale. fft/1 is the population
// the writer's jobs keep adding to.
var preloadPopulations = []struct {
	workload string
	threads  int
	baseNS   int64
}{
	{"fft", 1, 300_000}, {"fft", 2, 200_000}, {"lu", 2, 900_000}, {"radix", 2, 500_000},
	{"ocean", 2, 1_500_000}, {"barnes", 2, 4_000_000}, {"raytrace", 2, 2_500_000}, {"water-spatial", 2, 700_000},
}

// preloadEpoch anchors the preloaded records' timestamps, so a journal is a
// function of the seed alone.
var preloadEpoch = time.Date(2022, 11, 6, 0, 0, 0, 0, time.UTC)

// preloadRecords generates node's seeded journal history: n finished runs
// spread over the populations, 1 to 3 repetitions each, times within ±20 %
// of the population's base.
func preloadRecords(seed int64, nodeIndex int, nodeID string, n int) []resultstore.Record {
	rng := newRand(seed, streamPreload+uint64(nodeIndex))
	out := make([]resultstore.Record, n)
	for i := range out {
		// The first records cover every population under both kits, so that
		// /compare has both sides however few records there are; the rest
		// are drawn.
		pop, kit := preloadPopulations[rng.IntN(len(preloadPopulations))], kitNames[rng.IntN(2)]
		if i < 2*len(preloadPopulations) {
			pop, kit = preloadPopulations[i/2], kitNames[i%2]
		}
		reps := 1 + rng.IntN(3)
		times := make([]int64, reps)
		var sum int64
		for j := range times {
			times[j] = pop.baseNS*4/5 + rng.Int64N(pop.baseNS*2/5)
			sum += times[j]
		}
		at := preloadEpoch.Add(time.Duration(i) * time.Second)
		out[i] = resultstore.Record{
			ID: fmt.Sprintf("r-%s-p%d", nodeID, i), Workload: pop.workload, Kit: kit,
			Threads: pop.threads, Scale: "test", Seed: rng.Int64N(1 << 32), Reps: reps, Node: nodeID,
			Submitted: at, Started: at.Add(time.Millisecond), Finished: at.Add(10 * time.Millisecond),
			Status: "ok", TimesNS: times, MeanNS: sum / int64(reps),
		}
	}
	return out
}
