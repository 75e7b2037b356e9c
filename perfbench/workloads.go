package main

import "time"

// Every workload trains on the wikipedia stream at this scale (900 events)
// for this many epochs: enough that TASER clears the random-ranking MRR and
// that train_edges_per_s has three epochs after the warm first one.
// taser-serve's own pretraining default is two epochs.
const (
	trainScale  = 0.1
	trainEpochs = 4
)

// workload fixes everything a run does except the seed and the measured
// serving time. Each one is a whole session — set up, train, evaluate,
// serve, stop uncleanly, recover — so that every run reports every
// end-to-end metric; the workloads differ in where the load sits.
type workload struct {
	name string

	// Training: taser selects `taser-train -taser` (AdaBatch + AdaNeighbor,
	// GATv2 decoder, GPU finder, 20% frequency edge-feature cache); otherwise
	// the pretraining `taser-serve` runs before it serves (chronological
	// batches, static most-recent finder, no feature cache).
	taser   bool
	evalVal bool // evaluate MRR on val as well as test

	// Serving (taser-serve defaults unless noted).
	zipf      bool    // Zipf(1.1) node popularity; otherwise uniform
	cacheSize int     // embedding-cache capacity in nodes
	durable   bool    // serve with a WAL on disk and stop it uncleanly
	readRPS   float64 // nominal read rate: 80% predict, 20% embed
	searchRPS float64 // first rate of the search for max_rps_in_slo
	ingestRPS float64 // fixed rate of the one ordered ingest producer
}

var workloads = []workload{
	{
		// The paper's workload: the only one where adaptive, sampler
		// co-training, featstore/cache and training-shape backward run. It
		// then serves its model with serve-read's traffic.
		name: "train-tgat", taser: true, evalVal: true,
		zipf: true, cacheSize: 4096, readRPS: 4000, searchRPS: 20000, ingestRPS: 250,
	},
	{
		// Cached reads: the node space (900) fits the embedding cache, so the
		// cache and the 2 ms coalescing wait do the work; adaptive and the
		// feature cache are bypassed and the store stays in memory.
		name: "serve-read",
		zipf: true, cacheSize: 4096, readRPS: 4000, searchRPS: 20000, ingestRPS: 250,
	},
	{
		// Uncached reads against durable ingest: a 128-node cache over 900
		// uniformly drawn nodes mostly misses, so every read pays neighbor
		// build + forward while ingest publishes snapshots and appends,
		// fsyncs and later replays the WAL on the same cores.
		name:      "serve-write",
		cacheSize: 128, durable: true, readRPS: 300, searchRPS: 1270, ingestRPS: 500,
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// size scales the serving and recovery phases of a run: the benchmark runs
// at fullSize, its test at tinySize. Training and evaluation are the
// workload's own at both sizes, so the test checks the same accuracy.
type size struct {
	setups      int           // repeated set-ups behind setup_s
	recoveries  int           // fresh engines behind recover_s
	warm        float64       // share of --seconds warming up at the nominal rate, untimed
	nominal     float64       // share of --seconds spent at the nominal rate
	step        float64       // share of --seconds per search step
	searchSteps int           // fixed-rate steps searching for max_rps_in_slo
	drain       time.Duration // grace for in-flight requests after a step
	probes      int           // probe pairs scored against a fresh engine
	replayRoots int           // recorded read roots replayed through Build
}

var fullSize = size{
	setups: 15, recoveries: 15,
	warm: 0.05, nominal: 0.35, step: 0.09, searchSteps: 6, drain: 2 * time.Second,
	probes: 64, replayRoots: 2048,
}

var tinySize = size{
	setups: 2, recoveries: 2,
	warm: 0.1, nominal: 0.4, step: 0.2, searchSteps: 2, drain: time.Second,
	probes: 8, replayRoots: 64,
}

type options struct {
	seed    uint64
	seconds float64
	trace   bool
	dir     string // scratch directory for durable stores
	size    size
}
