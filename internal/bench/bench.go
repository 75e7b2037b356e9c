// Package bench regenerates every table and figure of the paper's evaluation
// (§IV) against the synthetic datasets: Table I (accuracy), Table II
// (dataset statistics), Table III (runtime breakdown), Fig. 1 (mini-batch
// generation bottleneck), Fig. 3a (neighbor-finder comparison), Fig. 3b
// (cache hit rates vs. the oracle), Fig. 4 (m×n ablation) and the encoder/
// decoder/cache-policy ablations DESIGN.md calls out.
//
// Each experiment takes Options and writes a plain-text table to Out; the
// cmd/taser-bench binary exposes them behind -exp flags and bench_test.go
// wires them into `go test -bench`.
package bench

import (
	"fmt"
	"io"
	"time"

	"taser/internal/datasets"
	"taser/internal/train"
)

// Options scales every experiment. The zero value is filled with the quick
// profile; see Normalize.
type Options struct {
	Out io.Writer

	Scale        float64 // dataset scale multiplier (1.0 = DESIGN.md default)
	Epochs       int     // training epochs for accuracy experiments
	Hidden       int
	TimeDim      int
	BatchSize    int
	LR           float64
	MaxEvalEdges int
	Seed         uint64

	// Datasets restricts experiments to these names (nil = experiment's
	// default set).
	Datasets []string

	// Load-generator closed-loop knobs (-exp serve, and -exp loadhttp's
	// closed-loop rows); zero values pick the defaults: 1,4,16 clients (8
	// with ServeShards), 200 requests, 2000 ev/s in process and 500 over
	// HTTP.
	ServeClients    []int   // concurrent closed-loop clients per row
	ServeRequests   int     // requests per client
	ServeIngestRate float64 // ingest writer rate, events/sec

	// Ingest experiment knobs (-exp ingest); zero values pick the defaults
	// documented in Ingest.
	IngestEvents []int // stream lengths per row (default 8192..65536)
	IngestEvery  int   // events per snapshot publication (default 256)
	IngestNodes  int   // node-id space of the synthetic stream (default 2000)

	// Fine-tuning experiment knobs (-exp finetune); zero values pick the
	// defaults documented in Finetune.
	FinetuneEvery  int     // drifted events ingested per fine-tune round (default 96)
	FinetuneNegs   int     // negatives per prequential MRR evaluation (default 19)
	FinetuneLR     float64 // fine-tuning learning rate (default 3e-4)
	FinetunePasses int     // replay passes per round (default 4)

	// Recovery experiment knobs (-exp recover); zero values pick the
	// defaults documented in Recover.
	RecoverEvents    []int // stream lengths per Table A row (default 1024,4096,16384)
	RecoverSyncEvery int   // WAL group-commit interval (default 64)

	// Replication experiment knobs (-exp replicate); zero values pick the
	// defaults documented in Replicate.
	ReplicateEvents []int // catch-up stream lengths (default 1024,4096,16384)
	ReplicateRates  []int // leader ingest rates, events/sec (default 1000,4000,16000)

	// HTTP load-generator knobs (-exp loadhttp). Empty ServeAddr self-hosts
	// an in-process HTTP server; otherwise the generator drives a live
	// taser-serve at that base URL (e.g. http://127.0.0.1:8080).
	ServeAddr string
	ServeWait time.Duration // readiness-poll budget for an external server (default 120s)

	// ServeShards switches loadhttp into a shard-count sweep: for each K it
	// self-hosts a K-shard GraphMixer fleet (the model class a K>1 fleet
	// requires), runs the same closed-loop rows, and reports per-shard
	// throughput from the merged /v1/stats shards[] blocks. Incompatible
	// with ServeAddr.
	ServeShards []int

	// OpenLoop switches loadhttp into the open-loop overload experiment: the
	// load generator's constant-arrival-rate timeline (baseline →
	// 2×-sustainable burst → recovery; see openLoop in loadgen.go) driven
	// against a static engine and an engine with the overload control plane,
	// with per-second offered/completed/shed accounting. Incompatible with
	// ServeAddr/ServeShards.
	OpenLoop     bool
	OpenRate     float64       // offered burst rate, req/sec (0 = 2× the calibrated sustainable rate)
	OpenDuration time.Duration // per-phase duration (default 3s)
	OpenSLO      time.Duration // adaptive engine's p99 target (default 25ms)
	OpenQueue    int           // adaptive engine's per-lane admission bound (default 64)
}

// Normalize fills defaults.
func (o Options) Normalize() Options {
	if o.Out == nil {
		panic("bench: Options.Out is required")
	}
	if o.Scale == 0 {
		o.Scale = 0.25
	}
	if o.Epochs == 0 {
		o.Epochs = 6
	}
	if o.Hidden == 0 {
		o.Hidden = 24
	}
	if o.TimeDim == 0 {
		o.TimeDim = 12
	}
	if o.BatchSize == 0 {
		o.BatchSize = 150
	}
	if o.LR == 0 {
		o.LR = 3e-3
	}
	if o.MaxEvalEdges == 0 {
		o.MaxEvalEdges = 300
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.IngestEvery == 0 {
		o.IngestEvery = 256
	}
	if o.IngestNodes == 0 {
		o.IngestNodes = 2000
	}
	return o
}

// baseConfig builds the shared training config for accuracy experiments.
func (o Options) baseConfig(model train.ModelKind) train.Config {
	return train.Config{
		Model: model, Finder: train.FinderGPU,
		Hidden: o.Hidden, TimeDim: o.TimeDim,
		BatchSize: o.BatchSize, Epochs: o.Epochs, LR: o.LR,
		CacheRatio: 0.2, MaxEvalEdges: o.MaxEvalEdges, Seed: o.Seed,
	}
}

// loadDatasets resolves the requested dataset list (or def when nil).
func (o Options) loadDatasets(def []string) []*datasets.Dataset {
	names := o.Datasets
	if len(names) == 0 {
		names = def
	}
	out := make([]*datasets.Dataset, 0, len(names))
	for _, n := range names {
		d, ok := datasets.ByName(n, o.Scale, o.Seed)
		if !ok {
			panic(fmt.Sprintf("bench: unknown dataset %q", n))
		}
		out = append(out, d)
	}
	return out
}

var allNames = []string{"wikipedia", "reddit", "flights", "movielens", "gdelt"}

// Variant labels the four rows of Table I.
type Variant struct {
	Name        string
	AdaBatch    bool
	AdaNeighbor bool
}

// Variants returns Table I's rows in paper order.
func Variants() []Variant {
	return []Variant{
		{"Baseline", false, false},
		{"w/ Ada. Mini-Batch", true, false},
		{"w/ Ada. Neighbor", false, true},
		{"TASER", true, true},
	}
}
