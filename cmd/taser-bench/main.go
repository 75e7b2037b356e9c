// Command taser-bench regenerates the paper's tables and figures against the
// synthetic datasets. Each experiment prints a plain-text table; see
// EXPERIMENTS.md for recorded runs and the paper-vs-measured comparison.
//
// Usage:
//
//	taser-bench -exp table1 [-scale 0.25] [-epochs 6] [-datasets wikipedia,reddit]
//	taser-bench -exp all
//
// Experiments: table1, table2, table3, fig1, fig3a, fig3b, fig4,
// ablation-encoder, ablation-decoder, ablation-cache, pipeline, serve,
// ingest, alloc, kernels, finetune, recover, replicate, all; and loadhttp,
// which `all` skips. serve and loadhttp share one load generator.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"taser/internal/bench"
)

func main() {
	var (
		exp        = flag.String("exp", "", "experiment to run (table1|table2|table3|fig1|fig3a|fig3b|fig4|ablation-encoder|ablation-decoder|ablation-cache|serve|ingest|alloc|kernels|finetune|recover|replicate|loadhttp|all)")
		scale      = flag.Float64("scale", 0.25, "dataset scale multiplier")
		epochs     = flag.Int("epochs", 6, "training epochs for accuracy experiments")
		hidden     = flag.Int("hidden", 24, "hidden dimension")
		batch      = flag.Int("batch", 150, "batch size (positive edges)")
		seed       = flag.Uint64("seed", 42, "random seed")
		evalEdges  = flag.Int("eval-edges", 300, "max edges per MRR evaluation")
		dsNames    = flag.String("datasets", "", "comma-separated dataset subset (default: experiment's own)")
		srvClients = flag.String("serve-clients", "", "serve, loadhttp: load generator's closed-loop client counts, one row each (default 1,4,16; 8 with -shards)")
		srvReqs    = flag.Int("serve-requests", 0, "serve, loadhttp: load generator's requests per closed-loop client (default 200)")
		srvIngest  = flag.Float64("serve-ingest", 0, "serve, loadhttp: load generator's ingest rate, events/sec (default 2000 in process, 500 over HTTP)")
		ingEvents  = flag.String("ingest-events", "", "ingest: comma-separated stream lengths (default 8192,16384,32768,65536)")
		ingEvery   = flag.Int("ingest-every", 0, "ingest: events per snapshot publication (default 256)")
		ingNodes   = flag.Int("ingest-nodes", 0, "ingest: node-id space of the synthetic stream (default 2000)")
		recEvents  = flag.String("recover-events", "", "recover: comma-separated stream lengths (default 1024,4096,16384)")
		recSync    = flag.Int("recover-sync-every", 0, "recover: WAL group-commit interval (default 64)")
		repEvents  = flag.String("replicate-events", "", "replicate: comma-separated catch-up stream lengths (default 1024,4096,16384)")
		repRates   = flag.String("replicate-rates", "", "replicate: comma-separated leader ingest rates, events/sec (default 1000,4000,16000)")
		ftEvery    = flag.Int("finetune-every", 0, "finetune: drifted events per fine-tune round (default 96)")
		ftNegs     = flag.Int("finetune-negs", 0, "finetune: negatives per prequential MRR eval (default 19)")
		ftLR       = flag.Float64("finetune-lr", 0, "finetune: fine-tuning learning rate (default 3e-4)")
		ftPasses   = flag.Int("finetune-passes", 0, "finetune: replay passes per round (default 4)")
		srvAddr    = flag.String("serve-addr", "", "loadhttp: base URL of a live taser-serve for the load generator to drive (empty = self-host in process)")
		srvWait    = flag.Duration("serve-wait", 0, "loadhttp: readiness-poll budget for an external server (default 120s)")
		srvShards  = flag.String("shards", "", "loadhttp: comma-separated shard counts to sweep (self-hosts a K-shard fleet per entry, e.g. 1,2,4)")
		openLoop   = flag.Bool("open", false, "loadhttp: open-loop overload experiment (the load generator's constant-arrival timeline against a static vs an adaptive engine)")
		openRate   = flag.Float64("open-rate", 0, "loadhttp -open: offered burst rate, req/sec (default 2× the calibrated sustainable rate)")
		openDur    = flag.Duration("open-duration", 0, "loadhttp -open: per-phase duration (default 3s)")
		openSLO    = flag.Duration("open-slo", 0, "loadhttp -open: adaptive engine's p99 target (default 25ms)")
		openQueue  = flag.Int("open-queue", 0, "loadhttp -open: adaptive engine's per-lane admission bound (default 64)")
	)
	flag.Parse()

	opts := bench.Options{
		Out: os.Stdout, Scale: *scale, Epochs: *epochs, Hidden: *hidden,
		BatchSize: *batch, Seed: *seed, MaxEvalEdges: *evalEdges,
		ServeRequests: *srvReqs, ServeIngestRate: *srvIngest,
		IngestEvery: *ingEvery, IngestNodes: *ingNodes,
		RecoverSyncEvery: *recSync,
		FinetuneEvery:    *ftEvery, FinetuneNegs: *ftNegs, FinetuneLR: *ftLR,
		FinetunePasses: *ftPasses,
		ServeAddr:      *srvAddr, ServeWait: *srvWait,
		OpenLoop: *openLoop, OpenRate: *openRate, OpenDuration: *openDur,
		OpenSLO: *openSLO, OpenQueue: *openQueue,
	}
	if *dsNames != "" {
		opts.Datasets = strings.Split(*dsNames, ",")
	}
	parseInts := func(flagName, csv string) []int {
		if csv == "" {
			return nil
		}
		var out []int
		for _, s := range strings.Split(csv, ",") {
			c, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintf(os.Stderr, "taser-bench: bad %s %q: %v\n", flagName, csv, err)
				os.Exit(2)
			}
			out = append(out, c)
		}
		return out
	}
	opts.ServeClients = parseInts("-serve-clients", *srvClients)
	opts.ServeShards = parseInts("-shards", *srvShards)
	opts.IngestEvents = parseInts("-ingest-events", *ingEvents)
	opts.RecoverEvents = parseInts("-recover-events", *recEvents)
	opts.ReplicateEvents = parseInts("-replicate-events", *repEvents)
	opts.ReplicateRates = parseInts("-replicate-rates", *repRates)

	experiments := map[string]func(bench.Options) error{
		"table1":              bench.Table1,
		"table2":              bench.Table2,
		"table3":              bench.Table3,
		"fig1":                bench.Fig1,
		"fig3a":               bench.Fig3a,
		"fig3b":               bench.Fig3b,
		"fig4":                bench.Fig4,
		"ablation-encoder":    bench.AblationEncoder,
		"ablation-decoder":    bench.AblationDecoder,
		"ablation-cache":      bench.AblationCache,
		"ablation-heuristics": bench.AblationHeuristics,
		"pipeline":            bench.Pipeline,
		"serve":               bench.Serve,
		"ingest":              bench.Ingest,
		"alloc":               bench.Alloc,
		"kernels":             bench.Kernels,
		"finetune":            bench.Finetune,
		"recover":             bench.Recover,
		"replicate":           bench.Replicate,
		"loadhttp":            bench.LoadHTTP, // excluded from `all`: meant for a live server (self-hosts when -serve-addr is empty)
	}
	order := []string{"table2", "table1", "fig1", "table3", "fig3a", "fig3b", "fig4",
		"ablation-encoder", "ablation-decoder", "ablation-cache", "ablation-heuristics",
		"pipeline", "serve", "ingest", "alloc", "kernels", "finetune", "recover", "replicate"}

	run := func(name string) {
		fmt.Printf("=== %s ===\n", name)
		if err := experiments[name](opts); err != nil {
			fmt.Fprintf(os.Stderr, "taser-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	switch {
	case *exp == "all":
		for _, name := range order {
			run(name)
		}
	case experiments[*exp] != nil:
		run(*exp)
	default:
		fmt.Fprintf(os.Stderr, "taser-bench: unknown experiment %q\nknown: %s, all\n",
			*exp, strings.Join(order, ", "))
		os.Exit(2)
	}
}
