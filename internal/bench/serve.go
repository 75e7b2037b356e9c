package bench

import (
	"fmt"
	"math"
	"net/http/httptest"
	"time"

	"taser/internal/datasets"
	"taser/internal/overload"
	"taser/internal/serve"
	"taser/internal/stats"
	"taser/internal/train"
)

// Serve load-tests the online inference subsystem in process: the load
// generator's closed-loop Zipfian request mix (80% link prediction, 20%
// embedding) from C concurrent clients against internal/serve, while one
// ingest writer streams synthetic events at a configured rate and snapshots
// publish underneath. Each row reports throughput, p50/p99 request latency,
// the mean micro-batch size, the embedding-cache hit rate, and how many
// snapshots were published.
//
// The single-core caveat of EXPERIMENTS.md applies doubly here: clients,
// the scheduler and the ingest writer time-slice one core, so latency is
// dominated by compute queueing rather than batching waits; the batching
// and cache columns are the hardware-independent signal.
func Serve(o Options) error {
	o = o.Normalize()
	ds := o.loadDatasets([]string{"wikipedia"})[0]
	clientsList, reqs, rate := closedLoopDefaults(o, []int{1, 4, 16}, 2000)
	g := newLoadGen(ds.Spec.NumNodes, o.Seed)

	fmt.Fprintf(o.Out, "Online serving load test (%s, ingest %.0f ev/s, %d reqs/client, Zipf s=1.1)\n",
		ds.Spec.Name, rate, reqs)
	fmt.Fprintf(o.Out, "%-8s %-7s %8s %9s %9s %9s %7s %6s %6s\n",
		"clients", "cache", "qps", "p50(ms)", "p99(ms)", "batch", "hit%", "snaps", "ingest")
	for _, cacheSize := range []int{0, 2048} {
		for _, clients := range clientsList {
			if err := serveRow(o, ds, g, clients, cacheSize, reqs, rate); err != nil {
				return err
			}
		}
	}
	return nil
}

// serveRow runs one in-process row on a fresh engine and prints the
// engine's own account of it.
func serveRow(o Options, ds *datasets.Dataset, g *loadGen, clients, cacheSize, reqs int, rate float64) error {
	h, err := selfHost(o, ds, train.ModelTGAT, 0, cacheSize, overload.Config{})
	if err != nil {
		return err
	}
	defer h.Close()
	run, err := g.closedLoop(directTarget{h}, clients, reqs, rate)
	if err != nil {
		return err
	}
	st := h.(*serve.Engine).Stats()
	cacheLabel := "off"
	if cacheSize > 0 {
		cacheLabel = fmt.Sprintf("%d", cacheSize)
	}
	fmt.Fprintf(o.Out, "%-8d %-7s %8.0f %9.2f %9.2f %9.1f %6.1f%% %6d %6d\n",
		clients, cacheLabel, float64(st.Requests)/run.elapsed.Seconds(),
		float64(st.P50.Microseconds())/1000, float64(st.P99.Microseconds())/1000,
		st.AvgBatch(), 100*st.CacheHitRate(), st.SnapshotVersion, run.ingested)
	return nil
}

// closedLoopDefaults resolves the closed-loop knobs shared by the in-process
// and HTTP experiments.
func closedLoopDefaults(o Options, clients []int, rate float64) ([]int, int, float64) {
	if len(o.ServeClients) > 0 {
		clients = o.ServeClients
	}
	reqs := o.ServeRequests
	if reqs == 0 {
		reqs = 200
	}
	if o.ServeIngestRate != 0 {
		rate = o.ServeIngestRate
	}
	return clients, reqs, rate
}

// LoadHTTP is the HTTP-mode load test: the same closed-loop Zipfian request
// mix as Serve, but driven over real HTTP — JSON bodies, pooled connections,
// one ingest producer POSTing /v1/ingest while client goroutines POST
// /v1/predict and /v1/embed — so the measured latency includes the full
// serving stack a deployment pays, not just the in-process engine.
//
// With Options.ServeAddr set it targets a live taser-serve at that base URL
// (polling /v1/stats until the server finishes pretraining, up to
// Options.ServeWait); `make loadtest-http` wires that up end to end. With an
// empty ServeAddr it self-hosts an engine behind serve.NewHandler on a
// loopback listener, which keeps the experiment (and its smoke test)
// self-contained. ServeShards switches to the shard-count sweep and
// OpenLoop to the open-loop overload experiment.
func LoadHTTP(o Options) error {
	o = o.Normalize()
	if o.OpenLoop {
		return loadOpen(o)
	}
	if len(o.ServeShards) > 0 {
		return loadHTTPShardSweep(o)
	}
	base := o.ServeAddr
	if base == "" {
		ds := o.loadDatasets([]string{"wikipedia"})[0]
		h, err := selfHost(o, ds, train.ModelTGAT, 0, 2048, overload.Config{})
		if err != nil {
			return err
		}
		defer h.Close()
		srv := httptest.NewServer(serve.NewHandler(h))
		defer srv.Close()
		base = srv.URL
		fmt.Fprintf(o.Out, "self-hosted %s on %s\n", ds.Spec.Name, base)
	}

	wait := o.ServeWait
	if wait == 0 {
		wait = 120 * time.Second
	}
	st, err := pollStats(base, wait)
	if err != nil {
		return err
	}
	nodes, err := statNum(st, "nodes")
	if err != nil {
		return err
	}
	watermark, err := statNum(st, "watermark")
	if err != nil {
		return err
	}
	fmt.Fprintf(o.Out, "server ready: %.0f nodes, %v events, watermark t=%v, weights v%v\n",
		nodes, st["events"], watermark, st["weight_version"])

	clientsList, reqs, rate := closedLoopDefaults(o, []int{1, 4, 16}, 500)
	fmt.Fprintf(o.Out, "HTTP load test (%d reqs/client, ingest %.0f ev/s, Zipf s=1.1, 80%% predict / 20%% embed)\n",
		reqs, rate)
	return httpRows(o, httpTarget(base), int(nodes), clientsList, reqs, rate)
}

// httpRows prints the closed-loop HTTP table, one row per client count, with
// the server-side columns taken as /v1/stats deltas over the row (the
// server is long-lived; absolute counters span every row and any prior
// traffic).
func httpRows(o Options, t httpTarget, numNodes int, clientsList []int, reqs int, rate float64) error {
	fmt.Fprintf(o.Out, "%-8s %8s %9s %9s %9s %7s %8s %8s\n",
		"clients", "qps", "p50(ms)", "p99(ms)", "batch", "hit%", "ingested", "weights")
	g := newLoadGen(numNodes, o.Seed)
	for _, clients := range clientsList {
		before, err := fetchStats(string(t))
		if err != nil {
			return err
		}
		run, err := g.closedLoop(t, clients, reqs, rate)
		if err != nil {
			return err
		}
		after, err := fetchStats(string(t))
		if err != nil {
			return err
		}
		var d [3]float64
		for i, key := range []string{"cache_hits", "cache_misses", "batches"} {
			a, err := statNum(after, key)
			if err != nil {
				return err
			}
			b, err := statNum(before, key)
			if err != nil {
				return err
			}
			d[i] = a - b
		}
		hits, misses, batches := d[0], d[1], d[2]
		hitRate, avgBatch := 0.0, 0.0
		if hits+misses > 0 {
			hitRate = 100 * hits / (hits + misses)
		}
		if batches > 0 {
			avgBatch = misses / batches // only cache misses reach a micro-batch
		}
		fmt.Fprintf(o.Out, "%-8d %8.0f %9.2f %9.2f %9.1f %6.1f%% %8d %8v\n",
			clients, float64(len(run.lats))/run.elapsed.Seconds(),
			stats.Quantile(run.lats, 0.50)*1e3, stats.Quantile(run.lats, 0.99)*1e3,
			avgBatch, hitRate, run.ingested, after["weight_version"])
	}
	return nil
}

// loadHTTPShardSweep runs the HTTP load test once per requested shard count:
// each K self-hosts a K-shard GraphMixer fleet (a K>1 fleet requires a
// one-layer model) bootstrapped with the same training split, drives the same
// closed-loop client rows against it, and then reports per-shard throughput
// from the merged /v1/stats shards[] blocks — events and requests per shard,
// plus the fleet's tee and scatter/gather counters. On a single core the
// sweep measures routing overhead and balance, not wall-clock speedup; see
// EXPERIMENTS.md.
func loadHTTPShardSweep(o Options) error {
	if o.ServeAddr != "" {
		return fmt.Errorf("bench: the -shards sweep self-hosts one fleet per shard count; it cannot target -serve-addr")
	}
	ds := o.loadDatasets([]string{"wikipedia"})[0]
	clientsList, reqs, rate := closedLoopDefaults(o, []int{8}, 500)
	for _, K := range o.ServeShards {
		if err := shardSweepRows(o, ds, K, clientsList, reqs, rate); err != nil {
			return err
		}
	}
	return nil
}

// shardSweepRows drives the closed-loop rows for one shard count and prints
// the per-shard breakdown afterwards.
func shardSweepRows(o Options, ds *datasets.Dataset, K int, clientsList []int, reqs int, rate float64) error {
	h, err := selfHost(o, ds, train.ModelGraphMixer, K, 2048, overload.Config{})
	if err != nil {
		return err
	}
	defer h.Close()
	srv := httptest.NewServer(serve.NewHandler(h))
	defer srv.Close()

	fmt.Fprintf(o.Out, "shards=%d (graphmixer fleet, %d reqs/client, ingest %.0f ev/s)\n", K, reqs, rate)
	before, err := fetchStats(srv.URL)
	if err != nil {
		return err
	}
	if err := httpRows(o, httpTarget(srv.URL), ds.Spec.NumNodes, clientsList, reqs, rate); err != nil {
		return err
	}
	after, err := fetchStats(srv.URL)
	if err != nil {
		return err
	}
	teed, _ := statNum(after, "events_teed")
	crossPred, _ := statNum(after, "cross_shard_predicts")
	retries, _ := statNum(after, "gather_retries")
	fmt.Fprintf(o.Out, "fleet: teed=%0.f cross_shard_predicts=%.0f gather_retries=%.0f\n", teed, crossPred, retries)
	blocks, ok := after["shards"].([]any)
	if !ok {
		return fmt.Errorf("bench: /v1/stats has no shards[] — is the server a sharded taser-serve?")
	}
	beforeBlocks, _ := before["shards"].([]any)
	var totalReq float64
	rows := make([][3]float64, len(blocks)) // requests, events, batches
	for i, b := range blocks {
		blk, _ := b.(map[string]any)
		for j, key := range []string{"requests", "events", "batches"} {
			if rows[i][j], err = statNum(blk, key); err != nil {
				return err
			}
		}
		if i < len(beforeBlocks) {
			if bb, ok := beforeBlocks[i].(map[string]any); ok {
				if pv, err := statNum(bb, "requests"); err == nil {
					rows[i][0] -= pv // throughput share is about this sweep's traffic
				}
			}
		}
		totalReq += rows[i][0]
	}
	for i, r := range rows {
		share := 0.0
		if totalReq > 0 {
			share = 100 * r[0] / totalReq
		}
		fmt.Fprintf(o.Out, "  shard %d: events=%.0f requests=%.0f (%.0f%% of fleet) batches=%.0f\n",
			i, r[1], r[0], share, r[2])
	}
	fmt.Fprintln(o.Out)
	return nil
}

// loadOpen is the open-loop overload experiment (-exp loadhttp -open): the
// load generator's open-loop timeline (baseline rate/4 → burst at the full
// offered rate, 2× the calibrated sustainable rate → recovery rate/4), run
// twice over self-hosted engines: "static" (today's fixed MaxBatch/MaxWait,
// unbounded admission — the burst builds an unbounded queue and
// recovery-phase latency shows it) and "adaptive" (SLO controller + bounded
// admission — excess load is shed with 429 + Retry-After and the completed
// requests' p99 stays near the target). Per-second offered/completed/shed
// accounting and a machine-greppable OPENLOOP summary line per variant close
// the loop for scripts/overload_smoke.sh.
func loadOpen(o Options) error {
	if o.ServeAddr != "" {
		return fmt.Errorf("bench: the open-loop experiment self-hosts its static/adaptive engine pair; it cannot target -serve-addr")
	}
	if len(o.ServeShards) > 0 {
		return fmt.Errorf("bench: the open-loop experiment is single-engine; it cannot combine with -shards")
	}
	dur := o.OpenDuration
	if dur == 0 {
		dur = 3 * time.Second
	}
	slo := o.OpenSLO
	if slo == 0 {
		slo = 25 * time.Millisecond
	}
	queue := o.OpenQueue
	if queue == 0 {
		queue = 64
	}
	ds := o.loadDatasets([]string{"wikipedia"})[0]
	g := newLoadGen(ds.Spec.NumNodes, o.Seed)

	variants := []struct {
		name string
		ov   overload.Config
	}{
		{"static", overload.Config{}},
		{"adaptive", overload.Config{TargetP99: slo, Interval: 50 * time.Millisecond, MaxQueue: queue}},
	}
	offered := o.OpenRate
	for _, v := range variants {
		var err error
		if offered, err = openVariant(o, ds, g, v.name, v.ov, offered, dur, slo); err != nil {
			return err
		}
	}
	return nil
}

// openVariant calibrates one engine, runs the open-loop timeline against it
// and prints the per-second table and its OPENLOOP line. Every variant is
// calibrated (and warmed) with the same closed-loop traffic — 4 clients back
// to back with the timeline's own request mix, the rate the engine sustains
// when clients self-throttle. An offered rate of 0 becomes 2× that rate and
// is returned, so the first variant fixes the offered load for both.
func openVariant(o Options, ds *datasets.Dataset, g *loadGen, name string, ov overload.Config, offered float64, dur, slo time.Duration) (float64, error) {
	h, err := selfHost(o, ds, train.ModelTGAT, 0, 2048, ov)
	if err != nil {
		return 0, err
	}
	defer h.Close()
	srv := httptest.NewServer(serve.NewHandler(h))
	defer srv.Close()
	t := httpTarget(srv.URL)

	cal, err := g.closedLoop(t, 4, 100, 0)
	if err != nil {
		return 0, fmt.Errorf("bench: calibration: %w", err)
	}
	sus := float64(len(cal.lats)) / cal.elapsed.Seconds()
	if offered == 0 {
		offered = 2 * sus
	}
	fmt.Fprintf(o.Out, "\n%s engine: sustainable ~%.0f req/s closed-loop, offered burst %.0f req/s (open-loop)\n",
		name, sus, offered)
	run, err := g.openLoop(t, offered, dur)
	if err != nil {
		return 0, err
	}

	fmt.Fprintf(o.Out, "%-4s %-9s %8s %9s %6s %5s %9s %9s\n",
		"sec", "phase", "offered", "completed", "shed", "errs", "p50(ms)", "p99(ms)")
	var shed int
	phaseLats := map[string][]float64{}
	quant := func(l []float64, q float64) float64 {
		if len(l) == 0 {
			return math.NaN()
		}
		return stats.Quantile(l, q) * 1e3
	}
	for i, s := range run.secs {
		if s.offered == 0 {
			continue
		}
		shed += s.shed
		phaseLats[s.phase] = append(phaseLats[s.phase], s.lats...)
		fmt.Fprintf(o.Out, "%-4d %-9s %8d %9d %6d %5d %9.2f %9.2f\n",
			i, s.phase, s.offered, s.completed, s.shed, s.errs, quant(s.lats, 0.50), quant(s.lats, 0.99))
	}
	// retry_after_ok: every shed response carried a usable Retry-After
	// (vacuously true when nothing shed — the static engine never sheds).
	fmt.Fprintf(o.Out, "OPENLOOP %s burst_p99_ms=%.2f recovery_p99_ms=%.2f shed=%d retry_after_ok=%v lost=%d slo_ms=%.0f\n",
		name, quant(phaseLats["burst"], 0.99), quant(phaseLats["recovery"], 0.99), shed,
		run.shedMissingRA == 0, run.lost, float64(slo.Milliseconds()))

	// Surface the control plane's own account of the run when it has one.
	if st, err := fetchStats(srv.URL); err == nil {
		if ov, ok := st["overload"].(map[string]any); ok {
			eb, _ := statNum(ov, "effective_max_batch")
			ew, _ := statNum(ov, "effective_max_wait_us")
			fmt.Fprintf(o.Out, "overload plane: effective_max_batch=%.0f effective_max_wait_us=%.0f\n", eb, ew)
		}
	}
	return offered, nil
}
