package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"taser/internal/mathx"
	"taser/internal/models"
	"taser/internal/sampler"
	"taser/internal/serve"
	"taser/internal/stats"
	"taser/internal/tensor"
	"taser/internal/tgraph"
)

const (
	// sloP99Ms is the read p99 limit of max_rps_in_slo: the default of
	// taser-bench's -open-slo.
	sloP99Ms = 25
	// gridFactor is the rate ratio between consecutive search steps.
	gridFactor = 1.12
	// maxFailFrac is the share of failed requests a step may have.
	maxFailFrac = 0.01
	// maxInflight bounds the generator's outstanding reads; a read due while
	// this many are outstanding is counted failed without being sent.
	maxInflight = 4096
	// p99Windows, p99Dropped and minWindow shape windowedP99.
	p99Windows = 5
	p99Dropped = 2
	minWindow  = 200
	// lateGrowthMs is how much later the generator may send in the last
	// quarter of a step than in the first before the step counts as
	// backlogged: well above the host's timer and scheduling jitter, well
	// below the seconds a real backlog reaches.
	lateGrowthMs = 10
)

// event is one ingested interaction with its edge-feature row.
type event struct {
	src, dst int32
	t        float64
	feat     []float64
}

// stream continues the dataset's event stream: sources by Zipf popularity
// from the source partition, destinations uniform over the destination
// partition, strictly increasing times at the dataset's mean gap and
// Gaussian edge features.
type stream struct {
	rng     *mathx.RNG
	srcPop  *mathx.Alias
	lo, n   int // destination partition [lo, n)
	t, gap  float64
	edgeDim int
}

func (st *stream) next() event {
	st.t += st.gap * (0.5 + st.rng.Float64())
	ev := event{
		src:  int32(st.srcPop.Draw(st.rng)),
		dst:  int32(st.lo + st.rng.Intn(st.n-st.lo)),
		t:    st.t,
		feat: make([]float64, st.edgeDim),
	}
	for i := range ev.feat {
		ev.feat[i] = st.rng.NormFloat64()
	}
	return ev
}

// readReq is one generated read: a predict (a→b) or an embed (a).
type readReq struct {
	predict bool
	a, b    int32
}

// stepStats is what one fixed-rate step measured. Latencies are in ms from
// each request's due time.
type stepStats struct {
	rate                float64
	readLat             []float64 // reads that succeeded before the drain ended
	attempted, failed   int       // reads
	lateFirst, lateLast float64   // p90 send lateness, first and last quarter
	late                []float64
	ingestLat           []float64
	ingAttempt, ingFail int
	conflicts           int
}

func (s *stepStats) String() string {
	return fmt.Sprintf("step %7.0f req/s: reads %d (failed %d) p50 %.2f ms p99 %.2f ms; ingest %d (failed %d) p99 %.2f ms; late p90 %.2f→%.2f ms; meets SLO %v",
		s.rate, s.attempted, s.failed, stats.Quantile(s.readLat, 0.5), s.p99(), s.ingAttempt, s.ingFail,
		windowedP99(s.ingestLat), s.lateFirst, s.lateLast, s.meets())
}

// p99 is the read p99 of the step; see windowedP99.
func (s *stepStats) p99() float64 { return windowedP99(s.readLat) }

// windowedP99 splits latencies, in due-time order, into p99Windows
// consecutive windows and returns the p99 of the samples in all but the
// p99Dropped windows with the highest p99s, so that a stall of the shared
// host in part of a step does not decide it. With fewer than minWindow
// samples per window it is the plain p99.
func windowedP99(xs []float64) float64 {
	if len(xs) < p99Windows*minWindow {
		return stats.Quantile(xs, 0.99)
	}
	type window struct {
		xs  []float64
		p99 float64
	}
	ws := make([]window, p99Windows)
	for i := range ws {
		ws[i].xs = xs[i*len(xs)/p99Windows : (i+1)*len(xs)/p99Windows]
		ws[i].p99 = stats.Quantile(ws[i].xs, 0.99)
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].p99 < ws[j].p99 })
	var kept []float64
	for _, w := range ws[:p99Windows-p99Dropped] {
		kept = append(kept, w.xs...)
	}
	return stats.Quantile(kept, 0.99)
}

func (s *stepStats) failFrac() float64 {
	return float64(s.failed+s.ingFail) / float64(max(s.attempted+s.ingAttempt, 1))
}

func (s *stepStats) growing() bool { return s.lateLast > s.lateFirst+lateGrowthMs }

// meets reports whether the step meets the SLO: read p99 within sloP99Ms,
// failures within maxFailFrac, and a generator that kept its schedule.
func (s *stepStats) meets() bool {
	return len(s.readLat) > 0 && s.p99() <= sloP99Ms && s.failFrac() <= maxFailFrac && !s.growing()
}

// loadgen drives the engine open-loop through serve.NewHandler, in process:
// reads are sent at their due times whatever is outstanding, ingest comes
// from one ordered producer, and every latency counts from the due time.
type loadgen struct {
	h       http.Handler
	w       workload
	rng     *mathx.RNG // read generation (dispatcher goroutine only)
	pop     *mathx.Alias
	perm    []int // node ranked i by popularity is perm[i]
	nodes   int
	st      *stream
	lastT   atomic.Uint64 // float64 bits of the newest acknowledged event time
	acked   []event       // acknowledged ingest, in order (producer only)
	roots   []sampler.Target
	keepRts int
}

func (g *loadgen) node() int32 {
	if g.pop != nil {
		return int32(g.perm[g.pop.Draw(g.rng)])
	}
	return int32(g.rng.Intn(g.nodes))
}

func (g *loadgen) queryTime() float64 { return math.Float64frombits(g.lastT.Load()) + 1 }

// step runs reads at rate and ingest at the workload's rate for d, then
// waits for every outstanding request. Reads still running when the drain
// grace ends count as failed.
func (g *loadgen) step(rate float64, d, drain time.Duration, record bool) *stepStats {
	st := &stepStats{rate: rate}
	n := int(rate * d.Seconds())
	reqs := make([]readReq, n)
	for i := range reqs {
		reqs[i] = readReq{predict: g.rng.Float64() < 0.8, a: g.node(), b: g.node()}
	}
	finish := make([]time.Time, n)
	ok := make([]bool, n)
	due := make([]time.Time, n)
	late := make([]float64, n)

	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g.ingest(st, start, end)
	}()

	var inflight atomic.Int64
	var reads sync.WaitGroup
	for i := range reqs {
		due[i] = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if w := time.Until(due[i]); w > 0 {
			time.Sleep(w)
		}
		now := time.Now()
		late[i] = ms(now.Sub(due[i]))
		if inflight.Load() >= maxInflight {
			continue // never sent: ok[i] stays false
		}
		qt := g.queryTime()
		if record && len(g.roots) < g.keepRts {
			g.roots = append(g.roots, sampler.Target{Node: reqs[i].a, Time: qt})
		}
		inflight.Add(1)
		reads.Add(1)
		go func(i int) {
			defer reads.Done()
			ok[i] = g.read(reqs[i], qt)
			finish[i] = time.Now()
			inflight.Add(-1)
		}(i)
	}
	deadline := end.Add(drain)
	reads.Wait()
	wg.Wait()

	st.attempted = n
	for i := range reqs {
		if ok[i] && !finish[i].After(deadline) {
			st.readLat = append(st.readLat, ms(finish[i].Sub(due[i])))
		} else {
			st.failed++
		}
	}
	q := max(n/4, 1)
	if n > 0 {
		st.lateFirst = stats.Quantile(late[:min(q, n)], 0.9)
		st.lateLast = stats.Quantile(late[n-min(q, n):], 0.9)
	}
	st.late = late
	return st
}

// ingest sends the workload's ordered event stream from one producer until
// end, each event due at a fixed interval and acknowledged before the next.
func (g *loadgen) ingest(st *stepStats, start, end time.Time) {
	interval := time.Duration(float64(time.Second) / g.w.ingestRPS)
	var body []byte
	for j := 0; ; j++ {
		due := start.Add(time.Duration(j) * interval)
		if !due.Before(end) {
			return
		}
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		ev := g.st.next()
		body = fmt.Appendf(body[:0], `{"src":%d,"dst":%d,"t":%s,"feat":[`, ev.src, ev.dst, strconv.FormatFloat(ev.t, 'g', -1, 64))
		for i, f := range ev.feat {
			if i > 0 {
				body = append(body, ',')
			}
			body = strconv.AppendFloat(body, f, 'g', -1, 64)
		}
		body = append(body, "]}"...)
		rec := httptest.NewRecorder()
		g.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body)))
		st.ingAttempt++
		switch {
		case rec.Code/100 == 2:
			st.ingestLat = append(st.ingestLat, ms(time.Since(due)))
			g.acked = append(g.acked, ev)
			g.lastT.Store(math.Float64bits(ev.t))
		case rec.Code == http.StatusConflict:
			st.conflicts++
			st.ingFail++
		default:
			st.ingFail++
		}
	}
}

// read performs one request and reports whether it was answered 2xx with
// a finite score (predict) or a finite embedding (embed).
func (g *loadgen) read(r readReq, qt float64) bool {
	t := strconv.FormatFloat(qt, 'g', -1, 64)
	var path string
	var body []byte
	if r.predict {
		path = "/v1/predict"
		body = fmt.Appendf(nil, `{"src":%d,"dst":%d,"t":%s}`, r.a, r.b, t)
	} else {
		path = "/v1/embed"
		body = fmt.Appendf(nil, `{"node":%d,"t":%s}`, r.a, t)
	}
	rec := httptest.NewRecorder()
	g.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code/100 != 2 {
		return false
	}
	var out struct {
		Score     *float64
		Embedding []float64
	}
	if json.Unmarshal(rec.Body.Bytes(), &out) != nil {
		return false
	}
	if r.predict {
		return out.Score != nil && finite(*out.Score)
	}
	if len(out.Embedding) == 0 {
		return false
	}
	for _, v := range out.Embedding {
		if !finite(v) {
			return false
		}
	}
	return true
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// servePhase measures the engine at the workload's nominal rate, then
// searches for the highest rate that meets the read SLO. It returns the
// generator, which holds the acknowledged ingest and the recorded roots.
func (s *session) servePhase(res *result) *loadgen {
	ds := s.ds
	g := &loadgen{
		h: serve.NewHandler(s.engine), w: s.w, nodes: ds.Spec.NumNodes,
		rng: mathx.NewRNG(s.o.seed ^ 0x5eed), keepRts: s.o.size.replayRoots,
	}
	if s.w.zipf {
		weights := make([]float64, g.nodes)
		for i := range weights {
			weights[i] = math.Pow(float64(i+1), -1.1)
		}
		g.pop = mathx.NewAlias(weights)
		g.perm = g.rng.Perm(g.nodes)
	}
	events := ds.Graph.Events
	last := events[len(events)-1].Time
	srcN := ds.Spec.NumSrc
	if srcN == 0 {
		srcN = ds.Spec.NumNodes
	}
	srcW := make([]float64, srcN)
	for i := range srcW {
		srcW[i] = math.Pow(float64(i+1), -1.1)
	}
	g.st = &stream{
		rng: mathx.NewRNG(s.o.seed ^ 0x1e57), srcPop: mathx.NewAlias(srcW),
		lo: ds.Spec.NumSrc, n: ds.Spec.NumNodes, t: last,
		gap:     (last - events[0].Time) / float64(len(events)),
		edgeDim: ds.Spec.EdgeDim,
	}
	g.lastT.Store(math.Float64bits(last))

	sec := s.o.seconds
	nomDur := time.Duration(s.o.size.nominal * sec * float64(time.Second))
	stepDur := time.Duration(s.o.size.step * sec * float64(time.Second))
	warmDur := time.Duration(s.o.size.warm * sec * float64(time.Second))
	drain := s.o.size.drain

	// Evaluation leaves a heap of a gigabyte or more behind it, and the GC
	// goal it set would let serving allocate as much again before
	// collecting: collect it now, so serving runs at its own heap size. Then
	// warm the embedding cache and the buffer pools at the nominal rate,
	// untimed.
	runtime.GC()
	debug.FreeOSMemory()
	g.step(s.w.readRPS, warmDur, drain, false)

	before := s.engine.Stats()
	s.tracer.beginServe()
	nom := g.step(s.w.readRPS, nomDur, drain, true)
	s.tracer.endServe(s.engine, before, nom)

	res.attempted += nom.attempted + nom.ingAttempt
	res.failed += nom.failed + nom.ingFail
	res.add("p50_ms", "ms", fmt.Sprintf("read latency from due time at %.0f req/s, %d reads", nom.rate, len(nom.readLat)),
		stats.Quantile(nom.readLat, 0.5))

	res.notes = append(res.notes, nom.String())
	steps := []*stepStats{nom}
	run := func(rate float64) *stepStats {
		st := g.step(rate, stepDur, drain, false)
		steps = append(steps, st)
		res.notes = append(res.notes, st.String())
		return st
	}
	// Walk a fixed geometric grid of rates through the workload's search
	// rate, after an untimed warm-up there (the engine's buffer pools grow
	// with the batch size): up after a step that meets the SLO, down after
	// one that misses it, until two neighbouring grid rates bracket the
	// highest rate in SLO. The grid is the same on every run, so the result
	// moves with the measured latencies rather than with a search path.
	g.step(s.w.searchRPS, warmDur, drain, false)
	for k, n := 0, 0; n < s.o.size.searchSteps; n++ {
		if run(s.w.searchRPS * math.Pow(gridFactor, float64(k))).meets() {
			k++
		} else {
			k--
		}
		if lo, hi := bracket(steps); lo != nil && hi != nil && hi.rate <= lo.rate*gridFactor*1.001 {
			break
		}
	}
	lo, hi := bracket(steps)
	maxRPS, how := maxInSLO(lo, hi)
	res.ungated = append(res.ungated,
		metric{name: "loadgen.read_p99_ms", unit: "ms", n: 1, value: nom.p99(),
			source: fmt.Sprintf("read latency from due time at %.0f req/s, %d reads (windowedP99)", nom.rate, len(nom.readLat))},
		metric{name: "loadgen.ingest_p99_ms", unit: "ms", n: 1, value: windowedP99(nom.ingestLat),
			source: fmt.Sprintf("ingest acknowledgement from due time at %.0f events/s, %d events (windowedP99)", s.w.ingestRPS, len(nom.ingestLat))},
		metric{name: "loadgen.max_rps_in_slo", unit: "req/s", n: 1, value: maxRPS,
			source: fmt.Sprintf("%d steps of %v from %.0f req/s, ×%.2f apart: %s", len(steps)-1, stepDur.Round(time.Millisecond), s.w.searchRPS, gridFactor, how)})

	conflicts := 0
	for _, st := range steps {
		conflicts += st.conflicts
	}
	res.check("ingest_no_409", conflicts == 0, "ordered ingest drew %d conflicts over %d steps", conflicts, len(steps))
	res.check("nominal_reads_ok", nom.failed == 0 && nom.ingFail == 0,
		"%d of %d reads and %d of %d ingests failed at the nominal rate", nom.failed, nom.attempted, nom.ingFail, nom.ingAttempt)
	return g
}

// bracket returns the slowest step that missed the SLO and the fastest step
// below it that met it; a step that met the SLO above a missed one is
// discounted as luck.
func bracket(steps []*stepStats) (lo, hi *stepStats) {
	for _, st := range steps {
		if !st.meets() && (hi == nil || st.rate < hi.rate) {
			hi = st
		}
	}
	for _, st := range steps {
		if st.meets() && (hi == nil || st.rate < hi.rate) && (lo == nil || st.rate > lo.rate) {
			lo = st
		}
	}
	return lo, hi
}

// maxInSLO returns the highest rate meeting the SLO, given the fastest step
// that met it (lo) and the slowest faster step that missed it (hi; nil when
// every step met it). When hi's p99 is over the limit, the rate where p99
// crosses it is interpolated log-linearly between the two; when hi missed
// on failures or lateness alone, lo's rate is the answer. When every step
// missed, the slowest is scaled down by the ratio of the limit to its p99.
func maxInSLO(lo, hi *stepStats) (float64, string) {
	desc := fmt.Sprintf("p99 ≤ %d ms, fails ≤ %.0f%%, lateness not growing", sloP99Ms, 100*maxFailFrac)
	switch {
	case lo == nil:
		return hi.rate * math.Min(1, sloP99Ms/hi.p99()), desc + "; every step missed, scaled down from the slowest"
	case hi == nil:
		return lo.rate, desc + "; no step missed, reports the fastest"
	}
	p1, p2 := lo.p99(), hi.p99()
	if p2 <= sloP99Ms {
		return lo.rate, desc + "; the missing step kept p99, reports the step below it"
	}
	f := (math.Log(sloP99Ms) - math.Log(p1)) / (math.Log(p2) - math.Log(p1))
	return lo.rate + (hi.rate-lo.rate)*f, desc + "; p99 crossing interpolated log-linearly"
}

// finalStream returns the dataset's events followed by the acknowledged
// ingest, with the matching edge-feature rows.
func (s *session) finalStream(g *loadgen) ([]tgraph.Event, *tensor.Matrix) {
	evs := append([]tgraph.Event(nil), s.ds.Graph.Events...)
	dim := s.ds.Spec.EdgeDim
	feats := tensor.New(len(evs)+len(g.acked), dim)
	copy(feats.Data, s.ds.EdgeFeat.Data[:len(evs)*dim])
	for i, ev := range g.acked {
		evs = append(evs, tgraph.Event{Src: ev.src, Dst: ev.dst, Time: ev.t})
		copy(feats.Row(len(s.ds.Graph.Events)+i), ev.feat)
	}
	return evs, feats
}

// probeCheck scores a fixed probe set on the serving engine and on a fresh
// engine bootstrapped with the same final stream; the scores must match bit
// for bit. Republishing the current weights under a new version first
// invalidates every cached embedding, so the serving engine recomputes too.
func (s *session) probeCheck(g *loadgen, res *result) {
	evs, feats := s.finalStream(g)
	s.engine.PublishSnapshot()
	if err := s.engine.PublishWeights(models.CaptureWeights(s.engine.WeightVersion()+1, s.model, s.pred)); err != nil {
		res.check("probe_bitwise", false, "republishing weights: %v", err)
		return
	}
	cfg := s.freshConfig()
	cfg.CacheSize = s.w.cacheSize
	fresh, err := serve.New(cfg)
	if err == nil {
		defer fresh.Close()
		err = fresh.Bootstrap(evs, feats)
	}
	if err != nil {
		res.check("probe_bitwise", false, "fresh engine: %v", err)
		return
	}
	rng := mathx.NewRNG(s.o.seed ^ 0x960be)
	qt := evs[len(evs)-1].Time + 1
	mismatch := 0
	for i := 0; i < s.o.size.probes; i++ {
		a, b := int32(rng.Intn(g.nodes)), int32(rng.Intn(g.nodes))
		live, err1 := s.engine.PredictLink(a, b, qt)
		ref, err2 := fresh.PredictLink(a, b, qt)
		if err1 != nil || err2 != nil || math.Float64bits(live.Score) != math.Float64bits(ref.Score) {
			mismatch++
		}
	}
	res.check("probe_bitwise", mismatch == 0,
		"%d of %d probe scores differ from a fresh engine bootstrapped with the final %d-event stream",
		mismatch, s.o.size.probes, len(evs))
}
