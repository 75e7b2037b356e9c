package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"taser/internal/datasets"
	"taser/internal/mathx"
	"taser/internal/overload"
	"taser/internal/sampler"
	"taser/internal/serve"
	"taser/internal/tensor"
	"taser/internal/tgraph"
	"taser/internal/train"
)

// This file is the one load generator behind -exp serve and -exp loadhttp:
// a Zipf(1.1) node-popularity table, a self-host constructor, one ingest
// producer, one closed-loop client loop and an open-loop arrival timeline,
// all driving a target — a serve.Server in process or a taser-serve HTTP
// API — so in-process and HTTP rows differ only in what sits behind it.

// outcome classifies one target call.
type outcome int

const (
	outOK     outcome = iota
	outStale          // ingest behind the watermark: HTTP 409 / serve.ErrStaleEvent
	outShed           // admission shed: HTTP 429 / overload.ErrOverload
	outFailed         // anything else, transport errors included
)

// result is one target call's outcome. err is set for every outcome but
// outOK; retryAfter is the shed's backoff hint (0 when missing).
type result struct {
	kind       outcome
	retryAfter time.Duration
	err        error
}

// target is what the generator drives. It hides whether the server is
// called in process or over HTTP/JSON, and lets tests substitute a fake.
type target interface {
	ingest(src, dst int32, t float64) result
	predict(src, dst int32, t float64) result
	embed(node int32, t float64) result
	// watermark is the live ingest watermark the producer resumes from.
	watermark() (float64, error)
}

// directTarget calls a serving backend in process.
type directTarget struct{ s serve.Server }

func (d directTarget) ingest(src, dst int32, t float64) result {
	return classify(d.s.Ingest(src, dst, t, nil))
}

func (d directTarget) predict(src, dst int32, t float64) result {
	_, err := d.s.PredictLink(src, dst, t)
	return classify(err)
}

func (d directTarget) embed(node int32, t float64) result {
	_, err := d.s.Embed(node, t)
	return classify(err)
}

func (d directTarget) watermark() (float64, error) {
	wm, _ := d.s.Watermark()
	return wm, nil
}

// classify maps an in-process serving error onto the outcome the HTTP layer
// would answer with.
func classify(err error) result {
	var rej *overload.RejectedError
	switch {
	case err == nil:
		return result{}
	case errors.Is(err, serve.ErrStaleEvent):
		return result{kind: outStale, err: err}
	case errors.As(err, &rej): // the shed error; it unwraps to overload.ErrOverload
		return result{kind: outShed, retryAfter: rej.RetryAfter, err: err}
	default:
		return result{kind: outFailed, err: err}
	}
}

// httpTarget drives a taser-serve HTTP API at its base URL.
type httpTarget string

func (h httpTarget) ingest(src, dst int32, t float64) result {
	return h.post("/v1/ingest", map[string]any{"src": src, "dst": dst, "t": t})
}

func (h httpTarget) predict(src, dst int32, t float64) result {
	return h.post("/v1/predict", map[string]any{"src": src, "dst": dst, "t": t})
}

func (h httpTarget) embed(node int32, t float64) result {
	return h.post("/v1/embed", map[string]any{"node": node, "t": t})
}

func (h httpTarget) watermark() (float64, error) {
	st, err := fetchStats(string(h))
	if err != nil {
		return 0, err
	}
	return statNum(st, "live_watermark")
}

func (h httpTarget) post(path string, body any) result {
	status, retryAfter, err := postJSONStatus(string(h)+path, body)
	switch {
	case err != nil:
		return result{kind: outFailed, err: err}
	case status/100 == 2:
		return result{}
	}
	err = fmt.Errorf("bench: POST %s: HTTP %d", path, status)
	switch status {
	case http.StatusConflict:
		return result{kind: outStale, err: err}
	case http.StatusTooManyRequests:
		secs, _ := strconv.Atoi(retryAfter) // missing or malformed: no hint
		return result{kind: outShed, retryAfter: time.Duration(secs) * time.Second, err: err}
	}
	return result{kind: outFailed, err: err}
}

// httpClient carries every request the generator sends: enough idle
// connections that 16 closed-loop clients or an open-loop burst reuse
// connections instead of paying a TCP handshake per request, and a hard
// timeout so a wedged server turns into an error or a counted loss, not a
// hung bench.
var httpClient = &http.Client{
	Timeout: 30 * time.Second,
	Transport: &http.Transport{
		MaxIdleConns:        512,
		MaxIdleConnsPerHost: 512,
	},
}

// postJSONStatus POSTs body and reports the response status and Retry-After
// header instead of folding non-2xx into an error — callers classify 409 and
// 429, they do not abort on them.
func postJSONStatus(url string, body any) (status int, retryAfter string, err error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, "", err
	}
	resp, err := httpClient.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body) // drain for connection reuse
	return resp.StatusCode, resp.Header.Get("Retry-After"), nil
}

// fetchStats GETs /v1/stats.
func fetchStats(base string) (map[string]any, error) {
	resp, err := httpClient.Get(base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("bench: GET /v1/stats: %s", resp.Status)
	}
	var st map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return st, nil
}

// pollStats waits for the server to come up (it may still be pretraining)
// and returns its first stats payload.
func pollStats(base string, wait time.Duration) (map[string]any, error) {
	deadline := time.Now().Add(wait)
	for {
		st, err := fetchStats(base)
		if err == nil {
			return st, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("bench: server at %s not ready after %v: %w", base, wait, err)
		}
		time.Sleep(250 * time.Millisecond)
	}
}

// statNum extracts a numeric /v1/stats field, erroring (instead of
// panicking on a type assertion) when the target server's schema lacks it —
// e.g. -serve-addr pointed at something other than a current taser-serve.
func statNum(st map[string]any, key string) (float64, error) {
	v, ok := st[key].(float64)
	if !ok {
		return 0, fmt.Errorf("bench: /v1/stats has no numeric %q — is the server a current taser-serve?", key)
	}
	return v, nil
}

// hostedServer is a self-hosted serving backend: an Engine or a Fleet.
type hostedServer interface {
	serve.Server
	Bootstrap(events []tgraph.Event, feats *tensor.Matrix) error
	Close()
}

// selfHost builds a trainer for model, an Engine (shards == 0) or a
// K-shard Fleet over its model, and bootstraps it with the training split.
// Weights are irrelevant to serving performance, so nothing is pretrained.
func selfHost(o Options, ds *datasets.Dataset, model train.ModelKind, shards, cacheSize int, ov overload.Config) (hostedServer, error) {
	tr, err := train.New(train.Config{
		Model: model, Finder: train.FinderGPU, FinderPolicy: "recent",
		Hidden: o.Hidden, TimeDim: o.TimeDim, Seed: o.Seed,
	}, ds)
	if err != nil {
		return nil, err
	}
	cfg := serve.Config{
		Model: tr.Model, Pred: tr.Pred,
		NumNodes: ds.Spec.NumNodes, NodeFeat: ds.NodeFeat, EdgeDim: ds.Spec.EdgeDim,
		Budget: tr.Cfg.N, Policy: sampler.MostRecent,
		MaxBatch: 32, MaxWait: 500 * time.Microsecond,
		CacheSize: cacheSize, SnapshotEvery: 128, Seed: o.Seed,
		Overload: ov,
	}
	var h hostedServer
	if shards == 0 {
		h, err = serve.New(cfg)
	} else {
		h, err = serve.NewFleet(serve.FleetConfig{Config: cfg, Shards: shards})
	}
	if err != nil {
		return nil, err
	}
	if err := h.Bootstrap(ds.Graph.Events[:ds.TrainEnd], ds.EdgeFeat.SliceRows(ds.TrainEnd)); err != nil {
		h.Close()
		return nil, err
	}
	return h, nil
}

// loadGen draws the request and event mix: node popularity is Zipfian
// (exponent 1.1) over the target's node space, so cache columns are
// comparable across rows and experiments.
type loadGen struct {
	zipf *mathx.Alias
	seed uint64
}

func newLoadGen(numNodes int, seed uint64) *loadGen {
	weights := make([]float64, numNodes)
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -1.1)
	}
	return &loadGen{zipf: mathx.NewAlias(weights), seed: seed}
}

// request is one draw of the serving mix: 80% link prediction, 20% embedding.
type request struct {
	predict  bool
	src, dst int32
}

func (g *loadGen) draw(rng *mathx.RNG) request {
	r := request{src: int32(g.zipf.Draw(rng))}
	if rng.Float64() < 0.8 {
		r.predict, r.dst = true, int32(g.zipf.Draw(rng))
	}
	return r
}

func (r request) send(t target, qt float64) result {
	if r.predict {
		return t.predict(r.src, r.dst, qt)
	}
	return t.embed(r.src, qt)
}

// queryTime is "now" for every request of a run: 1e9 past the target's
// watermark, far above any tick the producer reaches, so queries stay at or
// after every event in any snapshot they pin.
func queryTime(t target) (float64, error) {
	wm, err := t.watermark()
	return wm + 1e9, err
}

// ingest streams events at rate events/s, resuming past the target's live
// watermark (a fixed base would land behind the previous row's stream),
// until stop closes. It is the only producer, because the watermark contract
// serializes writers. A stale event is skipped; any other outcome stops the
// producer and is returned. n counts the admitted events.
func (g *loadGen) ingest(t target, rate float64, stop <-chan struct{}) (n int, err error) {
	tick, err := t.watermark()
	if err != nil {
		return 0, err
	}
	rng := mathx.NewRNG(g.seed ^ 0xfeed)
	interval := time.Duration(float64(time.Second) / rate)
	for {
		select {
		case <-stop:
			return n, nil
		default:
		}
		tick++
		switch res := t.ingest(int32(g.zipf.Draw(rng)), int32(rng.Intn(g.zipf.Len())), tick); res.kind {
		case outOK:
			n++
		case outStale: // raced past the watermark: skip the event
		default:
			return n, fmt.Errorf("bench: ingest producer failed: %w", res.err)
		}
		time.Sleep(interval)
	}
}

// closedRun is one closed-loop row's client-side measurements.
type closedRun struct {
	lats     []float64 // per-request latency, seconds
	elapsed  time.Duration
	ingested int
}

// closedLoop runs one closed-loop row: clients goroutines each send reqs
// back-to-back requests of the serving mix, so a slow server throttles its
// own offered load, while (rate > 0) one ingest producer streams events
// underneath. Any outcome but ok fails the row.
func (g *loadGen) closedLoop(t target, clients, reqs int, rate float64) (closedRun, error) {
	qt, err := queryTime(t)
	if err != nil {
		return closedRun{}, err
	}
	stop := make(chan struct{})
	var ingested int
	var ingestErr error // producer-owned until ingestWG.Wait
	var ingestWG sync.WaitGroup
	if rate > 0 {
		ingestWG.Add(1)
		go func() {
			defer ingestWG.Done()
			ingested, ingestErr = g.ingest(t, rate, stop)
		}()
	}

	lats := make([][]float64, clients)
	errs := make([]error, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := mathx.NewRNG(g.seed + uint64(c)*7919)
			for i := 0; i < reqs; i++ {
				t0 := time.Now()
				if res := g.draw(rng).send(t, qt); res.kind != outOK {
					errs[c] = res.err
					return
				}
				lats[c] = append(lats[c], time.Since(t0).Seconds())
			}
		}(c)
	}
	wg.Wait()
	run := closedRun{elapsed: time.Since(start)}
	close(stop)
	ingestWG.Wait()
	if ingestErr != nil {
		return run, ingestErr
	}
	for _, err := range errs {
		if err != nil {
			return run, err
		}
	}
	for _, l := range lats {
		run.lats = append(run.lats, l...)
	}
	run.ingested = ingested
	return run, nil
}

// openSecond is one second of the open-loop timeline's accounting, keyed by
// arrival time (a request that arrives in second 3 and completes in second 7
// counts against second 3 — that tail is exactly the congestion signal).
type openSecond struct {
	phase     string
	offered   int
	completed int
	shed      int
	errs      int
	lats      []float64 // seconds, completed requests only
}

// openRun is an open-loop timeline's accounting.
type openRun struct {
	secs          []openSecond
	lost          int // launched but unanswered when the bounded drain ended
	shedMissingRA int // sheds without a usable Retry-After
}

// openLoop drives the three-phase constant-arrival-rate timeline — arrivals
// come on schedule regardless of completions, which is how real overload
// behaves. It is continuous (no drain between phases, so a backlog built in
// the burst is visible in recovery):
//
//	baseline  rate/4 for dur
//	burst     rate for dur
//	recovery  rate/4 for dur
func (g *loadGen) openLoop(t target, rate float64, dur time.Duration) (openRun, error) {
	qt, err := queryTime(t)
	if err != nil {
		return openRun{}, err
	}
	phases := []struct {
		name string
		rate float64
	}{
		{"baseline", rate / 4},
		{"burst", rate},
		{"recovery", rate / 4},
	}
	run := openRun{secs: make([]openSecond, int(3*dur/time.Second)+2)}
	var mu sync.Mutex // guards run and finished against completion goroutines
	finished := false // set once the drain ends: stragglers stop recording
	var wg sync.WaitGroup
	var launched int
	rng := mathx.NewRNG(g.seed ^ 0x09e2)

	start := time.Now()
	for _, ph := range phases {
		interval := time.Duration(float64(time.Second) / ph.rate)
		phEnd := time.Now().Add(dur)
		next := time.Now()
		for {
			now := time.Now()
			if !now.Before(phEnd) {
				break
			}
			if now.Before(next) {
				time.Sleep(next.Sub(now))
			}
			next = next.Add(interval)
			sec := min(int(time.Since(start)/time.Second), len(run.secs)-1)
			mu.Lock()
			run.secs[sec].phase = ph.name
			run.secs[sec].offered++
			mu.Unlock()
			launched++

			req := g.draw(rng)
			wg.Add(1)
			go func() {
				defer wg.Done()
				t0 := time.Now()
				res := req.send(t, qt)
				lat := time.Since(t0).Seconds()
				mu.Lock()
				defer mu.Unlock()
				if finished {
					return
				}
				s := &run.secs[sec]
				switch res.kind {
				case outOK:
					s.completed++
					s.lats = append(s.lats, lat)
				case outShed:
					s.shed++
					if res.retryAfter <= 0 {
						run.shedMissingRA++
					}
				default:
					s.errs++
				}
			}()
		}
	}

	// Bounded drain: an open-loop run must not hang on a wedged server —
	// whatever has not completed well past the timeline is counted lost.
	joined := make(chan struct{})
	go func() { wg.Wait(); close(joined) }()
	select {
	case <-joined:
	case <-time.After(2*dur + 30*time.Second):
	}
	mu.Lock()
	defer mu.Unlock()
	finished = true
	run.lost = launched
	for _, s := range run.secs {
		run.lost -= s.completed + s.shed + s.errs
	}
	return run, nil
}
