package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"taser/internal/adaptive"
	"taser/internal/datasets"
	"taser/internal/models"
	"taser/internal/sampler"
	"taser/internal/serve"
	"taser/internal/train"
	"taser/internal/wal"
)

// trainSeed seeds the training dataset and the model (taser-train's and
// taser-serve's default seed). Training is the same on every run, as in the
// paper's protocol of one dataset per table row: test MRR differs by ±15%
// between seeds at this scale, more than any bound could absorb, while a
// fixed seed keeps it exact. --seed drives the serving traffic, the ingest
// stream and the probes.
const trainSeed = 42

// evalNegatives is EvalMRR's negative count per evaluated edge. EvalMRR
// holds a 50-edge chunk of (2 + negatives) roots in memory at once; at the
// paper's 49 the TASER evaluation alone peaks near 3.8 GB, so the benchmark
// ranks against 19, which keeps it under 2 GB. The test_mrr check compares
// against the random-ranking MRR of this count.
const evalNegatives = 19

// budget is the supporting neighbors per hop, in training and serving.
const budget = 10

// session is one set-up instance: the training dataset, the trainer and the
// serving engine bootstrapped with the dataset's stream.
type session struct {
	w      workload
	o      options
	tracer *tracer

	ds     *datasets.Dataset
	tr     *train.Trainer // dropped once serving starts, as taser-serve does
	model  models.TGNN    // the trained model, without a timing wrapper
	pred   *models.EdgePredictor
	engine *serve.Engine
	fault  *wal.FaultFS // the durable engine's FS layer (nil when in memory)
	dir    string       // the durable engine's store (empty when in memory)
}

// newSession generates the dataset and builds the trainer and the engine,
// bootstrapped with every event of the dataset: the set-up that setup_s
// times.
func newSession(w workload, o options, tr *tracer, idx int) (*session, error) {
	s := &session{w: w, o: o, tracer: tr}
	s.ds = datasets.Wikipedia(trainScale, trainSeed)
	cfg := train.Config{
		Model: train.ModelTGAT, Finder: train.FinderGPU,
		Hidden: 24, BatchSize: 150, N: budget, Seed: trainSeed,
		EvalNegatives: evalNegatives,
	}
	if w.taser {
		// taser-train -taser defaults.
		cfg.LR = 3e-3
		cfg.M = 25
		cfg.AdaBatch, cfg.AdaNeighbor = true, true
		cfg.Decoder = adaptive.DecoderGATv2
		cfg.CacheRatio = 0.2
	} else {
		// taser-serve's pretraining.
		cfg.FinderPolicy = "recent"
	}
	var err error
	if s.tr, err = train.New(cfg, s.ds); err != nil {
		return nil, err
	}
	s.model, s.pred = s.tr.Model, s.tr.Pred
	s.tr.Model = tr.wrapModel(s.model, phaseTrain)

	// The engine serves the trainer's parameters, which training updates in
	// place; everything else is taser-serve's default.
	scfg := s.engineConfig(tr.wrapModel(s.model, phaseServe), s.pred)
	scfg.CacheSize = w.cacheSize
	if w.durable {
		s.dir = filepath.Join(o.dir, "store-"+strconv.Itoa(idx))
		s.fault = wal.NewFaultFS(wal.OSFS{})
		scfg.Durability = serve.Durability{Dir: s.dir, FS: tr.wrapFS(s.fault)}
	}
	if s.engine, err = serve.New(scfg); err != nil {
		return nil, err
	}
	if err := s.engine.Bootstrap(s.ds.Graph.Events, s.ds.EdgeFeat); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// engineConfig is the serving configuration of every engine a session
// builds: taser-serve's defaults over the given model.
func (s *session) engineConfig(model models.TGNN, pred *models.EdgePredictor) serve.Config {
	return serve.Config{
		Model: model, Pred: pred,
		NumNodes: s.ds.Spec.NumNodes, NodeFeat: s.ds.NodeFeat, EdgeDim: s.ds.Spec.EdgeDim,
		Budget: budget, Policy: sampler.MostRecent, Seed: s.o.seed,
	}
}

// freshConfig is engineConfig over a fresh copy of the trained model.
func (s *session) freshConfig() serve.Config { return s.engineConfig(s.model.Clone(), s.pred.Clone()) }

// close stops the engine and deletes its store.
func (s *session) close() {
	if s.engine != nil {
		s.engine.Close()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// trainPhase runs the fixed epochs. Throughput is the median over the
// epochs after the first, which warms Algorithm 3's feature cache and the
// buffer pools.
func (s *session) trainPhase(res *result) {
	epochs := trainEpochs
	var rates []float64
	finite := true
	for e := 0; e < epochs; e++ {
		if e == 1 {
			s.tracer.beginTrain(s.tr)
		}
		start := time.Now()
		r := s.tr.TrainEpoch()
		d := time.Since(start)
		finite = finite && !math.IsNaN(r.MeanLoss) && !math.IsInf(r.MeanLoss, 0)
		if e >= 1 {
			rates = append(rates, float64(s.ds.TrainEnd)/d.Seconds())
		}
	}
	s.tracer.endTrain(s.tr, epochs-1)
	res.addSamples("train_edges_per_s", "edges/s",
		fmt.Sprintf("TrainEpoch wall time, median of epochs 2..%d, %d positive edges each", epochs, s.ds.TrainEnd), rates)
	res.check("train_loss_finite", finite, "every epoch's mean loss is finite (%d epochs)", epochs)
}

// evalPhase ranks each evaluated edge against evalNegatives random
// destinations (EvalMRR) on test, and on val first when the workload asks.
func (s *session) evalPhase(res *result) {
	s.tracer.setPhase(phaseEval)
	start := time.Now()
	edges := 0
	if s.w.evalVal {
		s.tr.EvalMRR(train.SplitVal)
		edges += s.ds.ValEvents()
	}
	mrr := s.tr.EvalMRR(train.SplitTest)
	edges += s.ds.TestEvents()
	d := time.Since(start)

	splits := "test"
	if s.w.evalVal {
		splits = "val + test"
	}
	res.add("eval_edges_per_s", "edges/s", fmt.Sprintf("EvalMRR wall time over %s, %d edges", splits, edges),
		float64(edges)/d.Seconds())
	res.add("test_mrr", "1", fmt.Sprintf("EvalMRR(test), %d negatives per edge", evalNegatives), mrr)
	if s.w.taser {
		// The paper's claim is about TASER's accuracy; the short pretraining
		// of the serve workloads is not expected to beat chance reliably.
		chance := randomMRR(evalNegatives)
		res.check("test_mrr_above_random", mrr > chance, "test MRR %.4f > random-ranking MRR %.4f", mrr, chance)
	}
}

// randomMRR is the expected MRR of a ranking that places the positive
// uniformly among k negatives: H(k+1)/(k+1).
func randomMRR(k int) float64 {
	var h float64
	for r := 1; r <= k+1; r++ {
		h += 1 / float64(r)
	}
	return h / float64(k+1)
}

// peakRSSMB reads the process's peak resident set (VmHWM) from
// /proc/self/status; where that is unavailable it falls back to the memory
// the Go runtime obtained from the OS.
func peakRSSMB() (float64, string) {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024, "/proc/self/status VmHWM"
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20), "runtime.MemStats.Sys"
}
