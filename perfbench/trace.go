package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"taser/internal/autograd"
	"taser/internal/models"
	"taser/internal/sampler"
	"taser/internal/serve"
	"taser/internal/stats"
	"taser/internal/tgraph"
	"taser/internal/train"
	"taser/internal/wal"
)

// phase labels which part of a session a model forward belongs to.
type phase int32

const (
	phaseTrain phase = iota
	phaseEval
	phaseServe
	numPhases
)

// tracer measures the layers of a traced run from outside the program: it
// wraps the seams the program accepts (models.TGNN, wal.FS) and reads the
// counters it exports. A nil tracer — the untraced run — wraps nothing and
// records nothing.
type tracer struct {
	trainerPhase atomic.Int32 // phase of the trainer's forwards: train or eval

	fwdNanos, fwdRoots [numPhases]atomic.Int64

	walWrites, walWriteNanos, walSyncs, walSyncNanos atomic.Int64

	// Counters at the start of the measured window of the train phase.
	timer0   map[string]time.Duration
	modeled0 time.Duration
	pcie0    int64
	vram0    int64
	mallocs0 uint64
	fwd0     int64

	// Counters at the start of the nominal serving step.
	serveFwd0, serveRoots0       int64
	walW0, walWN0, walS0, walSN0 int64

	layers []metric
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{}
}

func (t *tracer) add(name, unit, source string, v float64) {
	t.layers = append(t.layers, metric{name: name, unit: unit, source: source, value: v, n: 1})
}

// timedModel times every Forward of the model it wraps and counts its roots.
type timedModel struct {
	models.TGNN
	t     *tracer
	phase phase // phaseTrain: follow the trainer's current phase
}

func (m *timedModel) Forward(g *autograd.Graph, mb *models.MiniBatch) (*autograd.Var, *models.CoTrainInfo) {
	start := time.Now()
	out, info := m.TGNN.Forward(g, mb)
	d := time.Since(start)
	p := m.phase
	if p == phaseTrain {
		p = phase(m.t.trainerPhase.Load())
	}
	m.t.fwdNanos[p].Add(int64(d))
	if n := len(mb.Layers); n > 0 {
		m.t.fwdRoots[p].Add(int64(mb.Layers[n-1].NumTargets))
	}
	return out, info
}

func (t *tracer) wrapModel(m models.TGNN, p phase) models.TGNN {
	if t == nil {
		return m
	}
	return &timedModel{TGNN: m, t: t, phase: p}
}

// timedFS times the writes and fsyncs of the files the WAL creates.
type timedFS struct {
	wal.FS
	t *tracer
}

type timedFile struct {
	wal.File
	t *tracer
}

func (f timedFS) Create(name string) (wal.File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return timedFile{File: file, t: f.t}, nil
}

func (f timedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.t.walWriteNanos.Add(int64(time.Since(start)))
	f.t.walWrites.Add(1)
	return n, err
}

func (f timedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.t.walSyncNanos.Add(int64(time.Since(start)))
	f.t.walSyncs.Add(1)
	return err
}

func (t *tracer) wrapFS(fs wal.FS) wal.FS {
	if t == nil {
		return fs
	}
	return timedFS{FS: fs, t: t}
}

func (t *tracer) setPhase(p phase) {
	if t != nil {
		t.trainerPhase.Store(int32(p))
	}
}

// beginTrain snapshots the trainer's exported counters before the measured
// epochs.
func (t *tracer) beginTrain(tr *train.Trainer) {
	if t == nil {
		return
	}
	t.timer0 = map[string]time.Duration{}
	for _, b := range []string{"NF", "AS", "FS", "PP"} {
		t.timer0[b] = tr.Timer.Get(b)
	}
	t.modeled0 = tr.Xfer.ModeledTime()
	t.pcie0, t.vram0 = tr.Xfer.PCIeBytes(), tr.Xfer.VRAMBytes()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.mallocs0 = ms.Mallocs
	t.fwd0 = t.fwdNanos[phaseTrain].Load()
}

// endTrain reports the Table III split per measured epoch, with simulated
// transfer time kept apart from the wall-clock buckets.
func (t *tracer) endTrain(tr *train.Trainer, epochs int) {
	if t == nil || epochs < 1 {
		return
	}
	per := func(d time.Duration) float64 { return d.Seconds() / float64(epochs) }
	delta := func(b string) time.Duration { return tr.Timer.Get(b) - t.timer0[b] }
	modeled := tr.Xfer.ModeledTime() - t.modeled0
	t.add("sampler.nf_s", "s", "Trainer.Timer NF per epoch (epochs after the first)", per(delta("NF")))
	t.add("adaptive.as_s", "s", "Trainer.Timer AS per epoch", per(delta("AS")))
	t.add("train.pp_s", "s", "Trainer.Timer PP per epoch", per(delta("PP")))
	t.add("featstore.copy_s", "s", "Trainer.Timer FS minus Xfer.ModeledTime per epoch (wall clock)", per(delta("FS")-modeled))
	t.add("featstore.modeled_s", "s", "Xfer.ModeledTime per epoch (simulated PCIe/VRAM, not wall clock)", per(modeled))
	t.add("featstore.pcie_mb", "MB", "Xfer.PCIeBytes per epoch (simulated)", float64(tr.Xfer.PCIeBytes()-t.pcie0)/1e6/float64(epochs))
	t.add("featstore.vram_mb", "MB", "Xfer.VRAMBytes per epoch (simulated)", float64(tr.Xfer.VRAMBytes()-t.vram0)/1e6/float64(epochs))
	hit := 0.0
	if pol := tr.EdgeStore.Policy(); pol != nil {
		hit = pol.HitRate()
	}
	t.add("cache.hit_ratio", "1", "EdgeStore.Policy().HitRate() over all epochs (0: no feature cache)", hit)
	t.add("models.forward_s", "s", "models.TGNN wrapper on Trainer.Model, forward time per epoch",
		per(time.Duration(t.fwdNanos[phaseTrain].Load()-t.fwd0)))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	steps := epochs * ((tr.DS.TrainEnd + tr.Cfg.BatchSize - 1) / tr.Cfg.BatchSize)
	t.add("train.allocs_per_step", "count", "runtime.MemStats.Mallocs per training step", float64(ms.Mallocs-t.mallocs0)/float64(steps))
	t.add("runtime.gc_cpu_fraction", "1", "runtime.MemStats.GCCPUFraction after training", ms.GCCPUFraction)
}

// endEval reports the evaluation forward time.
func (t *tracer) endEval() {
	if t == nil {
		return
	}
	t.add("models.eval_forward_s", "s", "models.TGNN wrapper on Trainer.Model, forward time over EvalMRR",
		time.Duration(t.fwdNanos[phaseEval].Load()).Seconds())
}

func (t *tracer) beginServe() {
	if t == nil {
		return
	}
	t.serveFwd0, t.serveRoots0 = t.fwdNanos[phaseServe].Load(), t.fwdRoots[phaseServe].Load()
	t.walW0, t.walWN0 = t.walWrites.Load(), t.walWriteNanos.Load()
	t.walS0, t.walSN0 = t.walSyncs.Load(), t.walSyncNanos.Load()
}

// endServe reports the engine's counters over the nominal step.
func (t *tracer) endServe(e *serve.Engine, before serve.Stats, nom *stepStats) {
	if t == nil {
		return
	}
	st := e.Stats()
	lookups := float64(st.CacheHits + st.CacheMisses - before.CacheHits - before.CacheMisses)
	ratio := func(n uint64) float64 {
		if lookups == 0 {
			return 0
		}
		return float64(n) / lookups
	}
	t.add("serve.cache_hit_ratio", "1", "Engine.Stats() cache hits over lookups, nominal step", ratio(st.CacheHits-before.CacheHits))
	t.add("serve.cache_stale_ratio", "1", "Engine.Stats() stale entries over lookups, nominal step", ratio(st.CacheStale-before.CacheStale))
	avg := 0.0
	if b := st.Batches - before.Batches; b > 0 {
		avg = float64(st.Roots-before.Roots) / float64(b)
	}
	t.add("serve.avg_batch", "roots", "Engine.Stats() non-cached roots per forward, nominal step", avg)
	t.add("serve.engine_p50_ms", "ms", "Engine.Stats().P50 at the end of the nominal step", ms(st.P50))
	t.add("serve.engine_p99_ms", "ms", "Engine.Stats().P99 at the end of the nominal step", ms(st.P99))
	perRoot := 0.0
	if r := t.fwdRoots[phaseServe].Load() - t.serveRoots0; r > 0 {
		perRoot = float64(t.fwdNanos[phaseServe].Load()-t.serveFwd0) / 1e3 / float64(r)
	}
	t.add("models.forward_us_per_root", "us", "models.TGNN wrapper on serve.Config.Model, nominal step", perRoot)
	mean := func(nanos, n int64, unit time.Duration) float64 {
		if n == 0 {
			return 0
		}
		return float64(nanos) / float64(n) / float64(unit)
	}
	writes, syncs := t.walWrites.Load()-t.walW0, t.walSyncs.Load()-t.walS0
	t.add("wal.write_us", "us", "wal.File wrapper: mean Write, nominal step (0: in memory)",
		mean(t.walWriteNanos.Load()-t.walWN0, writes, time.Microsecond))
	t.add("wal.fsync_ms", "ms", "wal.File wrapper: mean Sync, nominal step (0: in memory)",
		mean(t.walSyncNanos.Load()-t.walSN0, syncs, time.Millisecond))
	t.add("wal.syncs", "count", "wal.File wrapper: Sync calls, nominal step", float64(syncs))
	t.add("loadgen.late_p99_ms", "ms", "generator send lateness behind due time, nominal step", stats.Quantile(nom.late, 0.99))
}

// replays times public layer APIs on the run's recorded inputs: the read
// roots through train.InferenceBuilder.Build on the final snapshot, and the
// final stream through tgraph.Builder with a snapshot every 256 events.
func (t *tracer) replays(s *session, g *loadgen) error {
	if t == nil {
		return nil
	}
	snap := s.engine.Pin()
	b, err := train.NewInferenceBuilder(train.InferConfig{
		TCSR: snap.TCSR, NodeFeat: s.ds.NodeFeat, EdgeFeat: snap.EdgeFeat,
		Layers: s.model.NumLayers(), Budget: budget,
		Policy: sampler.MostRecent, Seed: s.o.seed,
	})
	if err != nil {
		return err
	}
	var buildNanos int64
	for lo := 0; lo < len(g.roots); lo += 32 {
		roots := g.roots[lo:min(lo+32, len(g.roots))]
		start := time.Now()
		mb := b.Build(roots)
		buildNanos += int64(time.Since(start))
		b.Release(mb)
	}
	perRoot := 0.0
	if len(g.roots) > 0 {
		perRoot = float64(buildNanos) / 1e3 / float64(len(g.roots))
	}
	t.add("train.build_us_per_root", "us",
		fmt.Sprintf("replay: InferenceBuilder.Build, %d recorded read roots in batches of 32", len(g.roots)), perRoot)

	evs, _ := s.finalStream(g)
	gb := tgraph.NewBuilder(s.ds.Spec.NumNodes)
	var snapNanos, snaps int64
	for i, ev := range evs {
		if err := gb.Add(ev.Src, ev.Dst, ev.Time); err != nil {
			return err
		}
		if (i+1)%256 == 0 {
			start := time.Now()
			gb.Snapshot()
			snapNanos += int64(time.Since(start))
			snaps++
		}
	}
	t.add("tgraph.snapshot_us", "us",
		fmt.Sprintf("replay: tgraph.Builder.Snapshot every 256 of the final %d events", len(evs)),
		float64(snapNanos)/1e3/float64(max(snaps, 1)))
	return nil
}

// recovered reports the WAL's recovery cost per recovered event.
func (t *tracer) recovered(rep serve.RecoveryReport) {
	if t == nil {
		return
	}
	n := rep.CheckpointEvents + rep.ReplayedEvents
	t.add("wal.replay_us_per_event", "us",
		fmt.Sprintf("RecoveryReport: Duration over %d checkpointed + %d replayed events", rep.CheckpointEvents, rep.ReplayedEvents),
		float64(rep.Duration.Microseconds())/float64(max(n, 1)))
}
