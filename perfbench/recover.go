package main

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"

	"taser/internal/serve"
	"taser/internal/tgraph"
	"taser/internal/wal"
)

// walSyncEvery is serve.Durability's default group commit: the most events
// an unclean stop may lose.
const walSyncEvery = 64

// stopUncleanly kills the serving engine's store when it has one. For an
// in-memory workload it writes the run's final stream into a durable engine
// the same way — bootstrap, then the acknowledged ingest one event at a
// time — and kills that. Either way it returns the uncleanly stopped store.
func (s *session) stopUncleanly(g *loadgen) (string, error) {
	if s.fault != nil {
		s.fault.Kill()
		return s.dir, nil
	}
	dir := filepath.Join(s.o.dir, "built")
	fault := wal.NewFaultFS(wal.OSFS{})
	cfg := s.freshConfig()
	cfg.Durability = serve.Durability{Dir: dir, FS: fault}
	e, err := serve.New(cfg)
	if err != nil {
		return "", err
	}
	defer e.Close()
	if err := e.Bootstrap(s.ds.Graph.Events, s.ds.EdgeFeat); err != nil {
		return "", err
	}
	for _, ev := range g.acked {
		if err := e.Ingest(ev.src, ev.dst, ev.t, ev.feat); err != nil {
			return "", err
		}
	}
	fault.Kill()
	return dir, nil
}

// recoverPhase recovers copies of the uncleanly stopped store into fresh
// engines and checks each against the acknowledged stream.
func (s *session) recoverPhase(g *loadgen, res *result) error {
	store, err := s.stopUncleanly(g)
	if err != nil {
		return fmt.Errorf("stopping the store: %w", err)
	}
	defer os.RemoveAll(store)
	evs, _ := s.finalStream(g)
	var secs []float64
	var last serve.RecoveryReport
	okAll := true
	detail := ""
	for i := 0; i < s.o.size.recoveries; i++ {
		dir := filepath.Join(s.o.dir, "recover-"+strconv.Itoa(i))
		if err := copyDir(store, dir); err != nil {
			return err
		}
		runtime.GC() // each recovery starts from a collected heap
		rep, n, err := s.recoverOnce(dir)
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
		secs = append(secs, rep.Duration.Seconds())
		last = rep
		ok, d := recoveredMatches(evs, n, rep)
		if i == 0 || (okAll && !ok) {
			detail = d // the first recovery's, or the first failure's
		}
		okAll = okAll && ok
	}
	med, spread := medianSpread(secs)
	res.ungated = append(res.ungated, metric{name: "wal.recover_s", unit: "s", value: med, spread: spread, n: len(secs),
		source: fmt.Sprintf("RecoveryReport.Duration of Engine.Recover, median of %d fresh engines", len(secs))})
	res.check("recovered_stream", okAll, "%s", detail)
	s.tracer.recovered(last)
	return nil
}

// recoverOnce builds a fresh durable engine over dir and recovers it,
// returning the report and the recovered event count.
func (s *session) recoverOnce(dir string) (serve.RecoveryReport, int, error) {
	cfg := s.freshConfig()
	cfg.Durability = serve.Durability{Dir: dir}
	e, err := serve.New(cfg)
	if err != nil {
		return serve.RecoveryReport{}, 0, err
	}
	defer e.Close()
	rep, err := e.Recover()
	if err != nil {
		return rep, 0, fmt.Errorf("recover: %w", err)
	}
	return rep, e.NumEvents(), nil
}

// recoveredMatches checks a recovery against the acknowledged stream: at
// most the unsynced tail is lost, and the watermark is the time of the last
// recovered event.
func recoveredMatches(evs []tgraph.Event, n int, rep serve.RecoveryReport) (bool, string) {
	lost := len(evs) - n
	d := fmt.Sprintf("recovered %d of %d acknowledged events (tail bound %d)", n, len(evs), walSyncEvery)
	if lost < 0 || lost >= walSyncEvery || n == 0 {
		return false, d
	}
	if !rep.HasWatermark || rep.Watermark != evs[n-1].Time {
		return false, d + fmt.Sprintf("; watermark %v, want %v", rep.Watermark, evs[n-1].Time)
	}
	return true, d + ", watermark matches"
}

// copyDir copies the regular files under src into dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
