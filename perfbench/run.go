package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"
)

// endToEnd are the metrics an untraced run reports, in order.
var endToEnd = []string{
	"setup_s", "peak_rss_mb", "train_edges_per_s", "eval_edges_per_s", "test_mrr",
	"p50_ms",
}

// run executes one session of w. An untraced run returns the end-to-end
// metrics; a traced run returns the per-layer metrics, followed by its own
// end-to-end values under traced.* — their gap to an untraced run of the
// same seed is the tracing overhead.
func run(w workload, o options) (*result, error) {
	t := newTracer(o.trace)
	var prof bytes.Buffer
	if t != nil {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	res, err := runSession(w, o, t)
	if t != nil {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return nil, err
	}
	if t == nil {
		return res, nil
	}

	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for _, mod := range append(append([]string(nil), cpuModules...), "runtime", "perfbench") {
		t.add(mod+".cpu_share", "1", "CPU profile of the traced run, innermost internal/ frame", shares[mod])
	}
	traced := &result{notes: res.notes, checks: res.checks, attempted: res.attempted, failed: res.failed,
		metrics: append(t.layers, res.ungated...)}
	for _, name := range endToEnd {
		if m, ok := res.get(name); ok {
			m.name = "traced." + name
			m.source = "this traced run; tracing overhead is its gap to an untraced run: " + m.source
			traced.metrics = append(traced.metrics, m)
		}
	}
	return traced, nil
}

// runSession runs the phases of one session and returns the end-to-end
// metrics and checks.
func runSession(w workload, o options, t *tracer) (*result, error) {
	res := &result{}
	var s *session
	var setups []float64
	for i := 0; i < o.size.setups; i++ {
		if s != nil {
			s.close()
		}
		runtime.GC() // each set-up starts from a collected heap
		start := time.Now()
		var err error
		if s, err = newSession(w, o, t, i); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer s.close()
	res.addSamples("setup_s", "s", fmt.Sprintf("dataset generation + trainer and engine construction + bootstrap, median of %d", len(setups)), setups)

	s.trainPhase(res)
	s.evalPhase(res)
	t.endEval()
	s.tr = nil // serving holds only the model, so training and evaluation memory can go
	g := s.servePhase(res)
	if err := t.replays(s, g); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	if s.fault != nil {
		s.fault.Kill() // the unclean stop comes before anything else touches the store
	}
	s.probeCheck(g, res)
	if err := s.recoverPhase(g, res); err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	rss, src := peakRSSMB()
	res.add("peak_rss_mb", "MB", src, rss)
	return res, nil
}
