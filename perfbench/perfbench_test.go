package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"taser/internal/tensor"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json the test
// holds the program to.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if got, want := names, workloadNames(); len(got) != len(want) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", got, want)
	}
	for _, n := range names {
		if _, ok := lookupWorkload(n); !ok {
			t.Errorf("BENCHMARK.json workload %q is not a program workload", n)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program reports %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		if m.Name != endToEnd[i] {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %q, program %q", i, m.Name, endToEnd[i])
		}
	}
}

// TestTinyRuns runs every workload at a tiny size, untraced and traced, and
// requires every declared metric with its declared unit and a finite value,
// and every check to pass.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	bj := readBenchmarkJSON(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			declared := bj.EndToEnd
			if trace {
				declared = bj.PerLayer
			}
			res, err := run(w, options{seed: 1, seconds: 2, trace: trace, dir: t.TempDir(), size: tinySize})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			for _, c := range res.checks {
				if !c.ok {
					t.Errorf("%s trace=%v: check %s failed: %s", w.name, trace, c.name, c.detail)
				}
			}
			got := map[string]metric{}
			for _, m := range res.metrics {
				got[m.name] = m
			}
			if len(got) != len(declared) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w.name, trace, len(got), len(declared))
			}
			for _, d := range declared {
				m, ok := got[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, d.Name)
				case m.unit != d.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, declared %q", w.name, trace, d.Name, m.unit, d.Unit)
				case math.IsNaN(m.value) || math.IsInf(m.value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", w.name, trace, d.Name, m.value)
				case !trace && m.value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, m.value)
				}
			}
		}
	}
}

// TestCPUShares profiles a matrix-multiply loop and requires internal/tensor
// to carry the largest share of the samples charged to a module. (Under the
// race detector most samples land in its runtime, hence not a fixed share.)
func TestCPUShares(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	a, b, c := tensor.New(128, 128), tensor.New(128, 128), tensor.New(128, 128)
	a.Fill(1)
	b.Fill(1)
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		tensor.MatMulInto(c, a, b)
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, mod := range cpuModules {
		if mod != "tensor" && shares[mod] >= shares["tensor"] {
			t.Errorf("matmul loop charged %.2f to %s, %.2f to tensor", shares[mod], mod, shares["tensor"])
		}
	}
	if shares["tensor"] < 0.2 {
		t.Errorf("tensor share %.2f of a matmul loop, shares %v", shares["tensor"], shares)
	}
	if _, err := cpuShares([]byte{0x1f, 0x8b}); err == nil {
		t.Error("truncated profile accepted")
	}
}

func TestMaxInSLO(t *testing.T) {
	step := func(rate, p99 float64) *stepStats {
		xs := make([]float64, 100)
		for i := range xs {
			xs[i] = p99
		}
		return &stepStats{rate: rate, readLat: xs, attempted: 100}
	}
	lo, hi := step(1000, 5), step(2000, 125)
	got, _ := maxInSLO(lo, hi)
	// p99 crosses 25 ms halfway between 5 and 125 ms in log space.
	if p1, p2 := lo.p99(), hi.p99(); math.Abs(got-1500) > 1 || p1 >= sloP99Ms || p2 <= sloP99Ms {
		t.Errorf("max %v from p99 %v..%v, want 1500", got, p1, p2)
	}
	if got, _ := maxInSLO(lo, nil); got != 1000 {
		t.Errorf("no missing step: %v, want the fastest passing rate", got)
	}
	if got, _ := maxInSLO(nil, step(1000, 50)); got >= 1000 {
		t.Errorf("every step missed the SLO: %v, want below the slowest rate", got)
	}
}

func TestRandomMRR(t *testing.T) {
	// One negative: the positive ranks first or second with equal odds.
	if got := randomMRR(1); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("randomMRR(1) = %v, want 0.75", got)
	}
}
