// Command perfbench is the repository benchmark: one run executes one
// workload end to end, checks its outputs, and prints every metric by name
// and unit, ending with a one-line JSON result.
//
// Usage (from the repository root; BENCHMARK.json lists the workloads and
// metrics):
//
//	bash perfbench/run.sh --workload train-tgat --seed 1 --seconds 20 --trace 0
//
// Every workload is one whole session with TASER: set up, train, evaluate,
// serve an open-loop traffic mix, stop uncleanly and recover. The workloads
// differ in which phase carries the load (see workloads.go). With --trace 0
// the run measures the end-to-end metrics with no instruments attached;
// with --trace 1 it runs the same session with timing wrappers on the
// program's public seams and a CPU profile, and reports the per-layer
// metrics instead. Read and ingest p99, the highest rate within the read
// SLO and recovery time are printed by every run but reported in the JSON
// result only by the traced run: their run-to-run spread on a shared
// 2-vCPU host is wider than any bound a regression gate could use.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"taser/internal/stats"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), "|"))
		seed     = flag.Uint64("seed", 1, "seed of every generated input")
		seconds  = flag.Int("seconds", 20, "measured serving time of one run, in seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
		workDir  = flag.String("workdir", ".bench_build", "directory for the run's durable stores (removed afterwards)")
	)
	flag.Parse()
	w, ok := lookupWorkload(*workload)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s, --seconds ≥ 1 and --trace 0|1\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(*workDir, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	res, err := run(w, options{
		seed: *seed, seconds: float64(*seconds), trace: *trace == 1, dir: dir, size: fullSize,
	})
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	printHost(os.Stdout, w.name, *seed, *trace)
	res.print(os.Stdout)
	if !res.correct() {
		os.Exit(1)
	}
}

// metric is one reported number. Spread and n describe the samples the value
// is the median of, when it is one (n = 1 for a single measurement).
type metric struct {
	name, unit, source string
	value              float64
	spread             float64 // (Q3−Q1)/median over the samples; 0 when n < 2
	n                  int
}

type check struct {
	name   string
	ok     bool
	detail string
}

type result struct {
	notes     []string // progress lines printed before the table
	metrics   []metric // the run's metrics, in its JSON result
	ungated   []metric // measured and printed, but too noisy on a shared host to gate (see BENCHMARK.json)
	checks    []check
	attempted int
	failed    int
}

func (r *result) add(name, unit, source string, value float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, source: source, value: value, n: 1})
}

// addSamples reports the median of xs with its quartile spread.
func (r *result) addSamples(name, unit, source string, xs []float64) {
	med, spread := medianSpread(xs)
	r.metrics = append(r.metrics, metric{name: name, unit: unit, source: source, value: med, spread: spread, n: len(xs)})
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

func (r *result) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return len(r.checks) > 0
}

func (r *result) get(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// print writes the human-readable table and, as the last line, the JSON
// result: {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
func (r *result) print(out io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintln(out, n)
	}
	fmt.Fprintf(out, "%-30s %14s %-8s %8s %4s  %s\n", "metric", "value", "unit", "spread", "n", "source")
	for _, m := range r.metrics {
		fmt.Fprintf(out, "%-30s %14.6g %-8s %7.1f%% %4d  %s\n", m.name, m.value, m.unit, 100*m.spread, m.n, m.source)
	}
	for _, m := range r.ungated {
		fmt.Fprintf(out, "%-30s %14.6g %-8s %7.1f%% %4d  %s (not gated)\n", m.name, m.value, m.unit, 100*m.spread, m.n, m.source)
	}
	for _, c := range r.checks {
		status := "PASS"
		if !c.ok {
			status = "FAIL"
		}
		fmt.Fprintf(out, "check %-26s %s  %s\n", c.name, status, c.detail)
	}
	fmt.Fprintf(out, "requests attempted=%d failed=%d\n", r.attempted, r.failed)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // JSON has no NaN; a missing measurement reads as 0
		}
		ms[m.name] = value{Value: v, Unit: m.unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), max(r.attempted, 1), r.failed, ms})
	fmt.Fprintln(out, string(line))
}

// printHost writes the host and noise block every result carries.
func printHost(out io.Writer, workload string, seed uint64, trace int) {
	model, flags := cpuInfo()
	goVersion := runtime.Version()
	if bi, ok := debug.ReadBuildInfo(); ok && bi.GoVersion != "" {
		goVersion = bi.GoVersion
	}
	fmt.Fprintf(out, "host: workload=%s seed=%d trace=%d nproc=%d GOMAXPROCS=%d go=%s %s/%s\n",
		workload, seed, trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), goVersion, runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(out, "cpu: %s\n", model)
	fmt.Fprintf(out, "cpu flags: %s\n", flags)
	fmt.Fprintln(out, "noise: each value is the median of its n samples; spread is (Q3-Q1)/median over them")
}

// cpuInfo reads the CPU model and the SIMD-relevant flags from
// /proc/cpuinfo (Linux); elsewhere it reports "unknown".
func cpuInfo() (model, flags string) {
	model, flags = "unknown", "unknown"
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return
	}
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(k) {
		case "model name":
			if model == "unknown" {
				model = strings.TrimSpace(v)
			}
		case "flags":
			if flags == "unknown" {
				var keep []string
				for _, f := range strings.Fields(v) {
					if strings.HasPrefix(f, "avx") || strings.HasPrefix(f, "sse") || f == "fma" || f == "bmi2" {
						keep = append(keep, f)
					}
				}
				sort.Strings(keep)
				flags = strings.Join(keep, " ")
			}
		}
	}
	return
}

// medianSpread returns the median of xs and the distance between its first
// and third quartiles as a share of the median (0 when fewer than two
// samples or a zero median).
func medianSpread(xs []float64) (median, spread float64) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	median = stats.Quantile(xs, 0.5)
	if len(xs) < 2 || median == 0 {
		return median, 0
	}
	return median, (stats.Quantile(xs, 0.75) - stats.Quantile(xs, 0.25)) / math.Abs(median)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
