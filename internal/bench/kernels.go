package bench

import (
	"fmt"
	"math"
	"time"

	"taser/internal/mathx"
	"taser/internal/tensor"
)

// Kernels measures the raw-speed floor (DESIGN.md §13): the dispatching
// MatMul kernels against the seed's plain loops on the shapes a traced
// train-tgat run pushes through them, with the TransA and TransB gradient
// forms of the two hottest products. Every table header names the path the dispatch took on this host: "avx2" (the
// 4×8 assembly micro-kernel) or "scalar".
func Kernels(o Options) error {
	o = o.Normalize()
	path := tensor.MatMulPath()
	type shape struct {
		label   string
		m, k, n int
	}

	// --- dense MatMul: seed reference loop vs dispatching kernel ---------
	// The traced train-tgat products: the adaptive sampler's mixer
	// (11250 candidate rows × 73) and TGAT's projections (49500 token rows,
	// 48 → 24), at their training and their EvalMRR row counts, plus two
	// square products.
	rng := mathx.NewRNG(o.Seed)
	fmt.Fprintf(o.Out, "Dense MatMul (path: %s): seed skip-loop vs dispatching kernel\n", path)
	fmt.Fprintf(o.Out, "%-22s %-16s %12s %12s %9s %9s %8s\n",
		"shape", "m×k×n", "ref ns/op", "new ns/op", "ref GF/s", "new GF/s", "speedup")
	for _, s := range []shape{
		{"mixer (train)", 11250, 73, 73},
		{"tgat proj (train)", 49500, 48, 24},
		{"tgat ffn (train)", 4500, 72, 24},
		{"mixer (eval)", 26250, 73, 73},
		{"tgat proj (eval)", 115500, 48, 24},
		{"square 256", 256, 256, 256},
		{"square 512", 512, 512, 512},
	} {
		a := tensor.Randn(s.m, s.k, 1, rng)
		b := tensor.Randn(s.k, s.n, 1, rng)
		dst := tensor.New(s.m, s.n)
		refNs := timeOp(func() { matMulSeedRef(dst, a, b) })
		newNs := timeOp(func() { tensor.MatMulInto(dst, a, b) })
		flop := 2 * float64(s.m) * float64(s.k) * float64(s.n)
		fmt.Fprintf(o.Out, "%-22s %-16s %12.0f %12.0f %9.2f %9.2f %7.2fx\n",
			s.label, fmt.Sprintf("%d×%d×%d", s.m, s.k, s.n),
			refNs, newNs, flop/refNs, flop/newNs, refNs/newNs)
	}

	// --- gradient forms of the two hottest products ----------------------
	// dW += xᵀ @ dO (MatMulTransAInto) and dX += dO @ Wᵀ
	// (MatMulTransBAddInto), m×k×n read as in the dense table.
	grads := []shape{{"mixer (train)", 11250, 73, 73}, {"tgat proj (train)", 49500, 48, 24}}
	fmt.Fprintf(o.Out, "\nMatMulTransA (aᵀ @ b, path: %s): seed skip-loop vs dispatching kernel\n", path)
	fmt.Fprintf(o.Out, "%-22s %-16s %12s %12s %8s\n", "shape", "m×k×n", "ref ns/op", "new ns/op", "speedup")
	for _, s := range grads {
		x := tensor.Randn(s.m, s.k, 1, rng)
		dO := tensor.Randn(s.m, s.n, 1, rng)
		dW := tensor.New(s.k, s.n)
		refNs := timeOp(func() { matMulTransASeedRef(dW, x, dO) })
		newNs := timeOp(func() { tensor.MatMulTransAInto(dW, x, dO) })
		fmt.Fprintf(o.Out, "%-22s %-16s %12.0f %12.0f %7.2fx\n",
			s.label, fmt.Sprintf("%d×%d×%d", s.m, s.k, s.n), refNs, newNs, refNs/newNs)
	}
	fmt.Fprintf(o.Out, "\nMatMulTransB (a @ bᵀ, path: %s): seed dot-loop vs dispatching kernel\n", path)
	fmt.Fprintf(o.Out, "%-22s %-16s %12s %12s %8s\n", "shape", "m×k×n", "ref ns/op", "new ns/op", "speedup")
	for _, s := range grads {
		dO := tensor.Randn(s.m, s.n, 1, rng)
		w := tensor.Randn(s.k, s.n, 1, rng)
		dX := tensor.New(s.m, s.k)
		refNs := timeOp(func() { matMulTransBSeedRef(dX, dO, w) })
		newNs := timeOp(func() { tensor.MatMulTransBInto(dX, dO, w) })
		fmt.Fprintf(o.Out, "%-22s %-16s %12.0f %12.0f %7.2fx\n",
			s.label, fmt.Sprintf("%d×%d×%d", s.m, s.k, s.n), refNs, newNs, refNs/newNs)
	}
	return nil
}

// Timing knobs, lowered by the package smoke test so `go test` doesn't pay
// full measurement quality.
var (
	kernelTimeBudget = 100 * time.Millisecond // per timing round
	kernelTimeRounds = 3                      // best-of rounds
)

// timeOp reports the best-of-rounds ns/op for op, each round running until
// ≥kernelTimeBudget (min 2 timed iters) after one warmup call. Best-of
// filters the scheduling noise a shared 1-CPU container injects into any
// single round.
func timeOp(op func()) float64 {
	op()
	best := math.Inf(1)
	for round := 0; round < kernelTimeRounds; round++ {
		iters := 1
		for {
			start := time.Now()
			for i := 0; i < iters; i++ {
				op()
			}
			d := time.Since(start)
			if (d >= kernelTimeBudget && iters >= 2) || iters >= 1<<22 {
				if ns := float64(d.Nanoseconds()) / float64(iters); ns < best {
					best = ns
				}
				break
			}
			iters *= 2
		}
	}
	return best
}

// matMulSeedRef is the seed repo's MatMul kernel — skip-based ikj with a
// per-element zero test — kept verbatim as the "before" baseline.
func matMulSeedRef(dst, a, b *tensor.Matrix) {
	n, p := a.Cols, b.Cols
	for i := 0; i < a.Rows; i++ {
		drow := dst.Data[i*p : (i+1)*p]
		for j := range drow {
			drow[j] = 0
		}
		arow := a.Data[i*n : (i+1)*n]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*p : (k+1)*p]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// matMulTransBSeedRef is the seed's a @ bᵀ kernel: one dot product per
// output element.
func matMulTransBSeedRef(dst, a, b *tensor.Matrix) {
	n := a.Cols
	m2 := b.Rows
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*n : (i+1)*n]
		drow := dst.Data[i*m2 : (i+1)*m2]
		for j := 0; j < m2; j++ {
			brow := b.Data[j*n : (j+1)*n]
			var s float64
			for k, bv := range brow {
				s += arow[k] * bv
			}
			drow[j] = s
		}
	}
}

// matMulTransASeedRef is the seed's aᵀ @ b accumulate: one dst row at a
// time, with a per-element zero test.
func matMulTransASeedRef(dst, a, b *tensor.Matrix) {
	n, p := a.Cols, b.Cols
	for i := 0; i < n; i++ {
		drow := dst.Data[i*p : (i+1)*p]
		for k := 0; k < a.Rows; k++ {
			av := a.Data[k*n+i]
			if av == 0 {
				continue
			}
			brow := b.Data[k*p : (k+1)*p]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}
