package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// parallelThreshold is the number of multiply-adds below which MatMul stays
// single-threaded; goroutine fan-out costs more than it saves on tiny inputs.
const parallelThreshold = 1 << 16

// smallThreshold is the number of multiply-adds below which MatMulInto runs
// the plain one-row ikj loop: for tiny products the 4-row lane kernel's
// setup and remainder handling cost more than they save. Both regimes
// accumulate k-ascending per element, so the cutover is bitwise-invisible
// to callers.
const smallThreshold = 1 << 12

// workerLimit reports the scheduler width for parallel kernels. It is read
// at call time — not frozen at package init — so runtime.GOMAXPROCS changes
// (tests pinning to 1, operators resizing a cgroup) take effect on the next
// kernel invocation. GOMAXPROCS(0) is a cheap read; callers on a hot path
// read it once per kernel call, never per row.
func workerLimit() int { return runtime.GOMAXPROCS(0) }

// MatMulInto computes dst = a @ b. dst must be pre-shaped a.Rows×b.Cols and
// must not alias a or b. Tiny products run the one-row loop; everything else
// runs the 4-row dense kernel, split across worker goroutines by row block
// once large enough — each worker owns a disjoint range of dst rows. Both
// regimes are bitwise-identical to the straight-line ikj loop for every
// shape.
//
// The dense path carries no zero-skip branch: every a element is multiplied
// through, which keeps the inner loop branch-free and lets products with
// exact-zero operands follow IEEE semantics (0·Inf = NaN propagates instead
// of being skipped).
func MatMulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul %dx%d @ %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulInto dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	work := a.Rows * a.Cols * b.Cols
	if work < smallThreshold {
		matMulSmallRange(dst, a, b, 0, a.Rows)
		return
	}
	if work < parallelThreshold || workerLimit() == 1 {
		matMulDenseRange(dst, a, b, 0, a.Rows)
		return
	}
	parallelRows(a.Rows, func(lo, hi int) { matMulDenseRange(dst, a, b, lo, hi) })
}

// matMulDenseRange computes rows [lo, hi) of dst = a @ b four dst rows per
// pass: each streamed b row is loaded once and feeds four register-resident
// a values (4 multiply-adds per b load instead of 1), and the four dst rows
// it writes stay in L1 for the narrow b every model shape has. No packing,
// no zero-skip. Per-element accumulation is k-ascending, so the result is
// bitwise-identical to the straight-line ikj loop for every shape and any
// [lo, hi) split — the lane grouping only changes which rows are computed
// together, never the order of adds within an element.
//
// With AVX2 the first p&^7 columns of each four-row pass run as 4×8 tiles
// of the assembly micro-kernel (same order, same roundings); the column
// tail and the row tail stay on the scalar loops.
func matMulDenseRange(dst, a, b *Matrix, lo, hi int) {
	n, p := a.Cols, b.Cols
	pv := 0
	if useAVX2 && n > 0 {
		pv = p &^ 7
	}
	i := lo
	for ; i+4 <= hi; i += 4 {
		if pv > 0 {
			gemmTiles(a.Data, i*n, n, 1, b.Data, 0, p, dst.Data, i*p, p, n, pv/8, 0)
			if pv == p {
				continue
			}
		}
		d0 := dst.Data[i*p+pv : i*p+p]
		d1 := dst.Data[(i+1)*p+pv : (i+1)*p+p][:len(d0)]
		d2 := dst.Data[(i+2)*p+pv : (i+2)*p+p][:len(d0)]
		d3 := dst.Data[(i+3)*p+pv : (i+3)*p+p][:len(d0)]
		for j := range d0 {
			d0[j] = 0
			d1[j] = 0
			d2[j] = 0
			d3[j] = 0
		}
		a0 := a.Data[i*n : i*n+n]
		a1 := a.Data[(i+1)*n : (i+1)*n+n][:len(a0)]
		a2 := a.Data[(i+2)*n : (i+2)*n+n][:len(a0)]
		a3 := a.Data[(i+3)*n : (i+3)*n+n][:len(a0)]
		for k, av0 := range a0 {
			av1, av2, av3 := a1[k], a2[k], a3[k]
			brow := b.Data[k*p+pv : k*p+p][:len(d0)]
			for j, bv := range brow {
				d0[j] += av0 * bv
				d1[j] += av1 * bv
				d2[j] += av2 * bv
				d3[j] += av3 * bv
			}
		}
	}
	if i < hi {
		matMulSmallRange(dst, a, b, i, hi)
	}
}

// matMulSmallRange computes rows [lo, hi) of dst = a @ b with an ikj loop
// order that streams b row-wise. No packing, no zero-skip: the small-product
// path of MatMulInto. Accumulation order (k ascending per element) matches
// matMulDenseRange's.
func matMulSmallRange(dst, a, b *Matrix, lo, hi int) {
	n, p := a.Cols, b.Cols
	for i := lo; i < hi; i++ {
		drow := dst.Data[i*p : i*p+p]
		for j := range drow {
			drow[j] = 0
		}
		arow := a.Data[i*n : i*n+n]
		for k, av := range arow {
			brow := b.Data[k*p : k*p+p][:len(drow)]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// MatMul allocates and returns a @ b.
func MatMul(a, b *Matrix) *Matrix {
	dst := New(a.Rows, b.Cols)
	MatMulInto(dst, a, b)
	return dst
}

// MatMulTransBInto computes dst = a @ bᵀ without materializing bᵀ.
func MatMulTransBInto(dst, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransB %dx%d @ (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic("tensor: MatMulTransBInto dst shape")
	}
	matMulTransB(dst, a, b, false)
}

// matMulTransB runs MatMulTransBInto (or, with accumulate,
// MatMulTransBAddInto) on checked shapes. With AVX2 it first packs bᵀ once,
// before the row fan-out, so the micro-kernel reads it like a dense right
// operand; the pack buffer comes from packPool.
func matMulTransB(dst, a, b *Matrix, accumulate bool) {
	work := a.Rows * a.Cols * b.Rows
	var pb *packBuf
	var bt []float64
	if useAVX2 && a.Cols > 0 && b.Rows >= 8 && a.Rows >= 4 && work >= smallThreshold {
		pb = packPool.Get().(*packBuf)
		bt = packTransB(pb, b)
	}
	// The serial path goes through a named range function so no closure is
	// materialized on it (conditionally-constructed closures heap-escape even
	// when the parallel branch is never taken).
	if work < parallelThreshold || workerLimit() == 1 {
		matMulTransBRange(dst, a, b, bt, 0, a.Rows, accumulate)
	} else {
		parallelRows(a.Rows, func(lo, hi int) { matMulTransBRange(dst, a, b, bt, lo, hi, accumulate) })
	}
	if pb != nil {
		packPool.Put(pb)
	}
}

// packTransB packs the first b.Rows&^7 rows of b, transposed, into pb.b
// (bt[k*jv+j] = b[j][k] for jv = b.Rows&^7) and returns it.
func packTransB(pb *packBuf, b *Matrix) []float64 {
	n, jv := b.Cols, b.Rows&^7
	pb.ensureB(n * jv)
	bt := pb.b
	for j := 0; j < jv; j++ {
		for k, v := range b.Data[j*n : j*n+n] {
			bt[k*jv+j] = v
		}
	}
	return bt
}

// packBuf holds pooled pack storage for matMulTransB's packed bᵀ. Buffers
// are recycled through packPool with the arena's capacity discipline
// (grow-only, reused across calls, never aliasing caller data), so
// steady-state MatMulTransBInto performs no heap allocations for packing.
type packBuf struct {
	b []float64
}

var packPool = sync.Pool{New: func() any { return new(packBuf) }}

func (pb *packBuf) ensureB(n int) {
	if cap(pb.b) < n {
		pb.b = make([]float64, n)
	} else {
		pb.b = pb.b[:n]
	}
}

// matMulTransBRange computes (or, with accumulate, adds) rows [lo, hi) of
// a @ bᵀ into dst. Both operands stream along k contiguously, so no packing
// is needed; rows are processed in 2×4 register tiles (eight dot products
// share six operand loads per k — 2×4 rather than 4×4 because eight f64
// accumulators plus six operands fit the sixteen scalar XMM registers of
// GOAMD64=v1, while a 4×4 tile spills). Every dot product accumulates
// k-ascending from zero, so results are bitwise-identical to the
// straight-line loop for every shape and any [lo, hi) split.
//
// A non-empty bt is matMulTransB's packed bᵀ for the first jv = len(bt)/n
// dst columns: each four-row pass computes those columns as AVX2 4×8 tiles
// (sums from zero, stored or added at the end, exactly like the scalar
// dot products), and the scalar tiles start at column jv.
func matMulTransBRange(dst, a, b *Matrix, bt []float64, lo, hi int, accumulate bool) {
	n, p := a.Cols, b.Cols
	m2 := b.Rows
	jv, end := 0, lo
	if len(bt) > 0 {
		jv, end = len(bt)/n, lo+(hi-lo)&^3
	}
	flags := 0
	if accumulate {
		flags = gemmAdd
	}
	i := lo
	for ; i+2 <= hi; i += 2 {
		j := 0
		if i < end {
			if (i-lo)%4 == 0 {
				gemmTiles(a.Data, i*n, n, 1, bt, 0, jv, dst.Data, i*m2, m2, n, jv/8, flags)
			}
			j = jv
		}
		a0 := a.Data[i*n : i*n+n]
		a1 := a.Data[(i+1)*n : (i+1)*n+n][:len(a0)]
		d0 := dst.Data[i*m2 : i*m2+m2]
		d1 := dst.Data[(i+1)*m2 : (i+1)*m2+m2][:len(d0)]
		for ; j+4 <= m2; j += 4 {
			b0 := b.Data[j*p : j*p+p][:len(a0)]
			b1 := b.Data[(j+1)*p : (j+1)*p+p][:len(a0)]
			b2 := b.Data[(j+2)*p : (j+2)*p+p][:len(a0)]
			b3 := b.Data[(j+3)*p : (j+3)*p+p][:len(a0)]
			var c00, c01, c02, c03 float64
			var c10, c11, c12, c13 float64
			for k, av0 := range a0 {
				bv0, bv1, bv2, bv3 := b0[k], b1[k], b2[k], b3[k]
				c00 += av0 * bv0
				c01 += av0 * bv1
				c02 += av0 * bv2
				c03 += av0 * bv3
				av1 := a1[k]
				c10 += av1 * bv0
				c11 += av1 * bv1
				c12 += av1 * bv2
				c13 += av1 * bv3
			}
			if accumulate {
				d0[j] += c00
				d0[j+1] += c01
				d0[j+2] += c02
				d0[j+3] += c03
				d1[j] += c10
				d1[j+1] += c11
				d1[j+2] += c12
				d1[j+3] += c13
			} else {
				d0[j] = c00
				d0[j+1] = c01
				d0[j+2] = c02
				d0[j+3] = c03
				d1[j] = c10
				d1[j+1] = c11
				d1[j+2] = c12
				d1[j+3] = c13
			}
		}
		for ; j < m2; j++ {
			brow := b.Data[j*p : j*p+p][:len(a0)]
			var s0, s1 float64
			for k, bv := range brow {
				s0 += a0[k] * bv
				s1 += a1[k] * bv
			}
			if accumulate {
				d0[j] += s0
				d1[j] += s1
			} else {
				d0[j] = s0
				d1[j] = s1
			}
		}
	}
	for ; i < hi; i++ {
		arow := a.Data[i*n : i*n+n]
		drow := dst.Data[i*m2 : i*m2+m2]
		for j := 0; j < m2; j++ {
			brow := b.Data[j*p : j*p+p][:len(arow)]
			var s float64
			for k, bv := range brow {
				s += arow[k] * bv
			}
			if accumulate {
				drow[j] += s
			} else {
				drow[j] = s
			}
		}
	}
}

// MatMulTransB allocates and returns a @ bᵀ.
func MatMulTransB(a, b *Matrix) *Matrix {
	dst := New(a.Rows, b.Rows)
	MatMulTransBInto(dst, a, b)
	return dst
}

// MatMulTransBAddInto accumulates dst += a @ bᵀ without materializing bᵀ or a
// temporary product (the gradient-accumulation form autograd's MatMul
// backward uses: dA += dO @ Bᵀ). Workers own disjoint dst row blocks.
func MatMulTransBAddInto(dst, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransBAdd %dx%d @ (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic("tensor: MatMulTransBAddInto dst shape")
	}
	matMulTransB(dst, a, b, true)
}

// MatMulTransAInto computes dst = aᵀ @ b, accumulating into dst (dst is NOT
// zeroed first — this is the gradient-accumulation form used by autograd).
// Large products are parallelized across dst row blocks: each worker owns a
// disjoint set of dst rows, so no synchronization is needed.
//
// This entry keeps a sparsity skip — per tile of four a columns, not per
// element — because its left operand is forward activations, where padding
// masks (MulColVec) zero whole token rows; a zeroed a row zeroes all four
// lanes of its tile, so the skip fires exactly on masked tokens and the
// dense inner loop stays branch-free per element.
func MatMulTransAInto(dst, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransA (%dx%d)ᵀ @ %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic("tensor: MatMulTransAInto dst shape")
	}
	work := a.Rows * a.Cols * b.Cols
	if work < parallelThreshold || workerLimit() == 1 || dst.Rows == 1 {
		matMulTransARange(dst, a, b, 0, dst.Rows)
		return
	}
	parallelRows(dst.Rows, func(lo, hi int) { matMulTransARange(dst, a, b, lo, hi) })
}

// matMulTransARange accumulates dst rows [lo, hi) of aᵀ @ b. Four dst rows
// (four a columns) are produced per pass so each streamed b row is loaded
// once for four accumulate lanes; the four a loads per k are contiguous.
// Per-element accumulation is k-ascending exactly like the straight-line
// loop, so any [lo, hi) split of rows is bitwise-equivalent to serial.
//
// With AVX2 the first p&^7 columns of each pass run as 4×8 tiles of the
// assembly micro-kernel, which loads its sums from dst (the in-place
// accumulate) and keeps the four-lane zero skip. The passes walk k in
// transAChunk slices so a and b stay cache-resident across the tiles; the
// scalar column tail follows each tile within the slice.
func matMulTransARange(dst, a, b *Matrix, lo, hi int) {
	n, p := a.Cols, b.Cols
	m := a.Rows
	end := lo + (hi-lo)&^3
	pv := 0
	if useAVX2 && m*n*p >= smallThreshold {
		pv = p &^ 7
	}
	if pv > 0 {
		for k0 := 0; k0 < m; k0 += transAChunk {
			k1 := min(k0+transAChunk, m)
			for i := lo; i < end; i += 4 {
				gemmTiles(a.Data, k0*n+i, 1, n, b.Data, k0*p, p, dst.Data, i*p, p, k1-k0, pv/8, gemmLoad|gemmSkip)
				if pv < p {
					transAQuad(dst, a, b, i, k0, k1, pv)
				}
			}
		}
	} else {
		for i := lo; i < end; i += 4 {
			transAQuad(dst, a, b, i, 0, m, 0)
		}
	}
	for i := end; i < hi; i++ {
		drow := dst.Data[i*p : i*p+p]
		for k := 0; k < m; k++ {
			av := a.Data[k*n+i]
			if av == 0 {
				continue
			}
			brow := b.Data[k*p : k*p+p][:len(drow)]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// transAQuad is matMulTransARange's scalar four-row pass: for each a row k
// in [k0, k1) it adds a[k][i+r]·b[k][j] into dst[i+r][j] for r < 4 and j
// in [j0, p), skipping a k whose four a values are all zero.
func transAQuad(dst, a, b *Matrix, i, k0, k1, j0 int) {
	n, p := a.Cols, b.Cols
	d0 := dst.Data[i*p+j0 : i*p+p]
	d1 := dst.Data[(i+1)*p+j0 : (i+1)*p+p][:len(d0)]
	d2 := dst.Data[(i+2)*p+j0 : (i+2)*p+p][:len(d0)]
	d3 := dst.Data[(i+3)*p+j0 : (i+3)*p+p][:len(d0)]
	for k := k0; k < k1; k++ {
		acol := a.Data[k*n+i : k*n+i+4]
		av0, av1, av2, av3 := acol[0], acol[1], acol[2], acol[3]
		if av0 == 0 && av1 == 0 && av2 == 0 && av3 == 0 {
			continue // masked token: its whole a row is zero
		}
		brow := b.Data[k*p+j0 : k*p+p][:len(d0)]
		for j, bv := range brow {
			d0[j] += av0 * bv
			d1[j] += av1 * bv
			d2[j] += av2 * bv
			d3[j] += av3 * bv
		}
	}
}

// parallelRows splits [0, rows) across the worker pool and blocks until all
// chunks complete. The pool width is re-read from GOMAXPROCS on every call
// (workerLimit), so resizing the process takes effect immediately.
func parallelRows(rows int, body func(lo, hi int)) {
	workers := workerLimit()
	if workers > rows {
		workers = rows
	}
	if workers <= 1 {
		// No parallelism to win: skip the goroutine + WaitGroup traffic (and
		// their allocations) instead of fanning out to a single worker.
		body(0, rows)
		return
	}
	chunk := (rows + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// ParallelRows exposes the row-block scheduler for other packages' kernels.
func ParallelRows(rows int, body func(lo, hi int)) { parallelRows(rows, body) }
