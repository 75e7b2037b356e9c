package tensor

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"taser/internal/mathx"
)

// requireAVX2 skips t on hosts where the AVX2 micro-kernel never runs.
func requireAVX2(t *testing.T) {
	t.Helper()
	if !useAVX2 {
		t.Skip("no AVX2 on this host (or not amd64): the matmuls run only their scalar loops")
	}
}

// withAVX2 runs f with the micro-kernel dispatch set to on, restoring it
// afterwards.
func withAVX2(on bool, f func()) {
	old := useAVX2
	useAVX2 = on
	defer func() { useAVX2 = old }()
	f()
}

// sameBits reports the first element where x and y differ, treating any
// two NaNs as equal (their payloads depend on operand order); -1 if none.
func sameBits(x, y *Matrix) int {
	if x.Rows != y.Rows || x.Cols != y.Cols {
		return 0
	}
	for i, v := range x.Data {
		w := y.Data[i]
		if math.IsNaN(v) && math.IsNaN(w) {
			continue
		}
		if math.Float64bits(v) != math.Float64bits(w) {
			return i
		}
	}
	return -1
}

// sprinkle overwrites about frac of m's elements with values that probe
// IEEE corner cases: signed zeros, infinities, NaN, operands whose product
// overflows, and subnormals.
func sprinkle(m *Matrix, frac float64, rng *mathx.RNG) *Matrix {
	specials := []float64{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.NaN(), 1e300, -1e300, 5e-324}
	for i := range m.Data {
		if rng.Float64() < frac {
			m.Data[i] = specials[rng.Intn(len(specials))]
		}
	}
	return m
}

// matmulOutputs runs every AVX2-dispatching entry point on one m×k×n shape
// and returns the results: MatMulInto (a m×k @ b k×n), MatMulTransAInto
// (aᵀ @ w into a pre-filled k×n), MatMulTransBInto and MatMulTransBAddInto
// (a @ bt ᵀ for bt n×k, the latter into a pre-filled m×n).
func matmulOutputs(a, b, w, bt, accA, accB *Matrix) []*Matrix {
	m, n := a.Rows, b.Cols
	dense := New(m, n)
	MatMulInto(dense, a, b)
	ta := accA.Clone()
	MatMulTransAInto(ta, a, w)
	tb := New(m, n)
	MatMulTransBInto(tb, a, bt)
	tba := accB.Clone()
	MatMulTransBAddInto(tba, a, bt)
	return []*Matrix{dense, ta, tb, tba}
}

var matmulOutputNames = []string{"MatMulInto", "MatMulTransAInto", "MatMulTransBInto", "MatMulTransBAddInto"}

// checkAVX2MatchesScalar runs matmulOutputs with the micro-kernel on and off
// and fails on the first element whose bits differ.
func checkAVX2MatchesScalar(t *testing.T, label string, a, b, w, bt, accA, accB *Matrix) {
	t.Helper()
	var fast, slow []*Matrix
	withAVX2(true, func() { fast = matmulOutputs(a, b, w, bt, accA, accB) })
	withAVX2(false, func() { slow = matmulOutputs(a, b, w, bt, accA, accB) })
	for i := range fast {
		if d := sameBits(fast[i], slow[i]); d >= 0 {
			t.Fatalf("%s %s: elem %d: avx2 %v (%#x) scalar %v (%#x)", label, matmulOutputNames[i], d,
				fast[i].Data[d], math.Float64bits(fast[i].Data[d]), slow[i].Data[d], math.Float64bits(slow[i].Data[d]))
		}
	}
}

// operands draws the inputs of matmulOutputs for an m×k×n shape.
func operands(m, k, n int, rng *mathx.RNG) (a, b, w, bt, accA, accB *Matrix) {
	return Randn(m, k, 1, rng), Randn(k, n, 1, rng), Randn(m, n, 1, rng),
		Randn(n, k, 1, rng), Randn(k, n, 1, rng), Randn(m, n, 1, rng)
}

// TestAVX2MatchesScalarShapes pins the micro-kernel's contract on the shapes
// a traced train-tgat run issues and on the edges of its dispatch: the AVX2
// path is bit-for-bit the scalar loops, at one and at two workers.
func TestAVX2MatchesScalarShapes(t *testing.T) {
	requireAVX2(t)
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	shapes := [][3]int{
		// Traced train-tgat shapes (m×k×n of MatMulInto; TransA and
		// TransB run the same triples as gradients).
		{11250, 73, 73}, {49500, 48, 24}, {11250, 105, 16}, {11250, 16, 105}, {4500, 72, 24},
		// Dispatch edges: n < 8, n%8 ≠ 0, m%4 ≠ 0, k = 0, one row, a k
		// past transAChunk that is not a multiple of it, tiny products.
		{600, 40, 5}, {130, 37, 27}, {131, 40, 24}, {133, 24, 41}, {200, 0, 24},
		{1, 4096, 16}, {1030, 9, 8}, {7, 600, 9}, {5, 7, 8}, {64, 8, 8},
	}
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, s := range shapes {
			rng := mathx.NewRNG(uint64(31 + s[0] + s[1] + s[2]))
			a, b, w, bt, accA, accB := operands(s[0], s[1], s[2], rng)
			checkAVX2MatchesScalar(t, fmt.Sprintf("procs=%d %dx%dx%d", procs, s[0], s[1], s[2]), a, b, w, bt, accA, accB)
		}
	}
}

// TestAVX2MatchesScalarSpecialValues feeds −0, ±Inf, NaN, overflowing and
// subnormal operands through every entry point, including the accumulators
// TransA and TransBAdd start from.
func TestAVX2MatchesScalarSpecialValues(t *testing.T) {
	requireAVX2(t)
	for _, s := range [][3]int{{300, 41, 24}, {257, 33, 19}, {1203, 17, 40}} {
		for _, frac := range []float64{0.002, 0.05} {
			rng := mathx.NewRNG(uint64(41 + s[0]))
			a, b, w, bt, accA, accB := operands(s[0], s[1], s[2], rng)
			for _, x := range []*Matrix{a, b, w, bt, accA, accB} {
				sprinkle(x, frac, rng)
			}
			checkAVX2MatchesScalar(t, fmt.Sprintf("%dx%dx%d frac=%v", s[0], s[1], s[2], frac), a, b, w, bt, accA, accB)
		}
	}
}

// TestAVX2TransASkipMatchesScalar pins the four-lane zero skip: masked
// token rows (all four a values zero, with −0 among them) must add nothing
// even where b holds an infinity and the accumulator is −0, while a zeroed
// a column (one zero lane) and a NaN among zeros must multiply through like
// the scalar loop.
func TestAVX2TransASkipMatchesScalar(t *testing.T) {
	requireAVX2(t)
	negZero := math.Copysign(0, -1)
	for _, s := range [][3]int{{700, 40, 24}, {513, 37, 27}} {
		m, k, n := s[0], s[1], s[2]
		rng := mathx.NewRNG(uint64(51 + m))
		a := Randn(m, k, 1, rng)
		for r := 0; r < m; r += 3 { // masked token rows, mixed signed zeros
			for c := 0; c < k; c++ {
				a.Data[r*k+c] = 0
				if (r+c)%2 == 1 {
					a.Data[r*k+c] = negZero
				}
			}
		}
		for r := 0; r < m; r++ { // one zeroed feature column
			a.Data[r*k+5] = 0
		}
		a.Data[7] = math.NaN() // a NaN lane in a masked row: NaN ≠ 0, so no skip
		w := Randn(m, n, 1, rng)
		for r := 0; r < m; r += 3 { // infinities on masked rows: skipped
			w.Data[r*n+(r%n)] = math.Inf(1 - 2*(r%2))
		}
		w.Data[1*n+3] = math.Inf(1) // and one on a live row: 0·Inf = NaN in the zeroed column
		acc := Randn(k, n, 1, rng)
		for i := 0; i < len(acc.Data); i += 7 {
			acc.Data[i] = negZero
		}
		var fast, slow *Matrix
		withAVX2(true, func() { fast = acc.Clone(); MatMulTransAInto(fast, a, w) })
		withAVX2(false, func() { slow = acc.Clone(); MatMulTransAInto(slow, a, w) })
		if d := sameBits(fast, slow); d >= 0 {
			t.Fatalf("%dx%dx%d: elem %d: avx2 %v scalar %v", m, k, n, d, fast.Data[d], slow.Data[d])
		}
		nan := 0
		for _, v := range slow.Data {
			if math.IsNaN(v) {
				nan++
			}
		}
		if nan == 0 || nan == len(slow.Data) {
			t.Fatalf("%dx%dx%d: %d of %d results NaN; the case must mix skipped and multiplied infinities", m, k, n, nan, len(slow.Data))
		}
	}
}

// TestAVX2ParallelMatchesSerial pins row-block ownership under the
// micro-kernel: at GOMAXPROCS=2 every entry point splits its rows across
// two workers and must reproduce the one-worker result bit for bit.
func TestAVX2ParallelMatchesSerial(t *testing.T) {
	requireAVX2(t)
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, s := range [][3]int{{11250, 73, 73}, {1001, 50, 26}} {
		rng := mathx.NewRNG(uint64(61 + s[0]))
		a, b, w, bt, accA, accB := operands(s[0], s[1], s[2], rng)
		runtime.GOMAXPROCS(1)
		serial := matmulOutputs(a, b, w, bt, accA, accB)
		runtime.GOMAXPROCS(2)
		parallel := matmulOutputs(a, b, w, bt, accA, accB)
		for i := range serial {
			if d := sameBits(serial[i], parallel[i]); d >= 0 {
				t.Fatalf("%v %s: two workers differ from one at elem %d", s, matmulOutputNames[i], d)
			}
		}
	}
}

// TestGemmTilesChecksBounds pins that a tile reaching past its slices
// panics in Go, before the assembly runs.
func TestGemmTilesChecksBounds(t *testing.T) {
	a, b, c := make([]float64, 4*10), make([]float64, 10*16), make([]float64, 4*16)
	cases := map[string]func(){
		"a":    func() { gemmTiles(a, 0, 10, 1, b, 0, 16, c, 0, 16, 11, 2, 0) },
		"b":    func() { gemmTiles(a, 0, 10, 1, b, 0, 16, c, 0, 16, 10, 3, 0) },
		"c":    func() { gemmTiles(a, 0, 10, 1, b, 0, 16, c, 1, 16, 10, 2, 0) },
		"k=0":  func() { gemmTiles(a, 0, 10, 1, b, 0, 16, c, 0, 16, 0, 2, 0) },
		"skip": func() { gemmTiles(a, 0, 10, 1, b, 0, 16, c, 0, 16, 10, 2, gemmSkip) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: out-of-bounds tile did not panic", name)
				}
			}()
			f()
		}()
	}
}
