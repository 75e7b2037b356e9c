package tensor

// gemm4x8 flags (see gemm_amd64.go).
const (
	gemmLoad = 1 << iota // start the sums from c (TransA's in-place accumulate)
	gemmSkip             // skip a k whose four a values are all zero (TransA)
	gemmAdd              // add the finished sums to c (MatMulTransBAddInto)
)

// MatMulPath names the path MatMulInto, MatMulTransAInto and the TransB
// entry points dispatch to on this host: "avx2" (the 4×8 assembly
// micro-kernel, for shapes it covers) or "scalar".
func MatMulPath() string {
	if useAVX2 {
		return "avx2"
	}
	return "scalar"
}

// transAChunk is the k depth of one TransA pass. TransA's k is the batch's
// token count (tens of thousands of rows), so a full-depth tile would
// stream its a and b columns from memory once per tile; in chunks, one
// pass's a and b rows stay cache-resident across all tiles. The tile
// reloads c between chunks, so every element still accumulates
// k-ascending, one rounding per multiply and per add: bitwise-safe.
const transAChunk = 256

// gemmTiles runs the AVX2 micro-kernel on nb 4×8 tiles whose origins are
// a[ai], b[bi] and c[ci] (strides in elements, as gemm4x8). It first
// indexes the last element the tiles read from a and b and write to c, so a
// shape bug panics here, in Go, instead of touching memory outside the
// slices.
func gemmTiles(a []float64, ai, ars, aks int, b []float64, bi, bks int, c []float64, ci, cs, k, nb, flags int) {
	if k <= 0 || nb <= 0 || ars < 0 || aks < 0 || bks < 0 || cs < 0 || (flags&gemmSkip != 0 && ars != 1) {
		panic("tensor: gemmTiles: empty tile, negative stride or strided skip")
	}
	_ = a[ai+3*ars+(k-1)*aks]
	_ = b[bi+(k-1)*bks+8*nb-1]
	_ = c[ci+3*cs+8*nb-1]
	gemm4x8(&a[ai], ars, aks, &b[bi], bks, &c[ci], cs, k, nb, flags)
}
