package tensor

// useAVX2 selects the AVX2 micro-kernel (gemm_amd64.s) for the dense,
// TransA and TransB matmul paths. It is fixed at init from CPUID; the
// equivalence tests flip it to run the scalar loops on the same inputs.
var useAVX2 = hasAVX2()

// gemm4x8 computes nb side-by-side 4×8 tiles of c over k steps: tile t
// covers c rows 0–3 and columns 8t…8t+7 (row stride cs), and each of its
// elements accumulates a[r·ars + s·aks] · b[s·bks + 8t + j] for s ascending
// from 0 to k−1, rounding each product and each sum (VMULPD then VADDPD,
// never FMA). flags select where the sums start and end: gemmLoad starts
// them from c instead of zero, gemmSkip skips every s whose four a values
// all equal zero (needs ars == 1), gemmAdd adds the finished sums to c
// instead of storing them. Strides are in elements. It checks nothing:
// call it through gemmTiles.
//
//go:noescape
func gemm4x8(a *float64, ars, aks int, b *float64, bks int, c *float64, cs, k, nb, flags int)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM state:
// CPUID leaf 1 OSXSAVE (ECX bit 27) and AVX (bit 28), XCR0 bits 1–2 (SSE
// and AVX state), and CPUID leaf 7 AVX2 (EBX bit 5).
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xgetbv0()&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}
