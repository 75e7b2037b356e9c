//go:build !amd64

package tensor

// useAVX2 is false off amd64: every matmul runs its scalar loops.
var useAVX2 = false

func gemm4x8(a *float64, ars, aks int, b *float64, bks int, c *float64, cs, k, nb, flags int) {
	panic("tensor: gemm4x8 without AVX2")
}
