#include "textflag.h"

// Register budget of gemm4x8 (16 YMM registers, 4 float64 lanes each):
//   Y0–Y7   the 4×8 accumulator tile: row r holds columns 0–3 in Y(2r) and
//           columns 4–7 in Y(2r+1)
//   Y8–Y9   the eight b values of the current k
//   Y10     one broadcast a value
//   Y11–Y12 the two products of that a value (multiply, then add: no FMA)
//   Y13     the four a values of the current k (skip test only)
//   Y14     zero (skip test only)
//   Y15     the skip comparison mask
//
// General registers: SI a, DI b, DX c (tile origins); R8/R9 a row/k stride,
// R10 b k stride, R11 c row stride, R12 3·(a row stride), all in bytes;
// R13/R14 the a/b cursors along k; AX the k countdown; BX the tile
// countdown; CX scratch (flags, skip mask, 3·(c row stride)).

// TILESTEP adds one k's products into the tile: a at R13 (rows at R8
// strides), b at R14. Every product is rounded before it is added.
#define TILESTEP \
	VMOVUPD      (R14), Y8;       \
	VMOVUPD      32(R14), Y9;     \
	VBROADCASTSD (R13), Y10;      \
	VMULPD       Y8, Y10, Y11;    \
	VMULPD       Y9, Y10, Y12;    \
	VADDPD       Y11, Y0, Y0;     \
	VADDPD       Y12, Y1, Y1;     \
	VBROADCASTSD (R13)(R8*1), Y10; \
	VMULPD       Y8, Y10, Y11;    \
	VMULPD       Y9, Y10, Y12;    \
	VADDPD       Y11, Y2, Y2;     \
	VADDPD       Y12, Y3, Y3;     \
	VBROADCASTSD (R13)(R8*2), Y10; \
	VMULPD       Y8, Y10, Y11;    \
	VMULPD       Y9, Y10, Y12;    \
	VADDPD       Y11, Y4, Y4;     \
	VADDPD       Y12, Y5, Y5;     \
	VBROADCASTSD (R13)(R12*1), Y10; \
	VMULPD       Y8, Y10, Y11;    \
	VMULPD       Y9, Y10, Y12;    \
	VADDPD       Y11, Y6, Y6;     \
	VADDPD       Y12, Y7, Y7

// func gemm4x8(a *float64, ars, aks int, b *float64, bks int, c *float64, cs, k, nb, flags int)
TEXT ·gemm4x8(SB), NOSPLIT, $0-80
	MOVQ a+0(FP), SI
	MOVQ ars+8(FP), R8
	SHLQ $3, R8
	MOVQ aks+16(FP), R9
	SHLQ $3, R9
	MOVQ b+24(FP), DI
	MOVQ bks+32(FP), R10
	SHLQ $3, R10
	MOVQ c+40(FP), DX
	MOVQ cs+48(FP), R11
	SHLQ $3, R11
	MOVQ nb+64(FP), BX
	LEAQ (R8)(R8*2), R12
	VXORPD Y14, Y14, Y14

tile:
	MOVQ  flags+72(FP), CX
	TESTQ $1, CX
	JNZ   load
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	JMP   start

load:
	LEAQ    (R11)(R11*2), CX
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVUPD (DX)(R11*1), Y2
	VMOVUPD 32(DX)(R11*1), Y3
	VMOVUPD (DX)(R11*2), Y4
	VMOVUPD 32(DX)(R11*2), Y5
	VMOVUPD (DX)(CX*1), Y6
	VMOVUPD 32(DX)(CX*1), Y7

start:
	MOVQ  SI, R13
	MOVQ  DI, R14
	MOVQ  k+56(FP), AX
	MOVQ  flags+72(FP), CX
	TESTQ $2, CX
	JNZ   skiploop

loop:
	TILESTEP
	ADDQ R9, R13
	ADDQ R10, R14
	DECQ AX
	JNZ  loop
	JMP  done

	// The skip variant: a k whose four a values all compare equal to zero
	// (−0 included, NaN not) adds nothing, exactly like the scalar loop's
	// `av0 == 0 && av1 == 0 && av2 == 0 && av3 == 0` test. It reads the
	// four a values as one vector, so it needs a row stride of one element.
skiploop:
	VMOVUPD   (R13), Y13
	VCMPPD    $0, Y14, Y13, Y15
	VMOVMSKPD Y15, CX
	CMPQ      CX, $15
	JEQ       skipnext
	TILESTEP

skipnext:
	ADDQ R9, R13
	ADDQ R10, R14
	DECQ AX
	JNZ  skiploop

done:
	MOVQ  flags+72(FP), CX
	TESTQ $4, CX
	LEAQ  (R11)(R11*2), CX
	JZ    store
	VADDPD (DX), Y0, Y0
	VADDPD 32(DX), Y1, Y1
	VADDPD (DX)(R11*1), Y2, Y2
	VADDPD 32(DX)(R11*1), Y3, Y3
	VADDPD (DX)(R11*2), Y4, Y4
	VADDPD 32(DX)(R11*2), Y5, Y5
	VADDPD (DX)(CX*1), Y6, Y6
	VADDPD 32(DX)(CX*1), Y7, Y7

store:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, (DX)(R11*1)
	VMOVUPD Y3, 32(DX)(R11*1)
	VMOVUPD Y4, (DX)(R11*2)
	VMOVUPD Y5, 32(DX)(R11*2)
	VMOVUPD Y6, (DX)(CX*1)
	VMOVUPD Y7, 32(DX)(CX*1)

	ADDQ $64, DI
	ADDQ $64, DX
	DECQ BX
	JNZ  tile
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	RET
