#include "textflag.h"

// func gemmKernelAVX2(kc int, a *float64, lda int, mult *float64, c *float64, ldc int)
//
// C[0:8, 0:4] receives mult[4*l+j]*A[0:8, l] for l = 0..kc-1 in that order.
// The product is rounded (VMULPD) before it is added (VADDPD): an FMA would
// skip that rounding and break the accumulation-order contract of
// gemm_kernel.go, so none is used. The 8x4 C tile lives in Y0..Y7 across the
// whole K run; A is read in place at its column stride.
TEXT ·gemmKernelAVX2(SB), NOSPLIT, $0-48
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), R8
	MOVQ mult+24(FP), DX
	MOVQ c+32(FP), DI
	MOVQ ldc+40(FP), R9
	SHLQ $3, R8               // strides in bytes
	SHLQ $3, R9
	LEAQ (DI)(R9*2), R10      // column 2 of the C tile

	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (DI)(R9*1), Y2
	VMOVUPD 32(DI)(R9*1), Y3
	VMOVUPD (R10), Y4
	VMOVUPD 32(R10), Y5
	VMOVUPD (R10)(R9*1), Y6
	VMOVUPD 32(R10)(R9*1), Y7

loop:
	VMOVUPD      (SI), Y8     // A[0:4, l]
	VMOVUPD      32(SI), Y9   // A[4:8, l]
	VBROADCASTSD (DX), Y10
	VBROADCASTSD 8(DX), Y11
	VMULPD       Y8, Y10, Y12
	VMULPD       Y9, Y10, Y13
	VMULPD       Y8, Y11, Y14
	VMULPD       Y9, Y11, Y15
	VADDPD       Y12, Y0, Y0
	VADDPD       Y13, Y1, Y1
	VADDPD       Y14, Y2, Y2
	VADDPD       Y15, Y3, Y3
	VBROADCASTSD 16(DX), Y10
	VBROADCASTSD 24(DX), Y11
	VMULPD       Y8, Y10, Y12
	VMULPD       Y9, Y10, Y13
	VMULPD       Y8, Y11, Y14
	VMULPD       Y9, Y11, Y15
	VADDPD       Y12, Y4, Y4
	VADDPD       Y13, Y5, Y5
	VADDPD       Y14, Y6, Y6
	VADDPD       Y15, Y7, Y7
	ADDQ         R8, SI
	ADDQ         $32, DX
	DECQ         CX
	JNZ          loop

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(R9*1)
	VMOVUPD Y3, 32(DI)(R9*1)
	VMOVUPD Y4, (R10)
	VMOVUPD Y5, 32(R10)
	VMOVUPD Y6, (R10)(R9*1)
	VMOVUPD Y7, 32(R10)(R9*1)
	VZEROUPPER
	RET

// func gemmKernelAVX512(kc int, a *float64, lda int, mult *float64, c *float64, ldc int)
//
// gemmKernelAVX2 on a 16x4 C tile: the same VMULPD then VADDPD per element,
// on ZMM registers, so every lane rounds exactly as the 8-row kernel's do.
// The tile lives in Z0..Z7, A[0:16, l] in Z8-Z9, the multipliers in
// Z10-Z13 and the products in Z14-Z21.
TEXT ·gemmKernelAVX512(SB), NOSPLIT, $0-48
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), R8
	MOVQ mult+24(FP), DX
	MOVQ c+32(FP), DI
	MOVQ ldc+40(FP), R9
	SHLQ $3, R8
	SHLQ $3, R9
	LEAQ (DI)(R9*2), R10

	VMOVUPD (DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD (DI)(R9*1), Z2
	VMOVUPD 64(DI)(R9*1), Z3
	VMOVUPD (R10), Z4
	VMOVUPD 64(R10), Z5
	VMOVUPD (R10)(R9*1), Z6
	VMOVUPD 64(R10)(R9*1), Z7

loop512:
	VMOVUPD      (SI), Z8     // A[0:8, l]
	VMOVUPD      64(SI), Z9   // A[8:16, l]
	VBROADCASTSD (DX), Z10
	VBROADCASTSD 8(DX), Z11
	VBROADCASTSD 16(DX), Z12
	VBROADCASTSD 24(DX), Z13
	VMULPD       Z8, Z10, Z14
	VMULPD       Z9, Z10, Z15
	VMULPD       Z8, Z11, Z16
	VMULPD       Z9, Z11, Z17
	VMULPD       Z8, Z12, Z18
	VMULPD       Z9, Z12, Z19
	VMULPD       Z8, Z13, Z20
	VMULPD       Z9, Z13, Z21
	VADDPD       Z14, Z0, Z0
	VADDPD       Z15, Z1, Z1
	VADDPD       Z16, Z2, Z2
	VADDPD       Z17, Z3, Z3
	VADDPD       Z18, Z4, Z4
	VADDPD       Z19, Z5, Z5
	VADDPD       Z20, Z6, Z6
	VADDPD       Z21, Z7, Z7
	ADDQ         R8, SI
	ADDQ         $32, DX
	DECQ         CX
	JNZ          loop512

	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, (DI)(R9*1)
	VMOVUPD Z3, 64(DI)(R9*1)
	VMOVUPD Z4, (R10)
	VMOVUPD Z5, 64(R10)
	VMOVUPD Z6, (R10)(R9*1)
	VMOVUPD Z7, 64(R10)(R9*1)
	VZEROUPPER
	RET
