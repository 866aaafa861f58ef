#include "textflag.h"

// TRANSPOSE4 transposes the 4x4 block whose rows are A, B, C and D in
// place, through Y8-Y11.
#define TRANSPOSE4(A, B, C, D) \
	VUNPCKLPD  B, A, Y8; \
	VUNPCKHPD  B, A, Y9; \
	VUNPCKLPD  D, C, Y10; \
	VUNPCKHPD  D, C, Y11; \
	VPERM2F128 $0x20, Y10, Y8, A; \
	VPERM2F128 $0x20, Y11, Y9, B; \
	VPERM2F128 $0x31, Y10, Y8, C; \
	VPERM2F128 $0x31, Y11, Y9, D

// The diagonal solve keeps row i of the 8x4 block of X in Y<i>, one column
// per lane. SI walks the columns of L, R8 is its stride in bytes,
// DX the NonUnit flag, DI the multiplier rows and R13 a nibble per row with
// a bit per non-zero multiplier.

// DIVIDE divides row R by L's diagonal element at off(SI) under NonUnit.
#define DIVIDE(R, off, unit) \
	TESTB        DL, DL; \
	JZ           unit; \
	VBROADCASTSD off(SI), Y8; \
	VDIVPD       Y8, R, R; \
unit:

// NEGATE forms row R's multipliers -R in Y14, their non-zero mask in Y15
// (VCMPPD NEQ_UQ: NaN is non-zero, as for the Go loop's !=), stores them as
// multiplier row moff(DI) and records the mask as nibble shift of R13.
#define NEGATE(R, moff, shift) \
	VXORPD    Y12, R, Y14; \
	VCMPPD    $4, Y13, Y14, Y15; \
	VMOVUPD   Y14, moff(DI); \
	VMOVMSKPD Y15, AX; \
	SHLQ      $shift, AX; \
	ORQ       AX, R13

// UPDATE adds the rounded products -x[p]*L[i,p] (L[i,p] at off(SI)) to
// row R in the lanes whose multiplier is non-zero, leaving the others as
// they are: the Go loop's skipped step.
#define UPDATE(R, off) \
	VBROADCASTSD off(SI), Y8; \
	VMULPD       Y8, Y14, Y9; \
	VADDPD       Y9, R, Y10; \
	VBLENDVPD    Y15, Y10, R, R

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

// func daxpyAVX2(alpha float64, x *float64, y *float64, n int)
//
// y[0:n] += alpha*x[0:n] for n a positive multiple of 4: each product
// rounded (VMULPD) before it is added to y (VADDPD), as Daxpy's Go loop
// does, 16 elements a pass while they last and then 4. x and y may be the
// same array; a partial overlap would read x values already written.
TEXT ·daxpyAVX2(SB), NOSPLIT, $0-32
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), DI
	MOVQ         n+24(FP), CX

axpy16:
	CMPQ    CX, $16
	JB      axpy4
	VMULPD  (SI), Y0, Y1
	VMULPD  32(SI), Y0, Y2
	VMULPD  64(SI), Y0, Y3
	VMULPD  96(SI), Y0, Y4
	VMOVUPD (DI), Y5
	VMOVUPD 32(DI), Y6
	VMOVUPD 64(DI), Y7
	VMOVUPD 96(DI), Y8
	VADDPD  Y1, Y5, Y5
	VADDPD  Y2, Y6, Y6
	VADDPD  Y3, Y7, Y7
	VADDPD  Y4, Y8, Y8
	VMOVUPD Y5, (DI)
	VMOVUPD Y6, 32(DI)
	VMOVUPD Y7, 64(DI)
	VMOVUPD Y8, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $16, CX
	JMP     axpy16

axpy4:
	TESTQ   CX, CX
	JZ      axpydone
	VMULPD  (SI), Y0, Y1
	VMOVUPD (DI), Y5
	VADDPD  Y1, Y5, Y5
	VMOVUPD Y5, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     axpy4

axpydone:
	VZEROUPPER
	RET

// func packMultAVX2(steps int, alpha float64, b0, b1, b2, b3, mult *float64) (clean int, live bool)
//
// The multiplier panel of gemmCols for unit-stride columns b0..b3 of op(B):
// mult[4*l+j] = alpha*bj[l] for l < steps, steps a positive multiple of 4.
// A multiplier is zero when it compares equal to 0 (VCMPPD EQ_OQ: -0 is
// zero, NaN is not), exactly as the Go loop's == does. clean is the first
// step holding a zero multiplier, or steps if none does; live reports
// whether any multiplier is non-zero. Four steps a pass: the four columns'
// products are transposed into four rows of the panel.
TEXT ·packMultAVX2(SB), NOSPLIT, $0-65
	MOVQ         steps+0(FP), CX
	VBROADCASTSD alpha+8(FP), Y0
	MOVQ         b0+16(FP), R8
	MOVQ         b1+24(FP), R9
	MOVQ         b2+32(FP), R10
	MOVQ         b3+40(FP), R11
	MOVQ         mult+48(FP), DI
	MOVQ         CX, R12       // clean
	XORQ         R13, R13      // step
	XORQ         BX, BX        // live: non-zero once a multiplier is
	VXORPD       Y15, Y15, Y15

pack4:
	VMULPD    (R8)(R13*8), Y0, Y1
	VMULPD    (R9)(R13*8), Y0, Y2
	VMULPD    (R10)(R13*8), Y0, Y3
	VMULPD    (R11)(R13*8), Y0, Y4
	VCMPPD    $0, Y15, Y1, Y5
	VCMPPD    $0, Y15, Y2, Y6
	VCMPPD    $0, Y15, Y3, Y7
	VCMPPD    $0, Y15, Y4, Y8
	VORPD     Y6, Y5, Y9
	VORPD     Y8, Y7, Y10
	VORPD     Y10, Y9, Y9      // lane l: some multiplier of step l is zero
	VANDPD    Y6, Y5, Y5
	VANDPD    Y8, Y7, Y7
	VANDPD    Y7, Y5, Y5       // lane l: every multiplier of step l is zero
	VMOVMSKPD Y5, AX
	XORL      $15, AX
	ORL       AX, BX
	VMOVMSKPD Y9, AX
	TESTL     AX, AX
	JZ        pack4store
	CMPQ      R12, CX
	JNE       pack4store
	BSFL      AX, AX
	LEAQ      (R13)(AX*1), R12

pack4store:
	TRANSPOSE4(Y1, Y2, Y3, Y4)
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y4, 96(DI)
	ADDQ    $128, DI
	ADDQ    $4, R13
	CMPQ    R13, CX
	JB      pack4

	MOVQ  R12, clean+56(FP)
	TESTQ BX, BX
	SETNE live+64(FP)
	VZEROUPPER
	RET

// func trsmDiagAVX2(nonUnit bool, l *float64, ldl int, x0, x1, x2, x3, mult *float64) (zero int, live bool)
//
// trsmDiag8 on four columns at once, with the multipliers of the solved
// rows: columns x0..x3 (8 rows each) of X are solved against the 8x8
// diagonal block of L at l, each pivot's update applied in the lanes whose
// multiplier is non-zero, then mult[4*i+j] = -xj[i]. zero is the first row
// holding a zero multiplier, 8 if none does; live reports whether any is
// non-zero.
TEXT ·trsmDiagAVX2(SB), NOSPLIT, $0-73
	MOVBLZX nonUnit+0(FP), DX
	MOVQ    l+8(FP), SI
	MOVQ    ldl+16(FP), R8
	MOVQ    x0+24(FP), R9
	MOVQ    x1+32(FP), R10
	MOVQ    x2+40(FP), R11
	MOVQ    x3+48(FP), R12
	MOVQ    mult+56(FP), DI
	SHLQ    $3, R8
	XORQ    R13, R13
	// Read the four columns of X and transpose them into rows; Y12 holds
	// the sign bit NEGATE flips and Y13 the zero it compares with.
	VMOVUPD (R9), Y0
	VMOVUPD (R10), Y1
	VMOVUPD (R11), Y2
	VMOVUPD (R12), Y3
	VMOVUPD 32(R9), Y4
	VMOVUPD 32(R10), Y5
	VMOVUPD 32(R11), Y6
	VMOVUPD 32(R12), Y7
	TRANSPOSE4(Y0, Y1, Y2, Y3)
	TRANSPOSE4(Y4, Y5, Y6, Y7)
	VPCMPEQQ Y12, Y12, Y12
	VPSLLQ   $63, Y12, Y12
	VXORPD   Y13, Y13, Y13
	DIVIDE(Y0, 0, unit0)
	NEGATE(Y0, 0, 0)
	UPDATE(Y1, 8)
	UPDATE(Y2, 16)
	UPDATE(Y3, 24)
	UPDATE(Y4, 32)
	UPDATE(Y5, 40)
	UPDATE(Y6, 48)
	UPDATE(Y7, 56)
	ADDQ R8, SI
	DIVIDE(Y1, 8, unit1)
	NEGATE(Y1, 32, 4)
	UPDATE(Y2, 16)
	UPDATE(Y3, 24)
	UPDATE(Y4, 32)
	UPDATE(Y5, 40)
	UPDATE(Y6, 48)
	UPDATE(Y7, 56)
	ADDQ R8, SI
	DIVIDE(Y2, 16, unit2)
	NEGATE(Y2, 64, 8)
	UPDATE(Y3, 24)
	UPDATE(Y4, 32)
	UPDATE(Y5, 40)
	UPDATE(Y6, 48)
	UPDATE(Y7, 56)
	ADDQ R8, SI
	DIVIDE(Y3, 24, unit3)
	NEGATE(Y3, 96, 12)
	UPDATE(Y4, 32)
	UPDATE(Y5, 40)
	UPDATE(Y6, 48)
	UPDATE(Y7, 56)
	ADDQ R8, SI
	DIVIDE(Y4, 32, unit4)
	NEGATE(Y4, 128, 16)
	UPDATE(Y5, 40)
	UPDATE(Y6, 48)
	UPDATE(Y7, 56)
	ADDQ R8, SI
	DIVIDE(Y5, 40, unit5)
	NEGATE(Y5, 160, 20)
	UPDATE(Y6, 48)
	UPDATE(Y7, 56)
	ADDQ R8, SI
	DIVIDE(Y6, 48, unit6)
	NEGATE(Y6, 192, 24)
	UPDATE(Y7, 56)
	ADDQ R8, SI
	DIVIDE(Y7, 56, unit7)
	NEGATE(Y7, 224, 28)
	TESTQ R13, R13
	SETNE live+72(FP)
	NOTQ  R13
	BSFQ  R13, AX             // zero: the first nibble with a clear bit
	SHRQ  $2, AX
	MOVQ  AX, zero+64(FP)
	// Transpose the rows back into columns; a repeated column is written
	// twice, with the same values.
	TRANSPOSE4(Y0, Y1, Y2, Y3)
	TRANSPOSE4(Y4, Y5, Y6, Y7)
	VMOVUPD Y0, (R9)
	VMOVUPD Y1, (R10)
	VMOVUPD Y2, (R11)
	VMOVUPD Y3, (R12)
	VMOVUPD Y4, 32(R9)
	VMOVUPD Y5, 32(R10)
	VMOVUPD Y6, 32(R11)
	VMOVUPD Y7, 32(R12)
	VZEROUPPER
	RET
