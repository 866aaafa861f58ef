#include "textflag.h"

DATA stencilk<>+0(SB)/8, $0x4018000000000000 // 6.0
GLOBL stencilk<>(SB), RODATA, $8

// func rowAVX2(cells int, alpha float64, out, c, s, n, d, u *float64)
//
// Four cells per step, one instruction per operation of the row-kernel
// contract in row.go: the five adds in its order, 6*c and alpha*(sum - t)
// each rounded (VMULPD) before the subtract and add that take them — no FMA.
// AX is the byte offset of the step's first cell in every row.
TEXT ·rowAVX2(SB), NOSPLIT, $0-64
	MOVQ         cells+0(FP), CX
	VBROADCASTSD alpha+8(FP), Y15
	VBROADCASTSD stencilk<>+0(SB), Y14
	MOVQ         out+16(FP), DI
	MOVQ         c+24(FP), SI
	MOVQ         s+32(FP), R8
	MOVQ         n+40(FP), R9
	MOVQ         d+48(FP), R10
	MOVQ         u+56(FP), R11
	SHLQ         $3, CX
	XORQ         AX, AX
	TESTQ        CX, CX
	JZ           done

loop:
	VMOVUPD -8(SI)(AX*1), Y0     // w
	VADDPD  8(SI)(AX*1), Y0, Y0  // w+e
	VADDPD  (R8)(AX*1), Y0, Y0   // +s
	VADDPD  (R9)(AX*1), Y0, Y0   // +n
	VADDPD  (R10)(AX*1), Y0, Y0  // +d
	VADDPD  (R11)(AX*1), Y0, Y0  // +u
	VMOVUPD (SI)(AX*1), Y1       // c
	VMULPD  Y14, Y1, Y2          // t = 6*c
	VSUBPD  Y2, Y0, Y0           // sum - t
	VMULPD  Y15, Y0, Y0          // alpha*(sum - t)
	VADDPD  Y0, Y1, Y0           // c + alpha*(sum - t)
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     loop

done:
	VZEROUPPER
	RET
