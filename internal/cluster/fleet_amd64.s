#include "textflag.h"

// The fleet-update contract's constants, by their bits as Go evaluates them.
DATA fleetk<>+0(SB)/8, $0x3fed70a3d70a3d71  // 1-driftMax
DATA fleetk<>+8(SB)/8, $0x3ff147ae147ae148  // 1+driftMax
DATA fleetk<>+16(SB)/8, $0x3fe3333333333333 // 0.6, the load cap
DATA fleetk<>+24(SB)/8, $0x3ff0000000000000 // 1
DATA fleetk<>+32(SB)/8, $0x41cdcd6500000000 // 1e9
GLOBL fleetk<>(SB), RODATA, $40

// func fleetAVX512(n int, rgNominal, w, loadFrac, sl float64, adaptive bool, gpuScale, cpuRate, split, drift, noise *float64) float64
//
// Eight elements per step, one instruction per operation of the
// fleet-update contract in fleet.go, in its order: each product and
// quotient rounded (VMULPD, VDIVPD) before the add, subtract or divide that
// takes it — no FMA. Z0 keeps each lane's running max, reduced across the
// lanes at the end; the contract's times are finite and positive, so
// VMAXPD's ordering is Go's max. AX is the byte offset of the step's first
// element in every array.
TEXT ·fleetAVX512(SB), NOSPLIT, $0-96
	MOVQ         n+0(FP), CX
	VBROADCASTSD rgNominal+8(FP), Z16
	VBROADCASTSD w+16(FP), Z17
	VBROADCASTSD loadFrac+24(FP), Z18
	VBROADCASTSD sl+32(FP), Z0
	MOVBLZX      adaptive+40(FP), DX
	MOVQ         gpuScale+48(FP), DI
	MOVQ         cpuRate+56(FP), SI
	MOVQ         split+64(FP), R8
	MOVQ         drift+72(FP), R9
	MOVQ         noise+80(FP), R10
	VBROADCASTSD fleetk<>+0(SB), Z19
	VBROADCASTSD fleetk<>+8(SB), Z20
	VBROADCASTSD fleetk<>+16(SB), Z21
	VBROADCASTSD fleetk<>+24(SB), Z22
	VBROADCASTSD fleetk<>+32(SB), Z23
	SHLQ         $3, CX
	XORQ         AX, AX

loop:
	VMOVUPD (DI)(AX*1), Z1
	VADDPD  (R9)(AX*1), Z1, Z1  // g+d
	VMAXPD  Z19, Z1, Z1         // max(., 1-driftMax)
	VMINPD  Z20, Z1, Z1         // g' = min(., 1+driftMax)
	VMOVUPD Z1, (DI)(AX*1)
	VMULPD  Z16, Z1, Z2         // rg = rgNominal*g'
	VMULPD  (R10)(AX*1), Z18, Z3 // loadFrac*z
	VMINPD  Z21, Z3, Z3         // load = min(., 0.6)
	VSUBPD  Z3, Z22, Z3         // 1-load
	VMULPD  (SI)(AX*1), Z3, Z3  // rc = c*(1-load)
	VMOVUPD (R8)(AX*1), Z4      // s
	VMULPD  Z17, Z4, Z5         // s*w
	VMULPD  Z23, Z2, Z6         // rg*1e9
	VDIVPD  Z6, Z5, Z5          // tg
	VSUBPD  Z4, Z22, Z4         // 1-s
	VMULPD  Z17, Z4, Z4         // (1-s)*w
	VMULPD  Z23, Z3, Z6         // rc*1e9
	VDIVPD  Z6, Z4, Z4          // tc
	VMAXPD  Z5, Z0, Z0
	VMAXPD  Z4, Z0, Z0
	TESTB   DL, DL
	JZ      next
	VADDPD  Z3, Z2, Z6          // rg+rc
	VDIVPD  Z6, Z2, Z6          // s' = rg/(rg+rc)
	VMOVUPD Z6, (R8)(AX*1)

next:
	ADDQ $64, AX
	CMPQ AX, CX
	JLT  loop

	// The max across the lanes: halves, quarters, then the last pair.
	VEXTRACTF64X4 $1, Z0, Y1
	VMAXPD        Y1, Y0, Y0
	VEXTRACTF128  $1, Y0, X1
	VMAXPD        X1, X0, X0
	VPERMILPD     $1, X0, X1
	VMAXSD        X1, X0, X0
	VZEROUPPER
	MOVSD         X0, ret+88(FP)
	RET
