#include "textflag.h"

// The constants of the transcriptions in variate.go, by their bits as Go
// evaluates them.
// SplitMix64 increment
DATA variatek<>+0(SB)/8, $0x9e3779b97f4a7c15  // GOLDEN
// SplitMix64 multipliers
DATA variatek<>+8(SB)/8, $0xbf58476d1ce4e5b9  // MIX1
DATA variatek<>+16(SB)/8, $0x94d049bb133111eb  // MIX2
// 2^-53: 53 random bits to [0, 1)
DATA variatek<>+24(SB)/8, $0x3ca0000000000000  // TWOM53
// Normal's clamp on u1
DATA variatek<>+32(SB)/8, $0x01a56e1fc2f8f359  // TINY
DATA variatek<>+40(SB)/8, $0xc000000000000000  // MINUS2
// float64(2π)
DATA variatek<>+48(SB)/8, $0x401921fb54442d18  // TWOPI
// mantissa field
DATA variatek<>+56(SB)/8, $0x000fffffffffffff  // MANT
DATA variatek<>+64(SB)/8, $0x3fe0000000000000  // HALF
// exponent bias - 1
DATA variatek<>+72(SB)/8, $0x00000000000003fe  // BIAS
// log_amd64.s constants
DATA variatek<>+80(SB)/8, $0x3fe6a09e667f3bcd  // HSQRT2
DATA variatek<>+88(SB)/8, $0x3ff0000000000000  // ONE
DATA variatek<>+96(SB)/8, $0x4000000000000000  // TWO
DATA variatek<>+104(SB)/8, $0x3fe5555555555593  // L1
DATA variatek<>+112(SB)/8, $0x3fd999999997fa04  // L2
DATA variatek<>+120(SB)/8, $0x3fd2492494229359  // L3
DATA variatek<>+128(SB)/8, $0x3fcc71c51d8e78af  // L4
DATA variatek<>+136(SB)/8, $0x3fc7466496cb03de  // L5
DATA variatek<>+144(SB)/8, $0x3fc39a09d078c69f  // L6
DATA variatek<>+152(SB)/8, $0x3fc2f112df3e5244  // L7
DATA variatek<>+160(SB)/8, $0x3fe62e42fee00000  // LN2HI
DATA variatek<>+168(SB)/8, $0x3dea39ef35793c76  // LN2LO
// sin.go constants
DATA variatek<>+176(SB)/8, $0x3ff45f306dc9c883  // FOUROPI
DATA variatek<>+184(SB)/8, $0x3fe921fb40000000  // PI4A
DATA variatek<>+192(SB)/8, $0x3e64442d00000000  // PI4B
DATA variatek<>+200(SB)/8, $0x3ce8469898cc5170  // PI4C
DATA variatek<>+208(SB)/8, $0x3de5d8fd1fd19ccd  // SIN0
DATA variatek<>+216(SB)/8, $0xbe5ae5e5a9291f5d  // SIN1
DATA variatek<>+224(SB)/8, $0x3ec71de3567d48a1  // SIN2
DATA variatek<>+232(SB)/8, $0xbf2a01a019bfdf03  // SIN3
DATA variatek<>+240(SB)/8, $0x3f8111111110f7d0  // SIN4
DATA variatek<>+248(SB)/8, $0xbfc5555555555548  // SIN5
DATA variatek<>+256(SB)/8, $0xbda8fa49a0861a9b  // COS0
DATA variatek<>+264(SB)/8, $0x3e21ee9d7b4e3f05  // COS1
DATA variatek<>+272(SB)/8, $0xbe927e4f7eac4bc6  // COS2
DATA variatek<>+280(SB)/8, $0x3efa01a019c844f5  // COS3
DATA variatek<>+288(SB)/8, $0xbf56c16c16c14f91  // COS4
DATA variatek<>+296(SB)/8, $0x3fa555555555554b  // COS5
// octant integers
DATA variatek<>+304(SB)/8, $0x0000000000000001  // I1
DATA variatek<>+312(SB)/8, $0x0000000000000002  // I2
DATA variatek<>+320(SB)/8, $0x0000000000000004  // I4
// exp_amd64.s constants, and the kernel's domain |x| <= 708
DATA variatek<>+328(SB)/8, $0x7fffffffffffffff  // ABS
DATA variatek<>+336(SB)/8, $0x4086200000000000  // DOMAIN
DATA variatek<>+344(SB)/8, $0x3ff71547652b82fe  // LOG2E
DATA variatek<>+352(SB)/8, $0x3fe62e42fefa3000  // LN2U
DATA variatek<>+360(SB)/8, $0x3d53de6af278ece6  // LN2L
DATA variatek<>+368(SB)/8, $0x3fb0000000000000  // SIXTEENTH
DATA variatek<>+376(SB)/8, $0x3fc5555555555555  // C3
DATA variatek<>+384(SB)/8, $0x3fa5555555555555  // C4
DATA variatek<>+392(SB)/8, $0x3f81111111111111  // C5
DATA variatek<>+400(SB)/8, $0x3f56c16c16c16c17  // C6
DATA variatek<>+408(SB)/8, $0x3f2a01a01a01a01a  // C7
DATA variatek<>+416(SB)/8, $0x3efa01a01a01a01a  // C8
// exponent bias
DATA variatek<>+424(SB)/8, $0x00000000000003ff  // I1023
GLOBL variatek<>(SB), RODATA, $432

#define GOLDEN variatek<>+0(SB)
#define MIX1 variatek<>+8(SB)
#define MIX2 variatek<>+16(SB)
#define TWOM53 variatek<>+24(SB)
#define TINY variatek<>+32(SB)
#define MINUS2 variatek<>+40(SB)
#define TWOPI variatek<>+48(SB)
#define MANT variatek<>+56(SB)
#define HALF variatek<>+64(SB)
#define BIAS variatek<>+72(SB)
#define HSQRT2 variatek<>+80(SB)
#define ONE variatek<>+88(SB)
#define TWO variatek<>+96(SB)
#define L1 variatek<>+104(SB)
#define L2 variatek<>+112(SB)
#define L3 variatek<>+120(SB)
#define L4 variatek<>+128(SB)
#define L5 variatek<>+136(SB)
#define L6 variatek<>+144(SB)
#define L7 variatek<>+152(SB)
#define LN2HI variatek<>+160(SB)
#define LN2LO variatek<>+168(SB)
#define FOUROPI variatek<>+176(SB)
#define PI4A variatek<>+184(SB)
#define PI4B variatek<>+192(SB)
#define PI4C variatek<>+200(SB)
#define SIN0 variatek<>+208(SB)
#define SIN1 variatek<>+216(SB)
#define SIN2 variatek<>+224(SB)
#define SIN3 variatek<>+232(SB)
#define SIN4 variatek<>+240(SB)
#define SIN5 variatek<>+248(SB)
#define COS0 variatek<>+256(SB)
#define COS1 variatek<>+264(SB)
#define COS2 variatek<>+272(SB)
#define COS3 variatek<>+280(SB)
#define COS4 variatek<>+288(SB)
#define COS5 variatek<>+296(SB)
#define I1 variatek<>+304(SB)
#define I2 variatek<>+312(SB)
#define I4 variatek<>+320(SB)
#define ABS variatek<>+328(SB)
#define DOMAIN variatek<>+336(SB)
#define LOG2E variatek<>+344(SB)
#define LN2U variatek<>+352(SB)
#define LN2L variatek<>+360(SB)
#define SIXTEENTH variatek<>+368(SB)
#define C3 variatek<>+376(SB)
#define C4 variatek<>+384(SB)
#define C5 variatek<>+392(SB)
#define C6 variatek<>+400(SB)
#define C7 variatek<>+408(SB)
#define C8 variatek<>+416(SB)
#define I1023 variatek<>+424(SB)

// func variates8(state *uint64, n int, mean, sd float64, exp bool, out *float64) (oob uint64)
//
// Eight lanes per pass, each the scalar path of variate.go and rng.go one
// instruction per Go operation: two SplitMix64 draws (VPMULLQ), the uniforms
// (VCVTUQQ2PD), Log and cos with their data-dependent choices as opmask
// selects, then mean + sd*z. Every product is rounded before its add; the
// exp step fuses (VFNMADD231PD, VFMADD213PD) exactly where exp_amd64.s's FMA
// path does. Registers: Z0 states, Z1 u1 then log, Z2 u2 then cos, Z3 the
// draw, Z29 1.0, Z30 mean, Z31 sd; R9 collects the out-of-domain lanes.
TEXT ·variates8(SB), NOSPLIT, $0-56
	MOVQ         state+0(FP), DI
	MOVQ         n+8(FP), DX
	VBROADCASTSD mean+16(FP), Z30
	VBROADCASTSD sd+24(FP), Z31
	MOVBLZX      exp+32(FP), R8
	MOVQ         out+40(FP), SI
	VBROADCASTSD ONE, Z29
	XORQ         R9, R9
	XORQ         CX, CX           // bit of the group's first lane in oob
	TESTQ        DX, DX
	JZ           done

loop:
	// Two SplitMix64 steps per lane; the state keeps the second.
	VMOVDQU64      (DI), Z0
	VPADDQ.BCST    GOLDEN, Z0, Z0
	VPSRLQ         $30, Z0, Z4
	VPXORQ         Z0, Z4, Z1
	VPMULLQ.BCST   MIX1, Z1, Z1
	VPSRLQ         $27, Z1, Z4
	VPXORQ         Z1, Z4, Z1
	VPMULLQ.BCST   MIX2, Z1, Z1
	VPSRLQ         $31, Z1, Z4
	VPXORQ         Z1, Z4, Z1
	VPADDQ.BCST    GOLDEN, Z0, Z0
	VPSRLQ         $30, Z0, Z4
	VPXORQ         Z0, Z4, Z2
	VPMULLQ.BCST   MIX1, Z2, Z2
	VPSRLQ         $27, Z2, Z4
	VPXORQ         Z2, Z4, Z2
	VPMULLQ.BCST   MIX2, Z2, Z2
	VPSRLQ         $31, Z2, Z4
	VPXORQ         Z2, Z4, Z2
	VMOVDQU64      Z0, (DI)

	// u = float64(bits>>11) / 2^53; u1 = max(u1, 1e-300).
	VPSRLQ         $11, Z1, Z1
	VCVTUQQ2PD     Z1, Z1
	VMULPD.BCST    TWOM53, Z1, Z1
	VMAXPD.BCST    TINY, Z1, Z1
	VPSRLQ         $11, Z2, Z2
	VCVTUQQ2PD     Z2, Z2
	VMULPD.BCST    TWOM53, Z2, Z2

	// Log(u1): f1 = mantissa | 0.5, k = exponent - 0x3FE; where f1 <= √2/2,
	// k -= 1 and f1 *= 2 (as f1 + f1).
	VPANDQ.BCST    MANT, Z1, Z4
	VPORQ.BCST     HALF, Z4, Z4
	VPSRLQ         $52, Z1, Z5
	VPSUBQ.BCST    BIAS, Z5, Z5
	VCVTQQ2PD      Z5, Z5
	VCMPPD.BCST    $2, HSQRT2, Z4, K1
	VSUBPD.BCST    ONE, Z5, K1, Z5
	VADDPD         Z4, Z4, K1, Z4
	VSUBPD.BCST    ONE, Z4, Z4    // f
	VADDPD.BCST    TWO, Z4, Z6
	VDIVPD         Z6, Z4, Z6     // s = f / (2 + f)
	VMULPD         Z6, Z6, Z7     // s2
	VMULPD         Z7, Z7, Z8     // s4
	VMULPD.BCST    L7, Z8, Z9
	VADDPD.BCST    L5, Z9, Z9
	VMULPD         Z8, Z9, Z9
	VADDPD.BCST    L3, Z9, Z9
	VMULPD         Z8, Z9, Z9
	VADDPD.BCST    L1, Z9, Z9
	VMULPD         Z9, Z7, Z7     // t1
	VMULPD.BCST    L6, Z8, Z9
	VADDPD.BCST    L4, Z9, Z9
	VMULPD         Z8, Z9, Z9
	VADDPD.BCST    L2, Z9, Z9
	VMULPD         Z9, Z8, Z8     // t2
	VADDPD         Z8, Z7, Z7     // R
	VMULPD.BCST    HALF, Z4, Z8
	VMULPD         Z4, Z8, Z8     // hfsq = 0.5*f*f
	VADDPD         Z8, Z7, Z7
	VMULPD         Z7, Z6, Z6     // s*(hfsq+R)
	VMULPD.BCST    LN2LO, Z5, Z7
	VADDPD         Z7, Z6, Z6
	VSUBPD         Z6, Z8, Z8
	VSUBPD         Z4, Z8, Z8
	VMULPD.BCST    LN2HI, Z5, Z5
	VSUBPD         Z8, Z5, Z1     // k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
	VMULPD.BCST    MINUS2, Z1, Z1
	VSQRTPD        Z1, Z1

	// cos(2π·u2): octant j = trunc(x·4/π), made even; z = x - y·π/4 in three
	// parts; both polynomials, the sine one where j&2, negated where (j+2)&4.
	VMULPD.BCST    TWOPI, Z2, Z2
	VMULPD.BCST    FOUROPI, Z2, Z4
	VCVTTPD2UQQ    Z4, Z4
	VPTESTMQ.BCST  I1, Z4, K1
	VPADDQ.BCST    I1, Z4, K1, Z4
	VCVTUQQ2PD     Z4, Z5         // y
	VMULPD.BCST    PI4A, Z5, Z6
	VSUBPD         Z6, Z2, Z2
	VMULPD.BCST    PI4B, Z5, Z6
	VSUBPD         Z6, Z2, Z2
	VMULPD.BCST    PI4C, Z5, Z6
	VSUBPD         Z6, Z2, Z2     // z
	VMULPD         Z2, Z2, Z5     // zz
	VMULPD.BCST    SIN0, Z5, Z6
	VADDPD.BCST    SIN1, Z6, Z6
	VMULPD         Z5, Z6, Z6
	VADDPD.BCST    SIN2, Z6, Z6
	VMULPD         Z5, Z6, Z6
	VADDPD.BCST    SIN3, Z6, Z6
	VMULPD         Z5, Z6, Z6
	VADDPD.BCST    SIN4, Z6, Z6
	VMULPD         Z5, Z6, Z6
	VADDPD.BCST    SIN5, Z6, Z6
	VMULPD         Z5, Z2, Z7
	VMULPD         Z6, Z7, Z7
	VADDPD         Z7, Z2, Z7     // z + z*zz*ps
	VMULPD.BCST    COS0, Z5, Z6
	VADDPD.BCST    COS1, Z6, Z6
	VMULPD         Z5, Z6, Z6
	VADDPD.BCST    COS2, Z6, Z6
	VMULPD         Z5, Z6, Z6
	VADDPD.BCST    COS3, Z6, Z6
	VMULPD         Z5, Z6, Z6
	VADDPD.BCST    COS4, Z6, Z6
	VMULPD         Z5, Z6, Z6
	VADDPD.BCST    COS5, Z6, Z6
	VMULPD         Z5, Z5, Z8
	VMULPD         Z6, Z8, Z8
	VMULPD.BCST    HALF, Z5, Z9
	VSUBPD         Z9, Z29, Z9
	VADDPD         Z8, Z9, Z9     // 1 - 0.5*zz + zz*zz*pc
	VPTESTMQ.BCST  I2, Z4, K2
	VMOVAPD        Z7, K2, Z9
	VPADDQ.BCST    I2, Z4, Z4
	VPANDQ.BCST    I4, Z4, Z4
	VPSLLQ         $61, Z4, Z4
	VPXORQ         Z4, Z9, Z2

	// mean + sd*z.
	VMULPD         Z2, Z1, Z3
	VMULPD         Z3, Z31, Z3
	VADDPD         Z3, Z30, Z3
	TESTQ          R8, R8
	JZ             store

	// Exp on the lanes with |x| <= 708, where neither the overflow nor the
	// subnormal step of exp_amd64.s can occur: k = round(x·log2e), the
	// reduction and Taylor steps fused, three doublings rounded and the last
	// fused, then the scale 2^k.
	VPANDQ.BCST    ABS, Z3, Z4
	VCMPPD.BCST    $2, DOMAIN, Z4, K1
	VMULPD.BCST    LOG2E, Z3, Z5
	VRNDSCALEPD    $8, Z5, Z5
	VMOVAPD        Z3, Z6
	VFNMADD231PD.BCST LN2U, Z5, Z6
	VFNMADD231PD.BCST LN2L, Z5, Z6
	VMULPD.BCST    SIXTEENTH, Z6, Z6
	VBROADCASTSD   C8, Z7
	VFMADD213PD.BCST C7, Z6, Z7
	VFMADD213PD.BCST C6, Z6, Z7
	VFMADD213PD.BCST C5, Z6, Z7
	VFMADD213PD.BCST C4, Z6, Z7
	VFMADD213PD.BCST C3, Z6, Z7
	VFMADD213PD.BCST HALF, Z6, Z7
	VFMADD213PD.BCST ONE, Z6, Z7
	VMULPD         Z7, Z6, Z6
	VADDPD.BCST    TWO, Z6, Z7
	VMULPD         Z7, Z6, Z6
	VADDPD.BCST    TWO, Z6, Z7
	VMULPD         Z7, Z6, Z6
	VADDPD.BCST    TWO, Z6, Z7
	VMULPD         Z7, Z6, Z6
	VADDPD.BCST    TWO, Z6, Z7
	VFMADD213PD.BCST ONE, Z7, Z6
	VCVTPD2QQ      Z5, Z5
	VPADDQ.BCST    I1023, Z5, Z5
	VPSLLQ         $52, Z5, Z5
	VMULPD         Z5, Z6, Z6
	VMOVAPD        Z6, K1, Z3
	KMOVB          K1, AX
	NOTL           AX
	MOVBLZX        AX, AX
	SHLQ           CX, AX
	ORQ            AX, R9

store:
	VMOVUPD        Z3, (SI)
	ADDQ           $64, DI
	ADDQ           $64, SI
	ADDQ           $8, CX
	SUBQ           $8, DX
	JNZ            loop

done:
	MOVQ           R9, oob+48(FP)
	VZEROUPPER
	RET
