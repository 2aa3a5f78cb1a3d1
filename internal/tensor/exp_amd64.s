//go:build !purego

#include "textflag.h"

// The exp kernels (the contract is in exp.go). Each lane runs expScalar:
//
//	d  = v - mx
//	k  = round-to-nearest-even(d*log2e)          VCVTPD2DQ, then back
//	r  = ((d - k*ln2u) - k*ln2l) * 0.0625
//	p  = ((((((c8*r + c7)*r + c6)*r + c5)*r + c4)*r + c3)*r + 0.5)*r + 1
//	r  = r*p, then four times r = r*(2 + r), then r + 1
//	out = r * 2^k                                2^k's bits: (k+1023)<<52
//
// every multiply a VMULPD and every add a VADDPD or VSUBPD, never an FMA. A
// block with a lane whose k leaves [-1022, 1023] stops the kernel before it
// writes that block; the caller runs it through expScalar. The kernels also
// add each result to the row sum, one VADDSD per lane in element order: the
// ascending chain SoftmaxInto's bits are made of, run while the next block's
// exps are in flight.

DATA expconst<>+0(SB)/8, $1.4426950408889634073599246810018920 // log2e
DATA expconst<>+8(SB)/8, $0.69314718055966295651160180568695068359375 // ln2u
DATA expconst<>+16(SB)/8, $0.28235290563031577122588448175013436025525412068e-12 // ln2l
DATA expconst<>+24(SB)/8, $0.0625
DATA expconst<>+32(SB)/8, $2.4801587301587301587e-5 // c8
DATA expconst<>+40(SB)/8, $1.9841269841269841270e-4 // c7
DATA expconst<>+48(SB)/8, $1.3888888888888888889e-3 // c6
DATA expconst<>+56(SB)/8, $8.3333333333333333333e-3 // c5
DATA expconst<>+64(SB)/8, $4.1666666666666666667e-2 // c4
DATA expconst<>+72(SB)/8, $1.6666666666666666667e-1 // c3
DATA expconst<>+80(SB)/8, $0.5
DATA expconst<>+88(SB)/8, $1.0
DATA expconst<>+96(SB)/8, $2.0
DATA expconst<>+104(SB)/8, $-1022.0 // lowest k of a normal scale
DATA expconst<>+112(SB)/8, $1023.0 // highest
DATA expconst<>+120(SB)/4, $1023 // exponent bias, int32
DATA expconst<>+124(SB)/4, $0
DATA expconst<>+128(SB)/8, $0xFFF0000000000000 // -Inf
GLOBL expconst<>(SB), RODATA|NOPTR, $136

// func expBlocksAVX512(dst, src *float64, n int, mx float64, sum *float64) int
//
// Stores exp(src[j]-mx) into dst[j] eight elements at a time, over the
// n&^7 leading elements, adds each to *sum in ascending j (one scalar add
// chain, lane 0 to lane 7), and returns how many it wrote: all of them, or
// the start of the first block with a lane outside the normal range. dst may
// alias src.
TEXT ·expBlocksAVX512(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	ANDQ $~7, CX
	MOVQ sum+32(FP), R8
	VMOVSD (R8), X5
	VBROADCASTSD mx+24(FP), Z31
	VBROADCASTSD expconst<>+0(SB), Z30
	VBROADCASTSD expconst<>+8(SB), Z29
	VBROADCASTSD expconst<>+16(SB), Z28
	VBROADCASTSD expconst<>+24(SB), Z27
	VBROADCASTSD expconst<>+32(SB), Z26
	VBROADCASTSD expconst<>+40(SB), Z25
	VBROADCASTSD expconst<>+48(SB), Z24
	VBROADCASTSD expconst<>+56(SB), Z23
	VBROADCASTSD expconst<>+64(SB), Z22
	VBROADCASTSD expconst<>+72(SB), Z21
	VBROADCASTSD expconst<>+80(SB), Z20
	VBROADCASTSD expconst<>+88(SB), Z19
	VBROADCASTSD expconst<>+96(SB), Z18
	VBROADCASTSD expconst<>+104(SB), Z17
	VBROADCASTSD expconst<>+112(SB), Z16
	VPBROADCASTD expconst<>+120(SB), Y15
	XORQ AX, AX

block8:
	CMPQ AX, CX
	JGE  done8
	VMOVUPD (SI)(AX*8), Z0
	VSUBPD  Z31, Z0, Z0      // d = v - mx
	VMULPD  Z30, Z0, Z1
	VCVTPD2DQ Z1, Y2         // k
	VCVTDQ2PD Y2, Z1
	VCMPPD  $1, Z17, Z1, K1  // k < -1022
	VCMPPD  $14, Z16, Z1, K2 // k > 1023
	KORTESTW K1, K2
	JNZ     done8
	VMULPD  Z29, Z1, Z3
	VSUBPD  Z3, Z0, Z0
	VMULPD  Z28, Z1, Z3
	VSUBPD  Z3, Z0, Z0
	VMULPD  Z27, Z0, Z0      // r
	VMULPD  Z26, Z0, Z1      // p
	VADDPD  Z25, Z1, Z1
	VMULPD  Z0, Z1, Z1
	VADDPD  Z24, Z1, Z1
	VMULPD  Z0, Z1, Z1
	VADDPD  Z23, Z1, Z1
	VMULPD  Z0, Z1, Z1
	VADDPD  Z22, Z1, Z1
	VMULPD  Z0, Z1, Z1
	VADDPD  Z21, Z1, Z1
	VMULPD  Z0, Z1, Z1
	VADDPD  Z20, Z1, Z1
	VMULPD  Z0, Z1, Z1
	VADDPD  Z19, Z1, Z1
	VMULPD  Z1, Z0, Z0       // r = r*p
	VADDPD  Z18, Z0, Z1
	VMULPD  Z1, Z0, Z0
	VADDPD  Z18, Z0, Z1
	VMULPD  Z1, Z0, Z0
	VADDPD  Z18, Z0, Z1
	VMULPD  Z1, Z0, Z0
	VADDPD  Z18, Z0, Z1
	VMULPD  Z1, Z0, Z0
	VADDPD  Z19, Z0, Z0
	VPADDD  Y15, Y2, Y2      // k + 1023, in [1, 2046]
	VPMOVZXDQ Y2, Z2
	VPSLLQ  $52, Z2, Z2      // 2^k
	VMULPD  Z2, Z0, Z0
	VMOVUPD Z0, (DI)(AX*8)
	VADDSD  X0, X5, X5       // the sum, lane by lane
	VPERMILPD $1, X0, X6
	VADDSD  X6, X5, X5
	VEXTRACTF128 $1, Y0, X6
	VADDSD  X6, X5, X5
	VPERMILPD $1, X6, X6
	VADDSD  X6, X5, X5
	VEXTRACTF64X4 $1, Z0, Y7
	VADDSD  X7, X5, X5
	VPERMILPD $1, X7, X6
	VADDSD  X6, X5, X5
	VEXTRACTF128 $1, Y7, X7
	VADDSD  X7, X5, X5
	VPERMILPD $1, X7, X7
	VADDSD  X7, X5, X5
	ADDQ    $8, AX
	JMP     block8

done8:
	VMOVSD X5, (R8)
	MOVQ AX, ret+40(FP)
	VZEROUPPER
	RET

// func expBlocksAVX2(dst, src *float64, n int, mx float64, sum *float64) int
//
// expBlocksAVX512 four elements at a time, over the n&^3 leading elements.
// Sixteen registers hold mx, the reduction constants, the range bounds and
// the sum; the polynomial's coefficients are broadcast from memory where
// they are used.
TEXT ·expBlocksAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	ANDQ $~3, CX
	MOVQ sum+32(FP), R8
	VMOVSD (R8), X4
	VBROADCASTSD mx+24(FP), Y15
	VBROADCASTSD expconst<>+0(SB), Y14
	VBROADCASTSD expconst<>+8(SB), Y13
	VBROADCASTSD expconst<>+16(SB), Y12
	VBROADCASTSD expconst<>+24(SB), Y11
	VBROADCASTSD expconst<>+88(SB), Y10
	VBROADCASTSD expconst<>+96(SB), Y9
	VBROADCASTSD expconst<>+104(SB), Y8
	VBROADCASTSD expconst<>+112(SB), Y7
	VPBROADCASTD expconst<>+120(SB), X6
	XORQ AX, AX

block4:
	CMPQ AX, CX
	JGE  done4
	VMOVUPD (SI)(AX*8), Y0
	VSUBPD  Y15, Y0, Y0      // d = v - mx
	VMULPD  Y14, Y0, Y1
	VCVTPD2DQY Y1, X2        // k
	VCVTDQ2PD X2, Y1
	VCMPPD  $1, Y8, Y1, Y3   // k < -1022
	VCMPPD  $14, Y7, Y1, Y5  // k > 1023
	VORPD   Y5, Y3, Y3
	VMOVMSKPD Y3, BX
	TESTL   BX, BX
	JNZ     done4
	VMULPD  Y13, Y1, Y3
	VSUBPD  Y3, Y0, Y0
	VMULPD  Y12, Y1, Y3
	VSUBPD  Y3, Y0, Y0
	VMULPD  Y11, Y0, Y0      // r
	VBROADCASTSD expconst<>+32(SB), Y5
	VMULPD  Y5, Y0, Y1       // p
	VBROADCASTSD expconst<>+40(SB), Y5
	VADDPD  Y5, Y1, Y1
	VMULPD  Y0, Y1, Y1
	VBROADCASTSD expconst<>+48(SB), Y5
	VADDPD  Y5, Y1, Y1
	VMULPD  Y0, Y1, Y1
	VBROADCASTSD expconst<>+56(SB), Y5
	VADDPD  Y5, Y1, Y1
	VMULPD  Y0, Y1, Y1
	VBROADCASTSD expconst<>+64(SB), Y5
	VADDPD  Y5, Y1, Y1
	VMULPD  Y0, Y1, Y1
	VBROADCASTSD expconst<>+72(SB), Y5
	VADDPD  Y5, Y1, Y1
	VMULPD  Y0, Y1, Y1
	VBROADCASTSD expconst<>+80(SB), Y5
	VADDPD  Y5, Y1, Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  Y10, Y1, Y1
	VMULPD  Y1, Y0, Y0       // r = r*p
	VADDPD  Y9, Y0, Y1
	VMULPD  Y1, Y0, Y0
	VADDPD  Y9, Y0, Y1
	VMULPD  Y1, Y0, Y0
	VADDPD  Y9, Y0, Y1
	VMULPD  Y1, Y0, Y0
	VADDPD  Y9, Y0, Y1
	VMULPD  Y1, Y0, Y0
	VADDPD  Y10, Y0, Y0
	VPADDD  X6, X2, X2       // k + 1023, in [1, 2046]
	VPMOVZXDQ X2, Y2
	VPSLLQ  $52, Y2, Y2      // 2^k
	VMULPD  Y2, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	VADDSD  X0, X4, X4       // the sum, lane by lane
	VPERMILPD $1, X0, X1
	VADDSD  X1, X4, X4
	VEXTRACTF128 $1, Y0, X1
	VADDSD  X1, X4, X4
	VPERMILPD $1, X1, X1
	VADDSD  X1, X4, X4
	ADDQ    $4, AX
	JMP     block4

done4:
	VMOVSD X4, (R8)
	MOVQ AX, ret+40(FP)
	VZEROUPPER
	RET

// func divBlocksAVX512(o *float64, n int, s float64)
//
// o[j] = o[j] / s over the n&^7 leading elements, eight lanes a VDIVPD.
TEXT ·divBlocksAVX512(SB), NOSPLIT, $0-24
	MOVQ o+0(FP), DI
	MOVQ n+8(FP), CX
	ANDQ $~7, CX
	VBROADCASTSD s+16(FP), Z1
	XORQ AX, AX

div8:
	CMPQ AX, CX
	JGE  divdone8
	VMOVUPD (DI)(AX*8), Z0
	VDIVPD  Z1, Z0, Z0
	VMOVUPD Z0, (DI)(AX*8)
	ADDQ    $8, AX
	JMP     div8

divdone8:
	VZEROUPPER
	RET

// func divBlocksAVX2(o *float64, n int, s float64)
//
// divBlocksAVX512 over the n&^3 leading elements, four lanes a VDIVPD.
TEXT ·divBlocksAVX2(SB), NOSPLIT, $0-24
	MOVQ o+0(FP), DI
	MOVQ n+8(FP), CX
	ANDQ $~3, CX
	VBROADCASTSD s+16(FP), Y1
	XORQ AX, AX

div4:
	CMPQ AX, CX
	JGE  divdone4
	VMOVUPD (DI)(AX*8), Y0
	VDIVPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     div4

divdone4:
	VZEROUPPER
	RET

// func maxBlocksAVX512(src *float64, n int) float64
//
// The largest of the n&^7 leading elements, NaNs skipped (-Inf if there is
// none): each lane keeps max(v, acc) with acc the second source of VMAXPD,
// which returns acc when v is NaN or equals it — the scalar `if v > mx`. A
// zero maximum may come out as either zero; exp(v - mx) is the same for both.
TEXT ·maxBlocksAVX512(SB), NOSPLIT, $0-24
	MOVQ src+0(FP), SI
	MOVQ n+8(FP), CX
	ANDQ $~7, CX
	VBROADCASTSD expconst<>+128(SB), Z0
	XORQ AX, AX

max8:
	CMPQ AX, CX
	JGE  maxdone8
	VMOVUPD (SI)(AX*8), Z1
	VMAXPD  Z0, Z1, Z0
	ADDQ    $8, AX
	JMP     max8

maxdone8:
	VEXTRACTF64X4 $1, Z0, Y1
	VMAXPD  Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMAXPD  X1, X0, X0
	VPERMILPD $1, X0, X1
	VMAXSD  X1, X0, X0
	VMOVSD  X0, ret+16(FP)
	VZEROUPPER
	RET

// func maxBlocksAVX2(src *float64, n int) float64
//
// maxBlocksAVX512 over the n&^3 leading elements, four lanes a VMAXPD.
TEXT ·maxBlocksAVX2(SB), NOSPLIT, $0-24
	MOVQ src+0(FP), SI
	MOVQ n+8(FP), CX
	ANDQ $~3, CX
	VBROADCASTSD expconst<>+128(SB), Y0
	XORQ AX, AX

max4:
	CMPQ AX, CX
	JGE  maxdone4
	VMOVUPD (SI)(AX*8), Y1
	VMAXPD  Y0, Y1, Y0
	ADDQ    $4, AX
	JMP     max4

maxdone4:
	VEXTRACTF128 $1, Y0, X1
	VMAXPD  X1, X0, X0
	VPERMILPD $1, X0, X1
	VMAXSD  X1, X0, X0
	VMOVSD  X0, ret+16(FP)
	VZEROUPPER
	RET
