//go:build !purego

#include "textflag.h"

// The ReLU kernels: positiveBits eight lanes at a time. A lane is positive
// when its bits minus one, compared unsigned, lie below +Inf's bits: +0 wraps
// to the top, a negative sign is above, every NaN is at or past +Inf. The
// kernels then select with a zeroing mask, so every other lane is +0. Each
// works over the n&^7 leading elements, loading a block whole before it
// stores it, so dst may be a source itself.

DATA reluconst<>+0(SB)/8, $1
DATA reluconst<>+8(SB)/8, $0x7FF0000000000000 // +Inf
DATA reluconst<>+16(SB)/8, $1.0
GLOBL reluconst<>(SB), RODATA|NOPTR, $24

// POSITIVE sets mask k to the positive lanes of z, using t as scratch; Z14
// and Z15 hold the broadcast 1 and +Inf.
#define POSITIVE(z, t, k) \
	VPSUBQ  Z14, z, t; \
	VPCMPUQ $1, Z15, t, k

#define RELUSETUP \
	MOVQ n+16(FP), CX; \
	ANDQ $~7, CX; \
	XORQ AX, AX; \
	VPBROADCASTQ reluconst<>+0(SB), Z14; \
	VPBROADCASTQ reluconst<>+8(SB), Z15

// func reluBlocksAVX512(dst, src *float64, n int)
//
// dst[i] = src[i] where it is positive, else +0: ReLUInto's loop.
TEXT ·reluBlocksAVX512(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	RELUSETUP

rblock:
	CMPQ AX, CX
	JGE  rdone
	VMOVDQU64 (SI)(AX*8), Z0
	POSITIVE(Z0, Z1, K1)
	VMOVDQU64.Z Z0, K1, Z0
	VMOVDQU64 Z0, (DI)(AX*8)
	ADDQ $8, AX
	JMP  rblock

rdone:
	VZEROUPPER
	RET

// func reluMaskBlocksAVX512(dst, src *float64, n int)
//
// dst[i] = 1 where src[i] is positive, else +0: ReLUMaskInto's loop.
TEXT ·reluMaskBlocksAVX512(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	RELUSETUP
	VBROADCASTSD reluconst<>+16(SB), Z13

mblock:
	CMPQ AX, CX
	JGE  mdone
	VMOVDQU64 (SI)(AX*8), Z0
	POSITIVE(Z0, Z1, K1)
	VMOVAPD.Z Z13, K1, Z0
	VMOVUPD   Z0, (DI)(AX*8)
	ADDQ $8, AX
	JMP  mblock

mdone:
	VZEROUPPER
	RET

// func mulReLUMaskBlocksAVX512(dst, ct, h *float64, n int)
//
// dst[i] = ct[i] * (1 where h[i] is positive, else +0): MulReLUMaskInto's
// loop, the multiply a VMULPD, so a negative ct under a zero mask is -0 and
// an infinite or NaN one is NaN, as there. The mask is never a NaN, so which
// operand comes first changes no bit, and one kernel serves both orders.
TEXT ·mulReLUMaskBlocksAVX512(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ ct+8(FP), DX
	MOVQ h+16(FP), SI
	MOVQ n+24(FP), CX
	ANDQ $~7, CX
	XORQ AX, AX
	VPBROADCASTQ reluconst<>+0(SB), Z14
	VPBROADCASTQ reluconst<>+8(SB), Z15
	VBROADCASTSD reluconst<>+16(SB), Z13

xblock:
	CMPQ AX, CX
	JGE  xdone
	VMOVDQU64 (SI)(AX*8), Z0
	POSITIVE(Z0, Z1, K1)
	VMOVAPD.Z Z13, K1, Z0
	VMULPD    (DX)(AX*8), Z0, Z0
	VMOVUPD   Z0, (DI)(AX*8)
	ADDQ $8, AX
	JMP  xblock

xdone:
	VZEROUPPER
	RET
