//go:build !purego

#include "textflag.h"

// The draw kernels: RNG.Normal and RNG.Uniform eight elements at a time.
// Lane i of a block runs splitmix64 on the state its element's scalar draw
// would step to (VPMULLQ for the two multiplies), takes the top 53 bits to
// [0, 1) (VCVTUQQ2PD, then times 2^-53, the exact quotient of Float64's
// division), and the rest of the scalar formula, one VMULPD, VADDPD, VSUBPD,
// VDIVPD or VSQRTPD per scalar operation in its order and never an FMA.

// Offsets from the block's starting state: u1 of element i steps 2i+1 times,
// u2 2i+2 times, a Uniform element i+1 times.
DATA rngconst<>+0(SB)/8, $0x9e3779b97f4a7c15 // 1γ, the u1 lanes
DATA rngconst<>+8(SB)/8, $0xdaa66d2c7ddf743f
DATA rngconst<>+16(SB)/8, $0x1715609f7c746c69
DATA rngconst<>+24(SB)/8, $0x538454127b096493
DATA rngconst<>+32(SB)/8, $0x8ff34785799e5cbd
DATA rngconst<>+40(SB)/8, $0xcc623af8783354e7
DATA rngconst<>+48(SB)/8, $0x08d12e6b76c84d11
DATA rngconst<>+56(SB)/8, $0x454021de755d453b
DATA rngconst<>+64(SB)/8, $0x3c6ef372fe94f82a // 2γ, the u2 lanes
DATA rngconst<>+72(SB)/8, $0x78dde6e5fd29f054
DATA rngconst<>+80(SB)/8, $0xb54cda58fbbee87e
DATA rngconst<>+88(SB)/8, $0xf1bbcdcbfa53e0a8
DATA rngconst<>+96(SB)/8, $0x2e2ac13ef8e8d8d2
DATA rngconst<>+104(SB)/8, $0x6a99b4b1f77dd0fc
DATA rngconst<>+112(SB)/8, $0xa708a824f612c926
DATA rngconst<>+120(SB)/8, $0xe3779b97f4a7c150 // 16γ: a Normal block
DATA rngconst<>+128(SB)/8, $0x9e3779b97f4a7c15 // 1γ, the Uniform lanes
DATA rngconst<>+136(SB)/8, $0x3c6ef372fe94f82a
DATA rngconst<>+144(SB)/8, $0xdaa66d2c7ddf743f
DATA rngconst<>+152(SB)/8, $0x78dde6e5fd29f054
DATA rngconst<>+160(SB)/8, $0x1715609f7c746c69
DATA rngconst<>+168(SB)/8, $0xb54cda58fbbee87e
DATA rngconst<>+176(SB)/8, $0x538454127b096493
DATA rngconst<>+184(SB)/8, $0xf1bbcdcbfa53e0a8 // 8γ: a Uniform block
DATA rngconst<>+192(SB)/8, $0xbf58476d1ce4e5b9 // splitmix64's multipliers
DATA rngconst<>+200(SB)/8, $0x94d049bb133111eb
DATA rngconst<>+208(SB)/8, $0x3ca0000000000000 // 2^-53
// logScalar's (log.go)
DATA rngconst<>+216(SB)/8, $0x000fffffffffffff // the mantissa
DATA rngconst<>+224(SB)/8, $0x3fe // the exponent of [0.5, 1)
DATA rngconst<>+232(SB)/8, $7.07106781186547524401e-01 // sqrt(2)/2
DATA rngconst<>+240(SB)/8, $1.0
DATA rngconst<>+248(SB)/8, $2.0
DATA rngconst<>+256(SB)/8, $0.5
DATA rngconst<>+264(SB)/8, $6.666666666666735130e-01 // L1
DATA rngconst<>+272(SB)/8, $3.999999999940941908e-01 // L2
DATA rngconst<>+280(SB)/8, $2.857142874366239149e-01 // L3
DATA rngconst<>+288(SB)/8, $2.222219843214978396e-01 // L4
DATA rngconst<>+296(SB)/8, $1.818357216161805012e-01 // L5
DATA rngconst<>+304(SB)/8, $1.531383769920937332e-01 // L6
DATA rngconst<>+312(SB)/8, $1.479819860511658591e-01 // L7
DATA rngconst<>+320(SB)/8, $6.93147180369123816490e-01 // Ln2Hi
DATA rngconst<>+328(SB)/8, $1.90821492927058770002e-10 // Ln2Lo
// Norm's and math.Cos's (math/sin.go)
DATA rngconst<>+336(SB)/8, $-2.0
DATA rngconst<>+344(SB)/8, $6.283185307179586476925286766559 // 2π
DATA rngconst<>+352(SB)/8, $1.2732395447351626861510701069801 // 4/π
DATA rngconst<>+360(SB)/8, $7.85398125648498535156e-1 // PI4A
DATA rngconst<>+368(SB)/8, $3.77489470793079817668e-8 // PI4B
DATA rngconst<>+376(SB)/8, $2.69515142907905952645e-15 // PI4C
DATA rngconst<>+384(SB)/8, $1.58962301576546568060e-10 // _sin
DATA rngconst<>+392(SB)/8, $-2.50507477628578072866e-8
DATA rngconst<>+400(SB)/8, $2.75573136213857245213e-6
DATA rngconst<>+408(SB)/8, $-1.98412698295895385996e-4
DATA rngconst<>+416(SB)/8, $8.33333333332211858878e-3
DATA rngconst<>+424(SB)/8, $-1.66666666666666307295e-1
DATA rngconst<>+432(SB)/8, $-1.13585365213876817300e-11 // _cos
DATA rngconst<>+440(SB)/8, $2.08757008419747316778e-9
DATA rngconst<>+448(SB)/8, $-2.75573141792967388112e-7
DATA rngconst<>+456(SB)/8, $2.48015872888517045348e-5
DATA rngconst<>+464(SB)/8, $-1.38888888888730564116e-3
DATA rngconst<>+472(SB)/8, $4.16666666666665929218e-2
DATA rngconst<>+480(SB)/8, $1 // octant bits
DATA rngconst<>+488(SB)/8, $2
DATA rngconst<>+496(SB)/8, $4
GLOBL rngconst<>(SB), RODATA|NOPTR, $504

// MIX is splitmix64's output function on the eight states in z, t scratch;
// Z26 and Z25 hold its multipliers.
#define MIX(z, t) \
	VPSRLQ  $30, z, t; \
	VPXORQ  t, z, z; \
	VPMULLQ Z26, z, z; \
	VPSRLQ  $27, z, t; \
	VPXORQ  t, z, z; \
	VPMULLQ Z25, z, z; \
	VPSRLQ  $31, z, t; \
	VPXORQ  t, z, z

// POLY6 is ((((((c0*x)+c1)*x+c2)*x+c3)*x+c4)*x+c5) for the six
// coefficients at c, math/sin.go's order.
#define POLY6(c, x, p) \
	VMULPD.BCST c+0(SB), x, p; \
	VADDPD.BCST c+8(SB), p, p; \
	VMULPD      x, p, p; \
	VADDPD.BCST c+16(SB), p, p; \
	VMULPD      x, p, p; \
	VADDPD.BCST c+24(SB), p, p; \
	VMULPD      x, p, p; \
	VADDPD.BCST c+32(SB), p, p; \
	VMULPD      x, p, p; \
	VADDPD.BCST c+40(SB), p, p

// func normBlocksAVX512(dst *float64, n int, state *uint64, std float64) int
//
// Stores std * Norm() into dst eight elements a block over the n&^7 leading
// elements, advancing *state past each, and returns how many it wrote: all
// of them, or the start of the first block in which some u1 draws 0 (Norm
// would draw that u1 again). That block is left undrawn and *state where it
// starts, for the scalar loop. A lane runs Norm: logScalar's port of
// log_amd64.s on u1 (its special cases cannot arise: u1 is in [2^-53, 1)),
// then math.Cos's Cody-Waite path on 2π·u2, which is all an argument below
// 2π takes: j = trunc(x·4/π) rounded up to even, z = x - j·π/4 in three
// parts, both polynomials of z², the sine one where j&2 and the sign flipped
// where (j+2)&4.
TEXT ·normBlocksAVX512(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), CX
	ANDQ $~7, CX
	MOVQ state+16(FP), SI
	MOVQ (SI), R8
	MOVQ rngconst<>+120(SB), R9
	VBROADCASTSD std+24(FP), Z31
	VMOVDQU64 rngconst<>+0(SB), Z28
	VMOVDQU64 rngconst<>+64(SB), Z27
	VPBROADCASTQ rngconst<>+192(SB), Z26
	VPBROADCASTQ rngconst<>+200(SB), Z25
	VBROADCASTSD rngconst<>+208(SB), Z24
	VPBROADCASTQ rngconst<>+216(SB), Z23
	VPBROADCASTQ rngconst<>+224(SB), Z22
	VPBROADCASTQ rngconst<>+232(SB), Z21
	VBROADCASTSD rngconst<>+240(SB), Z20
	VBROADCASTSD rngconst<>+248(SB), Z19
	VBROADCASTSD rngconst<>+256(SB), Z18
	XORQ AX, AX

nblock:
	CMPQ AX, CX
	JGE  ndone
	VPBROADCASTQ R8, Z0
	VPADDQ Z28, Z0, Z1
	VPADDQ Z27, Z0, Z2
	MIX(Z1, Z3)
	MIX(Z2, Z3)
	VPSRLQ $11, Z1, Z1
	VPSRLQ $11, Z2, Z2
	VPTESTMQ Z1, Z1, K1
	KMOVW  K1, R10
	CMPL   R10, $0xff
	JNE    ndone            // a u1 of 0: the scalar loop redraws it
	VCVTUQQ2PD Z1, Z1
	VMULPD Z24, Z1, Z1      // u1
	VCVTUQQ2PD Z2, Z2
	VMULPD Z24, Z2, Z2      // u2

	// logScalar(u1)
	VPANDQ Z23, Z1, Z3
	VPORQ  Z18, Z3, Z3      // f1 in [0.5, 1)
	VPSRLQ $52, Z1, Z4
	VPSUBQ Z22, Z4, Z4
	VCVTQQ2PD Z4, Z4        // k
	VPCMPUQ $2, Z21, Z3, K2 // c: f1 <= sqrt(2)/2
	VSUBPD Z20, Z4, K2, Z4  // k - c
	VMULPD Z19, Z3, K2, Z3  // f1 * (1+c)
	VSUBPD Z20, Z3, Z3      // f
	VADDPD Z19, Z3, Z5
	VDIVPD Z5, Z3, Z5       // s = f / (2+f)
	VMULPD Z5, Z5, Z6       // s2
	VMULPD Z6, Z6, Z7       // s4
	VMULPD.BCST rngconst<>+312(SB), Z7, Z8
	VADDPD.BCST rngconst<>+296(SB), Z8, Z8
	VMULPD Z7, Z8, Z8
	VADDPD.BCST rngconst<>+280(SB), Z8, Z8
	VMULPD Z7, Z8, Z8
	VADDPD.BCST rngconst<>+264(SB), Z8, Z8
	VMULPD Z8, Z6, Z8       // t1
	VMULPD.BCST rngconst<>+304(SB), Z7, Z9
	VADDPD.BCST rngconst<>+288(SB), Z9, Z9
	VMULPD Z7, Z9, Z9
	VADDPD.BCST rngconst<>+272(SB), Z9, Z9
	VMULPD Z9, Z7, Z9       // t2
	VADDPD Z9, Z8, Z8       // R
	VMULPD Z18, Z3, Z9
	VMULPD Z3, Z9, Z9       // hfsq
	VADDPD Z8, Z9, Z10
	VMULPD Z10, Z5, Z10     // s*(hfsq+R)
	VMULPD.BCST rngconst<>+328(SB), Z4, Z11
	VADDPD Z11, Z10, Z10
	VSUBPD Z10, Z9, Z10
	VSUBPD Z3, Z10, Z10
	VMULPD.BCST rngconst<>+320(SB), Z4, Z11
	VSUBPD Z10, Z11, Z1     // log(u1)
	VMULPD.BCST rngconst<>+336(SB), Z1, Z1
	VSQRTPD Z1, Z1          // sqrt(-2 log u1)

	// math.Cos(2π·u2)
	VMULPD.BCST rngconst<>+344(SB), Z2, Z2 // x
	VMULPD.BCST rngconst<>+352(SB), Z2, Z3
	VCVTTPD2DQ Z3, Y4
	VPMOVZXDQ Y4, Z4        // j
	VPANDQ.BCST rngconst<>+480(SB), Z4, Z5
	VPADDQ Z5, Z4, Z4       // j rounded up to even
	VCVTQQ2PD Z4, Z5        // y
	VMULPD.BCST rngconst<>+360(SB), Z5, Z6
	VSUBPD Z6, Z2, Z6
	VMULPD.BCST rngconst<>+368(SB), Z5, Z7
	VSUBPD Z7, Z6, Z6
	VMULPD.BCST rngconst<>+376(SB), Z5, Z7
	VSUBPD Z7, Z6, Z6       // z
	VMULPD Z6, Z6, Z7       // zz
	POLY6(rngconst<>+384, Z7, Z8)
	VMULPD Z7, Z6, Z9
	VMULPD Z8, Z9, Z9
	VADDPD Z9, Z6, Z9       // z + z*zz*sin(zz)
	POLY6(rngconst<>+432, Z7, Z8)
	VMULPD Z18, Z7, Z10
	VSUBPD Z10, Z20, Z10    // 1 - 0.5*zz
	VMULPD Z7, Z7, Z11
	VMULPD Z8, Z11, Z11
	VADDPD Z11, Z10, Z8     // 1 - 0.5*zz + zz*zz*cos(zz)
	VPTESTMQ.BCST rngconst<>+488(SB), Z4, K3
	VMOVAPD Z9, K3, Z8      // the sine where j&2
	VPADDQ.BCST rngconst<>+488(SB), Z4, Z4
	VPANDQ.BCST rngconst<>+496(SB), Z4, Z4
	VPSLLQ $61, Z4, Z4
	VPXORQ Z4, Z8, Z8       // negated where (j+2)&4

	VMULPD Z8, Z1, Z1
	VMULPD Z1, Z31, Z1      // std * Norm
	VMOVUPD Z1, (DI)(AX*8)
	ADDQ R9, R8
	ADDQ $8, AX
	JMP  nblock

ndone:
	MOVQ R8, (SI)
	MOVQ AX, ret+32(FP)
	VZEROUPPER
	RET

// func uniformBlocksAVX512(dst *float64, n int, state *uint64, lo, scale float64)
//
// Stores lo + scale*Float64() into dst over the n&^7 leading elements,
// advancing *state past each: Uniform's loop, scale its hi-lo.
TEXT ·uniformBlocksAVX512(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), CX
	ANDQ $~7, CX
	MOVQ state+16(FP), SI
	MOVQ (SI), R8
	MOVQ rngconst<>+184(SB), R9
	VBROADCASTSD lo+24(FP), Z30
	VBROADCASTSD scale+32(FP), Z29
	VMOVDQU64 rngconst<>+128(SB), Z28
	VPBROADCASTQ rngconst<>+192(SB), Z26
	VPBROADCASTQ rngconst<>+200(SB), Z25
	VBROADCASTSD rngconst<>+208(SB), Z24
	XORQ AX, AX

ublock:
	CMPQ AX, CX
	JGE  udone
	VPBROADCASTQ R8, Z0
	VPADDQ Z28, Z0, Z1
	MIX(Z1, Z3)
	VPSRLQ $11, Z1, Z1
	VCVTUQQ2PD Z1, Z1
	VMULPD Z24, Z1, Z1
	VMULPD Z1, Z29, Z1
	VADDPD Z1, Z30, Z1
	VMOVUPD Z1, (DI)(AX*8)
	ADDQ R9, R8
	ADDQ $8, AX
	JMP  ublock

udone:
	MOVQ R8, (SI)
	VZEROUPPER
	RET
