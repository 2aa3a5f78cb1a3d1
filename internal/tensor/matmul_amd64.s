//go:build !purego

#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func axpyListAVX2(o, b *float64, n int, nzs *nzEnt, nnz int, zero bool)
//
// For t ascending over the nnz entries {off, val} at nzs (16 bytes each):
//
//	o[j] = o[j] + val[t]*b[off[t]+j]   for every j in [0, n)
//
// taken four entries at a time (one load and one store of o per four terms),
// the last nnz%4 one at a time. The kernel contract (see matMulRows): lanes
// are output columns j; each lane rounds the product (VMULPD), then the sum
// (VADDPD) — never an FMA — in ascending t; the accumulator is the first
// source of every add, as in the scalar `o[j] += av*bv`. With zero set, the
// first pass starts its lanes at +0 instead of loading o, which is then
// only written (R14 holds the flag and is cleared after the first pass).
TEXT ·axpyListAVX2(SB), NOSPLIT, $0-41
	MOVQ o+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ n+16(FP), DX
	MOVQ nzs+24(FP), R12
	MOVQ nnz+32(FP), R13
	MOVBQZX zero+40(FP), R14

group4:
	CMPQ R13, $4
	JLT  group1
	MOVQ 0(R12), R8
	MOVQ 16(R12), R9
	MOVQ 32(R12), R10
	MOVQ 48(R12), R11
	VBROADCASTSD 8(R12), Y0
	VBROADCASTSD 24(R12), Y1
	VBROADCASTSD 40(R12), Y2
	VBROADCASTSD 56(R12), Y3
	LEAQ (SI)(R8*8), R8
	LEAQ (SI)(R9*8), R9
	LEAQ (SI)(R10*8), R10
	LEAQ (SI)(R11*8), R11
	XORQ AX, AX
	MOVQ DX, CX

g4loop8:
	CMPQ CX, $8
	JLT  g4tail
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	TESTQ R14, R14
	JNE   g4start8
	VMOVUPD (DI)(AX*8), Y4
	VMOVUPD 32(DI)(AX*8), Y5

g4start8:
	VMULPD (R8)(AX*8), Y0, Y6
	VMULPD 32(R8)(AX*8), Y0, Y7
	VADDPD Y6, Y4, Y4
	VADDPD Y7, Y5, Y5
	VMULPD (R9)(AX*8), Y1, Y6
	VMULPD 32(R9)(AX*8), Y1, Y7
	VADDPD Y6, Y4, Y4
	VADDPD Y7, Y5, Y5
	VMULPD (R10)(AX*8), Y2, Y6
	VMULPD 32(R10)(AX*8), Y2, Y7
	VADDPD Y6, Y4, Y4
	VADDPD Y7, Y5, Y5
	VMULPD (R11)(AX*8), Y3, Y6
	VMULPD 32(R11)(AX*8), Y3, Y7
	VADDPD Y6, Y4, Y4
	VADDPD Y7, Y5, Y5
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	ADDQ $8, AX
	SUBQ $8, CX
	JMP  g4loop8

g4tail:
	TESTQ CX, CX
	JEQ   g4next
	VXORPD X4, X4, X4
	TESTQ R14, R14
	JNE   g4start1
	VMOVSD (DI)(AX*8), X4

g4start1:
	VMULSD (R8)(AX*8), X0, X6
	VADDSD X6, X4, X4
	VMULSD (R9)(AX*8), X1, X6
	VADDSD X6, X4, X4
	VMULSD (R10)(AX*8), X2, X6
	VADDSD X6, X4, X4
	VMULSD (R11)(AX*8), X3, X6
	VADDSD X6, X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ AX
	DECQ CX
	JMP  g4tail

g4next:
	XORQ R14, R14
	ADDQ $64, R12
	SUBQ $4, R13
	JMP  group4

group1:
	TESTQ R13, R13
	JEQ   done
	MOVQ 0(R12), R8
	VBROADCASTSD 8(R12), Y0
	LEAQ (SI)(R8*8), R8
	XORQ AX, AX
	MOVQ DX, CX

g1loop8:
	CMPQ CX, $8
	JLT  g1tail
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	TESTQ R14, R14
	JNE   g1start8
	VMOVUPD (DI)(AX*8), Y4
	VMOVUPD 32(DI)(AX*8), Y5

g1start8:
	VMULPD (R8)(AX*8), Y0, Y6
	VMULPD 32(R8)(AX*8), Y0, Y7
	VADDPD Y6, Y4, Y4
	VADDPD Y7, Y5, Y5
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	ADDQ $8, AX
	SUBQ $8, CX
	JMP  g1loop8

g1tail:
	TESTQ CX, CX
	JEQ   g1next
	VXORPD X4, X4, X4
	TESTQ R14, R14
	JNE   g1start1
	VMOVSD (DI)(AX*8), X4

g1start1:
	VMULSD (R8)(AX*8), X0, X6
	VADDSD X6, X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ AX
	DECQ CX
	JMP  g1tail

g1next:
	XORQ R14, R14
	ADDQ $16, R12
	DECQ R13
	JMP  group1

done:
	VZEROUPPER
	RET

// func axpyTileAVX512(o, b *float64, n int, nzs *nzEnt, nnz, mode int)
//
// The same sum as axpyListAVX2 over the first n&^63 columns only, a 64-column
// tile of o at a time: the tile is loaded into Z0-Z7 once, every entry t in
// ascending order adds val[t]*b[off[t]+j] to its eight lanes (VMULPD, then
// VADDPD with the accumulator first; never an FMA), and the tile is stored
// once. The mode picks where a tile's lanes start and what is stored:
//
//	tileAcc (0)    o, and the sum is stored: o += list
//	tileZero (1)   +0, not loading o: o = chain
//	tileAddTo (2)  +0, and o + chain is stored, o the first source of that
//	               add: the AddInto of a product into an accumulator, fused
//
// The n%64 tail is the caller's; nnz may be 0 (the lanes keep their start).
// Only Z0-Z15 are used, so VZEROUPPER leaves no dirty upper state behind.
TEXT ·axpyTileAVX512(SB), NOSPLIT, $0-48
	MOVQ o+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ n+16(FP), DX
	MOVQ nzs+24(FP), R12
	MOVQ nnz+32(FP), R13
	MOVQ mode+40(FP), R14

tile:
	CMPQ DX, $64
	JLT  tdone
	TESTQ R14, R14
	JNE   tzero
	VMOVUPD 0(DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD 128(DI), Z2
	VMOVUPD 192(DI), Z3
	VMOVUPD 256(DI), Z4
	VMOVUPD 320(DI), Z5
	VMOVUPD 384(DI), Z6
	VMOVUPD 448(DI), Z7
	JMP   tlist

tzero:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7

tlist:
	MOVQ R12, BX
	MOVQ R13, CX
	TESTQ CX, CX
	JEQ   tend

entry:
	MOVQ 0(BX), R8
	VBROADCASTSD 8(BX), Z8
	LEAQ (SI)(R8*8), R8
	VMULPD 0(R8), Z8, Z9
	VMULPD 64(R8), Z8, Z10
	VMULPD 128(R8), Z8, Z11
	VMULPD 192(R8), Z8, Z12
	VADDPD Z9, Z0, Z0
	VADDPD Z10, Z1, Z1
	VADDPD Z11, Z2, Z2
	VADDPD Z12, Z3, Z3
	VMULPD 256(R8), Z8, Z13
	VMULPD 320(R8), Z8, Z14
	VMULPD 384(R8), Z8, Z15
	VMULPD 448(R8), Z8, Z9
	VADDPD Z13, Z4, Z4
	VADDPD Z14, Z5, Z5
	VADDPD Z15, Z6, Z6
	VADDPD Z9, Z7, Z7
	ADDQ $16, BX
	DECQ CX
	JNE  entry

tend:
	CMPQ R14, $2
	JNE  tstore
	VMOVUPD 0(DI), Z8
	VMOVUPD 64(DI), Z9
	VMOVUPD 128(DI), Z10
	VMOVUPD 192(DI), Z11
	VMOVUPD 256(DI), Z12
	VMOVUPD 320(DI), Z13
	VMOVUPD 384(DI), Z14
	VMOVUPD 448(DI), Z15
	VADDPD Z0, Z8, Z0
	VADDPD Z1, Z9, Z1
	VADDPD Z2, Z10, Z2
	VADDPD Z3, Z11, Z3
	VADDPD Z4, Z12, Z4
	VADDPD Z5, Z13, Z5
	VADDPD Z6, Z14, Z6
	VADDPD Z7, Z15, Z7

tstore:
	VMOVUPD Z0, 0(DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VMOVUPD Z4, 256(DI)
	VMOVUPD Z5, 320(DI)
	VMOVUPD Z6, 384(DI)
	VMOVUPD Z7, 448(DI)
	ADDQ $512, DI
	ADDQ $512, SI
	SUBQ $64, DX
	JMP  tile

tdone:
	VZEROUPPER
	RET

// Lane orders of compactAVX512's two interleaves: entries 0-3 and 4-7 of
// {off, val} pairs, from the compressed offsets (table indices 0-7) and the
// compressed values (8-15).
DATA compactconst<>+0(SB)/8, $0
DATA compactconst<>+8(SB)/8, $8
DATA compactconst<>+16(SB)/8, $1
DATA compactconst<>+24(SB)/8, $9
DATA compactconst<>+32(SB)/8, $2
DATA compactconst<>+40(SB)/8, $10
DATA compactconst<>+48(SB)/8, $3
DATA compactconst<>+56(SB)/8, $11
DATA compactconst<>+64(SB)/8, $4
DATA compactconst<>+72(SB)/8, $12
DATA compactconst<>+80(SB)/8, $5
DATA compactconst<>+88(SB)/8, $13
DATA compactconst<>+96(SB)/8, $6
DATA compactconst<>+104(SB)/8, $14
DATA compactconst<>+112(SB)/8, $7
DATA compactconst<>+120(SB)/8, $15
DATA compactconst<>+128(SB)/8, $0x7FFFFFFFFFFFFFFF // every bit but the sign
GLOBL compactconst<>(SB), RODATA|NOPTR, $136

// func compactAVX512(nzs *nzEnt, arow *float64, n, off, stride int) int
//
// compactNonZeros over the n (1 to nzChunk) elements at arow: element p is
// listed as {off + p*stride, arow[p]} when any bit but its sign is set (±0
// is zero, every NaN is not), in ascending p, and the count is returned.
// Eight elements a block: one VPTESTMQ picks the lanes, VPCOMPRESSQ and
// VCOMPRESSPD pack their offsets and values into the low lanes, two
// VPERMI2Q interleave them into eight {off, val} pairs, and both 64-byte
// halves are stored whole; POPCNT of the lane mask advances the list. The
// last n%8 elements are loaded under a mask. A block's stores reach eight
// entries past the count before it, never past entry 8*(block+1), so the
// list needs room for n rounded up to 8 entries; the nzChunk entries the
// caller passes always have it. Only Z0-Z13 are used.
TEXT ·compactAVX512(SB), NOSPLIT, $0-48
	MOVQ nzs+0(FP), DI
	MOVQ arow+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ DI, R8
	VPBROADCASTQ off+24(FP), Z1    // off + lane*stride, built from 1, 2, 4 strides
	VPBROADCASTQ stride+32(FP), Z2
	VPADDQ  Z2, Z2, Z3
	VPADDQ  Z3, Z3, Z4
	VPADDQ  Z4, Z4, Z5             // the step of a block: 8 strides
	MOVL    $0xAA, R9
	KMOVW   R9, K2
	VPADDQ  Z2, Z1, K2, Z1
	MOVL    $0xCC, R9
	KMOVW   R9, K2
	VPADDQ  Z3, Z1, K2, Z1
	MOVL    $0xF0, R9
	KMOVW   R9, K2
	VPADDQ  Z4, Z1, K2, Z1
	VPBROADCASTQ compactconst<>+128(SB), Z6
	VMOVDQU64 compactconst<>+0(SB), Z10
	VMOVDQU64 compactconst<>+64(SB), Z11

cblock:
	CMPQ CX, $8
	JLT  ctail
	VMOVUPD   (SI), Z0
	VPTESTMQ  Z6, Z0, K1
	VPCOMPRESSQ Z1, K1, Z7
	VCOMPRESSPD Z0, K1, Z8
	VMOVDQA64 Z10, Z12
	VPERMI2Q  Z8, Z7, Z12
	VMOVDQA64 Z11, Z13
	VPERMI2Q  Z8, Z7, Z13
	VMOVDQU64 Z12, (DI)
	VMOVDQU64 Z13, 64(DI)
	KMOVW   K1, R9
	POPCNTL R9, R9
	SHLQ    $4, R9
	ADDQ    R9, DI
	VPADDQ  Z5, Z1, Z1
	ADDQ    $64, SI
	SUBQ    $8, CX
	JMP     cblock

ctail:
	TESTQ CX, CX
	JEQ   cdone
	MOVL  $1, R9
	SHLL  CX, R9
	DECL  R9
	KMOVW R9, K2
	VMOVUPD.Z (SI), K2, Z0
	VPTESTMQ  Z6, Z0, K2, K1
	VPCOMPRESSQ Z1, K1, Z7
	VCOMPRESSPD Z0, K1, Z8
	VMOVDQA64 Z10, Z12
	VPERMI2Q  Z8, Z7, Z12
	VMOVDQA64 Z11, Z13
	VPERMI2Q  Z8, Z7, Z13
	VMOVDQU64 Z12, (DI)
	VMOVDQU64 Z13, 64(DI)
	KMOVW   K1, R9
	POPCNTL R9, R9
	SHLQ    $4, R9
	ADDQ    R9, DI

cdone:
	SUBQ R8, DI
	SHRQ $4, DI
	MOVQ DI, ret+40(FP)
	VZEROUPPER
	RET
