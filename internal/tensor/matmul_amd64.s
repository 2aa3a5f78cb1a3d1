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

// func axpyListAVX2(o, b *float64, n int, nzs *nzEnt, nnz int)
//
// For t ascending over the nnz entries {off, val} at nzs (16 bytes each):
//
//	o[j] = o[j] + val[t]*b[off[t]+j]   for every j in [0, n)
//
// taken four entries at a time (one load and one store of o per four terms),
// the last nnz%4 one at a time. The kernel contract (see matMulRows): lanes
// are output columns j; each lane rounds the product (VMULPD), then the sum
// (VADDPD) — never an FMA — in ascending t; the accumulator is the first
// source of every add, as in the scalar `o[j] += av*bv`.
TEXT ·axpyListAVX2(SB), NOSPLIT, $0-40
	MOVQ o+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ n+16(FP), DX
	MOVQ nzs+24(FP), R12
	MOVQ nnz+32(FP), R13

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
	VMOVUPD (DI)(AX*8), Y4
	VMOVUPD 32(DI)(AX*8), Y5
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
	VMOVSD (DI)(AX*8), X4
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
	VMOVUPD (DI)(AX*8), Y4
	VMOVUPD 32(DI)(AX*8), Y5
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
	VMOVSD (DI)(AX*8), X4
	VMULSD (R8)(AX*8), X0, X6
	VADDSD X6, X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ AX
	DECQ CX
	JMP  g1tail

g1next:
	ADDQ $16, R12
	DECQ R13
	JMP  group1

done:
	VZEROUPPER
	RET
