//go:build !purego

#include "textflag.h"

// func addBlocksAVX512(out, a, b *float64, n int)
//
// out[i] = a[i] + b[i] for every i in [0, n), n a multiple of 8: four ZMM
// registers a pass, then one. Every add is VADDPD with a as its first
// source, the operand order of the scalar `a[i] + b[i]`, so where two NaNs
// meet a's payload survives as it does there. Each block is loaded whole
// before any of it is stored, so out may be a or b itself.
TEXT ·addBlocksAVX512(SB), NOSPLIT, $0-32
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	XORQ AX, AX

loop32:
	CMPQ CX, $32
	JLT  loop8
	VMOVUPD 0(SI)(AX*8), Z0
	VMOVUPD 64(SI)(AX*8), Z1
	VMOVUPD 128(SI)(AX*8), Z2
	VMOVUPD 192(SI)(AX*8), Z3
	VADDPD  0(DX)(AX*8), Z0, Z0
	VADDPD  64(DX)(AX*8), Z1, Z1
	VADDPD  128(DX)(AX*8), Z2, Z2
	VADDPD  192(DX)(AX*8), Z3, Z3
	VMOVUPD Z0, 0(DI)(AX*8)
	VMOVUPD Z1, 64(DI)(AX*8)
	VMOVUPD Z2, 128(DI)(AX*8)
	VMOVUPD Z3, 192(DI)(AX*8)
	ADDQ    $32, AX
	SUBQ    $32, CX
	JMP     loop32

loop8:
	CMPQ CX, $8
	JLT  done
	VMOVUPD 0(SI)(AX*8), Z0
	VADDPD  0(DX)(AX*8), Z0, Z0
	VMOVUPD Z0, 0(DI)(AX*8)
	ADDQ    $8, AX
	SUBQ    $8, CX
	JMP     loop8

done:
	VZEROUPPER
	RET
