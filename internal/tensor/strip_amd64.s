#include "textflag.h"

// AVX2 strips of the product and aggregation kernels (strip_amd64.go).
//
// Each sweeps o in strips of sixteen columns (len(o)/16 of them). A strip
// keeps its columns in Y0–Y3, four doubles a register, and adds one term per
// iteration in the order the terms are listed. A product
// is VMULPD then VADDPD, never a fused multiply-add, so every lane rounds
// the product and then the sum, as scalar MULSD and ADDSD do. The
// accumulator is VADDPD's first source, as it is ADDSD's destination in the
// pure-Go strips. Accumulators start at +0 (VXORPD).

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
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func mmStrips16(o, b []float64, off []int, coef []float64, fresh bool)
TEXT ·mmStrips16(SB), NOSPLIT, $0-97
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), R11
	SHRQ $4, R11
	JZ mm_done
	MOVQ b_base+24(FP), SI
	MOVBLZX fresh+96(FP), AX

mm_strip:
	MOVQ off_base+48(FP), R8
	MOVQ off_len+56(FP), CX
	MOVQ coef_base+72(FP), R9
	TESTQ AX, AX
	JNZ mm_zero
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	JMP mm_check

mm_zero:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

mm_check:
	TESTQ CX, CX
	JZ mm_store

mm_loop:
	MOVQ (R8), DX
	LEAQ (SI)(DX*8), DX
	VBROADCASTSD (R9), Y4
	VMULPD 0(DX), Y4, Y5
	VMULPD 32(DX), Y4, Y6
	VMULPD 64(DX), Y4, Y7
	VMULPD 96(DX), Y4, Y8
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3
	ADDQ $8, R8
	ADDQ $8, R9
	DECQ CX
	JNZ mm_loop

mm_store:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, SI
	DECQ R11
	JNZ mm_strip
	VZEROUPPER

mm_done:
	RET

// func aggStrips16(o, x []float64, cols []int, f int)
TEXT ·aggStrips16(SB), NOSPLIT, $0-80
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), R11
	SHRQ $4, R11
	JZ agg_done
	MOVQ x_base+24(FP), SI
	MOVQ f+72(FP), R10

agg_strip:
	MOVQ cols_base+48(FP), R8
	MOVQ cols_len+56(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	TESTQ CX, CX
	JZ agg_store

agg_loop:
	MOVQ (R8), DX
	IMULQ R10, DX
	LEAQ (SI)(DX*8), DX
	VADDPD 0(DX), Y0, Y0
	VADDPD 32(DX), Y1, Y1
	VADDPD 64(DX), Y2, Y2
	VADDPD 96(DX), Y3, Y3
	ADDQ $8, R8
	DECQ CX
	JNZ agg_loop

agg_store:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, SI
	DECQ R11
	JNZ agg_strip
	VZEROUPPER

agg_done:
	RET

// func aggStrips16W(o, x, w []float64, cols, eids []int, f int)
TEXT ·aggStrips16W(SB), NOSPLIT, $0-128
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), R11
	SHRQ $4, R11
	JZ aggw_done
	MOVQ x_base+24(FP), SI
	MOVQ w_base+48(FP), R9
	MOVQ f+120(FP), R10

aggw_strip:
	MOVQ cols_base+72(FP), R8
	MOVQ cols_len+80(FP), CX
	MOVQ eids_base+96(FP), R12
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	TESTQ CX, CX
	JZ aggw_store

aggw_loop:
	MOVQ (R8), DX
	IMULQ R10, DX
	LEAQ (SI)(DX*8), DX
	MOVQ (R12), BX
	VBROADCASTSD (R9)(BX*8), Y4
	VMULPD 0(DX), Y4, Y5
	VMULPD 32(DX), Y4, Y6
	VMULPD 64(DX), Y4, Y7
	VMULPD 96(DX), Y4, Y8
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3
	ADDQ $8, R8
	ADDQ $8, R12
	DECQ CX
	JNZ aggw_loop

aggw_store:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, SI
	DECQ R11
	JNZ aggw_strip
	VZEROUPPER

aggw_done:
	RET
