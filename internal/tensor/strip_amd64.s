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
//
// Every instruction that names an X or Y register is VEX-encoded (its
// mnemonic starts with V). A legacy-SSE instruction after a 256-bit one pays
// a state transition: loading a constant with MOVQ AX, X9 instead of VMOVQ
// made a 64-column aggregation epilogue cost 200 ns a row instead of 29 ns.
// CI fails on any non-V mnemonic naming an X register in these files.

// math.NaN()'s bits: the ReLU epilogue's answer for every NaN.
DATA reluNaN<>+0(SB)/8, $0x7ff8000000000001
GLOBL reluNaN<>(SB), RODATA|NOPTR, $8

// RELU is math.Max(0, r) in each lane of r, as reluRange computes it: r
// where r > +0 (ordered, so NaN fails), else +0 (VANDPD with the compare
// mask), then reluNaN's bits (in Y10) wherever r was NaN. Y9 holds +0; Y4
// and Y5 are scratch. Not VMAXPD: it returns its second operand when either
// is NaN or both are zeros, which loses NaN or keeps −0.
#define RELU(r) \
	VCMPPD $3, r, r, Y5 \
	VCMPPD $0x1e, Y9, r, Y4 \
	VANDPD r, Y4, r \
	VBLENDVPD Y5, Y10, r, r

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

// func aggStrips16(o, x, w []float64, cols, eids []int, f int, bias []float64, scale float64, epi int)
//
// One strip: sum the terms (plain or weighted) into Y0–Y3, then run the
// epilogue steps epi selects (1 ×scale, 2 +bias, 4 ReLU) on the registers,
// each with the row value as the first source, then store.
TEXT ·aggStrips16(SB), NOSPLIT, $0-168
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), R11
	SHRQ $4, R11
	JZ agg_done
	MOVQ x_base+24(FP), SI
	MOVQ w_base+48(FP), R9
	MOVQ f+120(FP), R10
	MOVQ bias_base+128(FP), R13
	MOVQ epi+160(FP), AX
	VBROADCASTSD scale+152(FP), Y11
	VXORPD Y9, Y9, Y9
	VBROADCASTSD reluNaN<>(SB), Y10

agg_strip:
	MOVQ cols_base+72(FP), R8
	MOVQ cols_len+80(FP), CX
	MOVQ eids_base+96(FP), R12
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	TESTQ CX, CX
	JZ agg_epilogue
	TESTQ R9, R9
	JNZ agg_wloop

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
	JMP agg_epilogue

agg_wloop:
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
	JNZ agg_wloop

agg_epilogue:
	TESTQ $1, AX
	JZ agg_bias
	VMULPD Y11, Y0, Y0
	VMULPD Y11, Y1, Y1
	VMULPD Y11, Y2, Y2
	VMULPD Y11, Y3, Y3

agg_bias:
	TESTQ $2, AX
	JZ agg_relu
	VADDPD 0(R13), Y0, Y0
	VADDPD 32(R13), Y1, Y1
	VADDPD 64(R13), Y2, Y2
	VADDPD 96(R13), Y3, Y3

agg_relu:
	TESTQ $4, AX
	JZ agg_store
	RELU(Y0)
	RELU(Y1)
	RELU(Y2)
	RELU(Y3)

agg_store:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, SI
	ADDQ $128, R13
	DECQ R11
	JNZ agg_strip
	VZEROUPPER

agg_done:
	RET

// func nonzeroMask(a []float64) uint64
//
// Bit q is set when a[q] is not ±0, for q < len(a)&^3 (NaN compares unequal,
// so it is set). It walks the quads from the last, shifting the mask up four
// bits before each quad's VMOVMSKPD bits go in at the bottom.
TEXT ·nonzeroMask(SB), NOSPLIT, $0-32
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	SHRQ $2, CX
	XORQ AX, AX
	TESTQ CX, CX
	JZ nz_done
	MOVQ CX, DX
	SHLQ $5, DX
	LEAQ -32(SI)(DX*1), SI
	VXORPD Y9, Y9, Y9

nz_loop:
	VCMPPD $4, (SI), Y9, Y0
	VMOVMSKPD Y0, BX
	SHLQ $4, AX
	ORQ BX, AX
	SUBQ $32, SI
	DECQ CX
	JNZ nz_loop
	VZEROUPPER

nz_done:
	MOVQ AX, ret+24(FP)
	RET
