//go:build amd64

#include "textflag.h"

// func cpuHasAVX() bool
//
// AVX needs both the CPU feature flag (CPUID.1:ECX bit 28) and OS support
// for saving ymm state (OSXSAVE, CPUID.1:ECX bit 27, plus XCR0 bits 1-2).
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	CPUID
	MOVL CX, BX
	ANDL $(1<<27 | 1<<28), BX
	CMPL BX, $(1<<27 | 1<<28)
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// func cpuHasAVX512() bool
//
// AVX-512F needs the CPU feature flag (CPUID.(7,0):EBX bit 16, leaf 7 being
// in range) and OS support for saving zmm state (OSXSAVE, then XCR0 bits 1-2
// for xmm/ymm and 5-7 for the opmask registers and all 32 zmm uppers).
TEXT ·cpuHasAVX512(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no512
	MOVL $1, AX
	CPUID
	ANDL $(1<<27), CX
	JZ   no512
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<16), BX
	JZ   no512
	XORL CX, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  no512
	MOVB $1, ret+0(FP)
	RET
no512:
	MOVB $0, ret+0(FP)
	RET

// func gemmRowChunkAVX(dst, arow, b *float64, kn, stride, groups int)
//
// dst[j] += arow[t]*b[t*stride+j] for t in [0,kn), j in [0,4*groups), with
// the dst chunk held in ymm registers across the whole k extent. Terms
// accumulate one at a time in increasing-t order per element, with
// separate VMULPD / VADDPD (never FMA), so every element's result is
// bit-identical to the portable Go kernel's. A zero arow[t] skips its
// pass; NaN compares unordered (parity flag set) and is NOT skipped,
// matching Go's av != 0.
TEXT ·gemmRowChunkAVX(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ arow+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ kn+24(FP), CX
	MOVQ stride+32(FP), DX
	MOVQ groups+40(FP), AX
	SHLQ $3, DX              // b row stride in bytes
	VXORPD X1, X1, X1        // +0.0 for the skip compare
	CMPQ AX, $8
	JEQ  w32
	CMPQ AX, $6
	JEQ  w24
	CMPQ AX, $4
	JEQ  w16
	CMPQ AX, $3
	JEQ  w12
	CMPQ AX, $1
	JEQ  w4

	// 8 columns: accumulators Y4-Y5.
	VMOVUPD (DI), Y4
	VMOVUPD 32(DI), Y5
w8loop:
	TESTQ CX, CX
	JE    w8done
	VUCOMISD (SI), X1
	JP    w8nz
	JE    w8next
w8nz:
	VBROADCASTSD (SI), Y0
	VMULPD (BX), Y0, Y2
	VADDPD Y2, Y4, Y4
	VMULPD 32(BX), Y0, Y2
	VADDPD Y2, Y5, Y5
w8next:
	ADDQ  $8, SI
	ADDQ  DX, BX
	DECQ  CX
	JMP   w8loop
w8done:
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	VZEROUPPER
	RET

	// 4 columns: accumulator Y4.
w4:
	VMOVUPD (DI), Y4
w4loop:
	TESTQ CX, CX
	JE    w4done
	VUCOMISD (SI), X1
	JP    w4nz
	JE    w4next
w4nz:
	VBROADCASTSD (SI), Y0
	VMULPD (BX), Y0, Y2
	VADDPD Y2, Y4, Y4
w4next:
	ADDQ  $8, SI
	ADDQ  DX, BX
	DECQ  CX
	JMP   w4loop
w4done:
	VMOVUPD Y4, (DI)
	VZEROUPPER
	RET

	// 12 columns: accumulators Y4-Y6.
w12:
	VMOVUPD (DI), Y4
	VMOVUPD 32(DI), Y5
	VMOVUPD 64(DI), Y6
w12loop:
	TESTQ CX, CX
	JE    w12done
	VUCOMISD (SI), X1
	JP    w12nz
	JE    w12next
w12nz:
	VBROADCASTSD (SI), Y0
	VMULPD (BX), Y0, Y2
	VADDPD Y2, Y4, Y4
	VMULPD 32(BX), Y0, Y2
	VADDPD Y2, Y5, Y5
	VMULPD 64(BX), Y0, Y3
	VADDPD Y3, Y6, Y6
w12next:
	ADDQ  $8, SI
	ADDQ  DX, BX
	DECQ  CX
	JMP   w12loop
w12done:
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	VMOVUPD Y6, 64(DI)
	VZEROUPPER
	RET

	// 24 columns: accumulators Y4-Y9.
w24:
	VMOVUPD (DI), Y4
	VMOVUPD 32(DI), Y5
	VMOVUPD 64(DI), Y6
	VMOVUPD 96(DI), Y7
	VMOVUPD 128(DI), Y8
	VMOVUPD 160(DI), Y9
w24loop:
	TESTQ CX, CX
	JE    w24done
	VUCOMISD (SI), X1
	JP    w24nz
	JE    w24next
w24nz:
	VBROADCASTSD (SI), Y0
	VMULPD (BX), Y0, Y2
	VADDPD Y2, Y4, Y4
	VMULPD 32(BX), Y0, Y2
	VADDPD Y2, Y5, Y5
	VMULPD 64(BX), Y0, Y3
	VADDPD Y3, Y6, Y6
	VMULPD 96(BX), Y0, Y3
	VADDPD Y3, Y7, Y7
	VMULPD 128(BX), Y0, Y2
	VADDPD Y2, Y8, Y8
	VMULPD 160(BX), Y0, Y2
	VADDPD Y2, Y9, Y9
w24next:
	ADDQ  $8, SI
	ADDQ  DX, BX
	DECQ  CX
	JMP   w24loop
w24done:
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	VMOVUPD Y6, 64(DI)
	VMOVUPD Y7, 96(DI)
	VMOVUPD Y8, 128(DI)
	VMOVUPD Y9, 160(DI)
	VZEROUPPER
	RET

	// 16 columns: accumulators Y4-Y7.
w16:
	VMOVUPD (DI), Y4
	VMOVUPD 32(DI), Y5
	VMOVUPD 64(DI), Y6
	VMOVUPD 96(DI), Y7
w16loop:
	TESTQ CX, CX
	JE    w16done
	VUCOMISD (SI), X1
	JP    w16nz
	JE    w16next
w16nz:
	VBROADCASTSD (SI), Y0
	VMULPD (BX), Y0, Y2
	VADDPD Y2, Y4, Y4
	VMULPD 32(BX), Y0, Y2
	VADDPD Y2, Y5, Y5
	VMULPD 64(BX), Y0, Y3
	VADDPD Y3, Y6, Y6
	VMULPD 96(BX), Y0, Y3
	VADDPD Y3, Y7, Y7
w16next:
	ADDQ  $8, SI
	ADDQ  DX, BX
	DECQ  CX
	JMP   w16loop
w16done:
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	VMOVUPD Y6, 64(DI)
	VMOVUPD Y7, 96(DI)
	VZEROUPPER
	RET

	// 32 columns: accumulators Y4-Y11.
w32:
	VMOVUPD (DI), Y4
	VMOVUPD 32(DI), Y5
	VMOVUPD 64(DI), Y6
	VMOVUPD 96(DI), Y7
	VMOVUPD 128(DI), Y8
	VMOVUPD 160(DI), Y9
	VMOVUPD 192(DI), Y10
	VMOVUPD 224(DI), Y11
w32loop:
	TESTQ CX, CX
	JE    w32done
	VUCOMISD (SI), X1
	JP    w32nz
	JE    w32next
w32nz:
	VBROADCASTSD (SI), Y0
	VMULPD (BX), Y0, Y2
	VADDPD Y2, Y4, Y4
	VMULPD 32(BX), Y0, Y2
	VADDPD Y2, Y5, Y5
	VMULPD 64(BX), Y0, Y3
	VADDPD Y3, Y6, Y6
	VMULPD 96(BX), Y0, Y3
	VADDPD Y3, Y7, Y7
	VMULPD 128(BX), Y0, Y2
	VADDPD Y2, Y8, Y8
	VMULPD 160(BX), Y0, Y2
	VADDPD Y2, Y9, Y9
	VMULPD 192(BX), Y0, Y3
	VADDPD Y3, Y10, Y10
	VMULPD 224(BX), Y0, Y3
	VADDPD Y3, Y11, Y11
w32next:
	ADDQ  $8, SI
	ADDQ  DX, BX
	DECQ  CX
	JMP   w32loop
w32done:
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	VMOVUPD Y6, 64(DI)
	VMOVUPD Y7, 96(DI)
	VMOVUPD Y8, 128(DI)
	VMOVUPD Y9, 160(DI)
	VMOVUPD Y10, 192(DI)
	VMOVUPD Y11, 224(DI)
	VZEROUPPER
	RET

// The conv tiles' epilogue, shared by both widths through the register
// arguments: R11 addresses one 4-channel block's epilogue values — bias,
// mean, invStd, gamma, beta, four of each — and a/b are channel c's
// accumulators for the two pixel groups, t a scratch register.
//
// BIAS adds channel c's bias: sum + bias, the sum as first source.
#define BIAS(c, a, b, t) \
	VBROADCASTSD (8*c)(R11), t; \
	VADDPD t, a, a; \
	VADDPD t, b, b

// NORM is batch norm as affineAVX computes it: subtract the mean, multiply
// by invStd, gamma times that, add beta — four separately rounded steps with
// the Go expression's left operand as first source.
#define NORM(c, a, b, t) \
	VBROADCASTSD (32+8*c)(R11), t; \
	VSUBPD t, a, a; \
	VSUBPD t, b, b; \
	VBROADCASTSD (64+8*c)(R11), t; \
	VMULPD t, a, a; \
	VMULPD t, b, b; \
	VBROADCASTSD (96+8*c)(R11), t; \
	VMULPD a, t, a; \
	VMULPD b, t, b; \
	VBROADCASTSD (128+8*c)(R11), t; \
	VADDPD t, a, a; \
	VADDPD t, b, b

// RELU is reluAVX's VMAXPD with z (+0) as second source: NaN and −0 come
// out as +0.
#define RELU(a, b, z) \
	VMAXPD z, a, a; \
	VMAXPD z, b, b

// func convTile4x8AVX(out0, out1 *float64, chanStride int, in0, in1, w *float64, offs *int, taps int, epi *float64, mode, blocks int)
//
// The direct-convolution register tile (see conv.go): Y0-Y3 accumulate
// channels 0-3 of the four pixels at in0, Y4-Y7 those at in1. Each tap costs
// two unaligned image loads, four weight broadcasts and eight VMULPD+VADDPD
// pairs — separate multiply and add, never FMA, taps in increasing order
// from +0 — so every element sees the operation sequence of the portable
// tile. Then the epilogue: the bias, batch norm if mode has epiNorm (1),
// ReLU if it has epiReLU (2). It does this for blocks 4-channel blocks in
// turn, each one's weights following the last's, its 20 epilogue values
// 160 bytes on and its four output planes four planes on. taps and blocks
// must be at least 1.
TEXT ·convTile4x8AVX(SB), NOSPLIT, $0-88
	MOVQ out0+0(FP), DI
	MOVQ out1+8(FP), R8
	MOVQ chanStride+16(FP), R9
	MOVQ in0+24(FP), SI
	MOVQ in1+32(FP), DX
	MOVQ w+40(FP), BX
	MOVQ epi+64(FP), R11
	MOVQ mode+72(FP), R12
	MOVQ blocks+80(FP), R13
	SHLQ $3, R9              // channel plane stride in bytes
ctblock:
	MOVQ offs+48(FP), R10
	MOVQ taps+56(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
ctloop:
	MOVQ (R10), AX
	VMOVUPD (SI)(AX*8), Y8
	VMOVUPD (DX)(AX*8), Y9
	VBROADCASTSD (BX), Y10
	VMULPD Y10, Y8, Y11
	VADDPD Y11, Y0, Y0
	VMULPD Y10, Y9, Y12
	VADDPD Y12, Y4, Y4
	VBROADCASTSD 8(BX), Y13
	VMULPD Y13, Y8, Y14
	VADDPD Y14, Y1, Y1
	VMULPD Y13, Y9, Y15
	VADDPD Y15, Y5, Y5
	VBROADCASTSD 16(BX), Y10
	VMULPD Y10, Y8, Y11
	VADDPD Y11, Y2, Y2
	VMULPD Y10, Y9, Y12
	VADDPD Y12, Y6, Y6
	VBROADCASTSD 24(BX), Y13
	VMULPD Y13, Y8, Y14
	VADDPD Y14, Y3, Y3
	VMULPD Y13, Y9, Y15
	VADDPD Y15, Y7, Y7
	ADDQ $8, R10
	ADDQ $32, BX
	DECQ CX
	JNZ  ctloop
	BIAS(0, Y0, Y4, Y10)
	BIAS(1, Y1, Y5, Y10)
	BIAS(2, Y2, Y6, Y10)
	BIAS(3, Y3, Y7, Y10)
	TESTQ $1, R12
	JZ    ctrelu
	NORM(0, Y0, Y4, Y10)
	NORM(1, Y1, Y5, Y10)
	NORM(2, Y2, Y6, Y10)
	NORM(3, Y3, Y7, Y10)
ctrelu:
	TESTQ $2, R12
	JZ    ctstore
	VXORPD Y10, Y10, Y10
	RELU(Y0, Y4, Y10)
	RELU(Y1, Y5, Y10)
	RELU(Y2, Y6, Y10)
	RELU(Y3, Y7, Y10)
ctstore:
	VMOVUPD Y0, (DI)
	VMOVUPD Y4, (R8)
	VMOVUPD Y1, (DI)(R9*1)
	VMOVUPD Y5, (R8)(R9*1)
	LEAQ (DI)(R9*2), DI
	LEAQ (R8)(R9*2), R8
	VMOVUPD Y2, (DI)
	VMOVUPD Y6, (R8)
	VMOVUPD Y3, (DI)(R9*1)
	VMOVUPD Y7, (R8)(R9*1)
	LEAQ (DI)(R9*2), DI      // the next block's first plane
	LEAQ (R8)(R9*2), R8
	ADDQ $160, R11           // and its epilogue values; BX is at its weights
	DECQ R13
	JNZ  ctblock
	VZEROUPPER
	RET

// func convTile4x16AVX512(out0, out1 *float64, chanStride int, in0, in1, w *float64, offs *int, taps int, epi *float64, mode, blocks int)
//
// convTile4x8AVX at zmm width: Z0-Z3 accumulate channels 0-3 of the eight
// pixels at in0, Z4-Z7 those at in1. Each tap costs two unaligned 64-byte
// image loads, four weight broadcasts and eight VMULPD+VADDPD pairs, and the
// epilogue is the same macros on zmm registers — the ymm tile's per-element
// operation sequence, so its output bits are the same; blocks as there.
// taps and blocks must be at least 1.
TEXT ·convTile4x16AVX512(SB), NOSPLIT, $0-88
	MOVQ out0+0(FP), DI
	MOVQ out1+8(FP), R8
	MOVQ chanStride+16(FP), R9
	MOVQ in0+24(FP), SI
	MOVQ in1+32(FP), DX
	MOVQ w+40(FP), BX
	MOVQ epi+64(FP), R11
	MOVQ mode+72(FP), R12
	MOVQ blocks+80(FP), R13
	SHLQ $3, R9              // channel plane stride in bytes
zblock:
	MOVQ offs+48(FP), R10
	MOVQ taps+56(FP), CX
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
zloop:
	MOVQ (R10), AX
	VMOVUPD (SI)(AX*8), Z8
	VMOVUPD (DX)(AX*8), Z9
	VBROADCASTSD (BX), Z10
	VMULPD Z10, Z8, Z11
	VADDPD Z11, Z0, Z0
	VMULPD Z10, Z9, Z12
	VADDPD Z12, Z4, Z4
	VBROADCASTSD 8(BX), Z13
	VMULPD Z13, Z8, Z14
	VADDPD Z14, Z1, Z1
	VMULPD Z13, Z9, Z15
	VADDPD Z15, Z5, Z5
	VBROADCASTSD 16(BX), Z10
	VMULPD Z10, Z8, Z11
	VADDPD Z11, Z2, Z2
	VMULPD Z10, Z9, Z12
	VADDPD Z12, Z6, Z6
	VBROADCASTSD 24(BX), Z13
	VMULPD Z13, Z8, Z14
	VADDPD Z14, Z3, Z3
	VMULPD Z13, Z9, Z15
	VADDPD Z15, Z7, Z7
	ADDQ $8, R10
	ADDQ $32, BX
	DECQ CX
	JNZ  zloop
	BIAS(0, Z0, Z4, Z10)
	BIAS(1, Z1, Z5, Z10)
	BIAS(2, Z2, Z6, Z10)
	BIAS(3, Z3, Z7, Z10)
	TESTQ $1, R12
	JZ    zrelu
	NORM(0, Z0, Z4, Z10)
	NORM(1, Z1, Z5, Z10)
	NORM(2, Z2, Z6, Z10)
	NORM(3, Z3, Z7, Z10)
zrelu:
	TESTQ $2, R12
	JZ    zstore
	VPXORQ Z10, Z10, Z10
	RELU(Z0, Z4, Z10)
	RELU(Z1, Z5, Z10)
	RELU(Z2, Z6, Z10)
	RELU(Z3, Z7, Z10)
zstore:
	VMOVUPD Z0, (DI)
	VMOVUPD Z4, (R8)
	VMOVUPD Z1, (DI)(R9*1)
	VMOVUPD Z5, (R8)(R9*1)
	LEAQ (DI)(R9*2), DI
	LEAQ (R8)(R9*2), R8
	VMOVUPD Z2, (DI)
	VMOVUPD Z6, (R8)
	VMOVUPD Z3, (DI)(R9*1)
	VMOVUPD Z7, (R8)(R9*1)
	LEAQ (DI)(R9*2), DI      // the next block's first plane
	LEAQ (R8)(R9*2), R8
	ADDQ $160, R11           // and its epilogue values; BX is at its weights
	DECQ R13
	JNZ  zblock
	VZEROUPPER
	RET

// func reluAVX(dst, src *float64, n int)
//
// dst[i] = src[i] > 0 ? src[i] : +0 for i in [0, n), n a multiple of 4.
// VMAXPD returns its second source when the operands are unordered or both
// zero; with +0 in that slot, NaN and −0 come out as +0, exactly as the Go
// comparison decides them.
TEXT ·reluAVX(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VXORPD Y0, Y0, Y0
	SHRQ $2, CX
	JZ   reludone
reluloop:
	VMOVUPD (SI), Y1
	VMAXPD Y0, Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  reluloop
reludone:
	VZEROUPPER
	RET

// func affineAVX(dst, src *float64, n int, mean, invStd, gamma, beta float64)
//
// dst[i] = gamma*((src[i]-mean)*invStd) + beta for i in [0, n), n a multiple of 4:
// subtract, multiply, multiply, add, each a separate rounded instruction with
// the Go expression's left operand as its first source, so every element
// gets the scalar loop's bits.
TEXT ·affineAVX(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD mean+24(FP), Y1
	VBROADCASTSD invStd+32(FP), Y2
	VBROADCASTSD gamma+40(FP), Y3
	VBROADCASTSD beta+48(FP), Y4
	SHRQ $2, CX
	JZ   affdone
affloop:
	VMOVUPD (SI), Y0
	VSUBPD Y1, Y0, Y0        // x − mean
	VMULPD Y2, Y0, Y0        // (x − mean)·invStd
	VMULPD Y0, Y3, Y0        // gamma·(…)
	VADDPD Y4, Y0, Y0        // … + beta
	VMOVUPD Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  affloop
affdone:
	VZEROUPPER
	RET

DATA negInf<>+0(SB)/8, $0xfff0000000000000
GLOBL negInf<>(SB), RODATA|NOPTR, $8

// func maxPool2x2AVX(dst, src *float64, rows, outW int)
//
// The 2×2, stride-2 max pool of rows output rows of outW pixels (a multiple
// of 4), output row r reading input rows 2r and 2r+1 of 2·outW pixels. Per
// four outputs: two 8-pixel loads per input row, de-interleaved into even and
// odd columns with VPERM2F128 and VUNPCKLPD/VUNPCKHPD, then folded from −Inf
// in window order (0,0), (0,1), (1,0), (1,1) as best = VMAXPD(v, best) in
// Intel order. VMAXPD returns its second source on NaN and on a ±0 tie, so a
// tap replaces best exactly when v > best, as in the scalar loop.
TEXT ·maxPool2x2AVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), CX
	MOVQ outW+24(FP), DX
	TESTQ CX, CX
	JZ   pooldone
	MOVQ DX, R8
	SHLQ $4, R8              // one input row in bytes: 2·outW·8
	SHRQ $2, DX              // 4-pixel groups per output row
	JZ   pooldone
	VBROADCASTSD negInf<>(SB), Y15
poolrow:
	MOVQ SI, R9              // input row 2r
	LEAQ (SI)(R8*1), R10     // input row 2r+1
	MOVQ DX, BX
poolgroup:
	VMOVUPD (R9), Y0         // x0 x1 x2 x3
	VMOVUPD 32(R9), Y1       // x4 x5 x6 x7
	VPERM2F128 $0x20, Y1, Y0, Y2 // x0 x1 x4 x5
	VPERM2F128 $0x31, Y1, Y0, Y3 // x2 x3 x6 x7
	VUNPCKLPD Y3, Y2, Y4     // even columns x0 x2 x4 x6
	VUNPCKHPD Y3, Y2, Y5     // odd columns x1 x3 x5 x7
	VMOVUPD (R10), Y8
	VMOVUPD 32(R10), Y9
	VPERM2F128 $0x20, Y9, Y8, Y10
	VPERM2F128 $0x31, Y9, Y8, Y11
	VUNPCKLPD Y11, Y10, Y12
	VUNPCKHPD Y11, Y10, Y13
	VMAXPD Y15, Y4, Y6       // tap (0,0) against −Inf
	VMAXPD Y6, Y5, Y6        // (0,1)
	VMAXPD Y6, Y12, Y6       // (1,0)
	VMAXPD Y6, Y13, Y6       // (1,1)
	VMOVUPD Y6, (DI)
	ADDQ $64, R9
	ADDQ $64, R10
	ADDQ $32, DI
	DECQ BX
	JNZ  poolgroup
	LEAQ (SI)(R8*2), SI      // next row pair
	DECQ CX
	JNZ  poolrow
pooldone:
	VZEROUPPER
	RET

DATA half<>+0(SB)/8, $0x3fe0000000000000
GLOBL half<>(SB), RODATA|NOPTR, $8

// func mixHalvesAVX(dst, a, b, r *float64, n int)
//
// dst[i] = (a[i]*0.5 + b[i]*0.5) + r[i] for i in [0, n), n a multiple of 4:
// two multiplies and two adds, separately rounded, in the Go expression's
// order and operand order.
TEXT ·mixHalvesAVX(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ r+24(FP), R8
	MOVQ n+32(FP), CX
	VBROADCASTSD half<>(SB), Y3
	SHRQ $2, CX
	JZ   mixdone
mixloop:
	VMOVUPD (SI), Y0
	VMULPD Y3, Y0, Y0        // a·0.5
	VMOVUPD (DX), Y1
	VMULPD Y3, Y1, Y1        // b·0.5
	VADDPD Y1, Y0, Y0        // a·0.5 + b·0.5
	VMOVUPD (R8), Y2
	VADDPD Y2, Y0, Y0        // … + r
	VMOVUPD Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, R8
	ADDQ $32, DI
	DECQ CX
	JNZ  mixloop
mixdone:
	VZEROUPPER
	RET

// func peakMulAddAVX(iters, lanes int)
//
// The measured no-FMA float64 ceiling of one core at one register width:
// per iteration eight independent VMULPD and eight VADDPD chains on
// registers only (16·lanes flop), the multiply/add mix of the convolution
// tile with its loads taken away. lanes is 4 (ymm) or 8 (zmm).
TEXT ·peakMulAddAVX(SB), NOSPLIT, $0-16
	MOVQ iters+0(FP), CX
	MOVQ lanes+8(FP), DX
	TESTQ CX, CX
	JZ   peakdone
	CMPQ DX, $8
	JEQ  peakzmm
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
peakloop:
	VMULPD Y8, Y8, Y9
	VADDPD Y9, Y0, Y0
	VMULPD Y8, Y8, Y10
	VADDPD Y10, Y1, Y1
	VMULPD Y8, Y8, Y11
	VADDPD Y11, Y2, Y2
	VMULPD Y8, Y8, Y12
	VADDPD Y12, Y3, Y3
	VMULPD Y8, Y8, Y13
	VADDPD Y13, Y4, Y4
	VMULPD Y8, Y8, Y14
	VADDPD Y14, Y5, Y5
	VMULPD Y8, Y8, Y15
	VADDPD Y15, Y6, Y6
	VMULPD Y8, Y8, Y9
	VADDPD Y9, Y7, Y7
	DECQ CX
	JNZ  peakloop
	JMP  peakdone
peakzmm:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
peakzloop:
	VMULPD Z8, Z8, Z9
	VADDPD Z9, Z0, Z0
	VMULPD Z8, Z8, Z10
	VADDPD Z10, Z1, Z1
	VMULPD Z8, Z8, Z11
	VADDPD Z11, Z2, Z2
	VMULPD Z8, Z8, Z12
	VADDPD Z12, Z3, Z3
	VMULPD Z8, Z8, Z13
	VADDPD Z13, Z4, Z4
	VMULPD Z8, Z8, Z14
	VADDPD Z14, Z5, Z5
	VMULPD Z8, Z8, Z15
	VADDPD Z15, Z6, Z6
	VMULPD Z8, Z8, Z9
	VADDPD Z9, Z7, Z7
	DECQ CX
	JNZ  peakzloop
peakdone:
	VZEROUPPER
	RET
