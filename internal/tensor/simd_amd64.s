//go:build amd64

#include "textflag.h"

// func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
// Caller must have verified CPUID.1:ECX.OSXSAVE first.
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func axpyAVX(alpha float64, x, y *float64, n int)
// y[j] += alpha*x[j] for j in [0, n); n must be a multiple of 4.
TEXT ·axpyAVX(SB), NOSPLIT, $0-32
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ n+24(FP), CX
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-16, DX
	CMPQ AX, DX
	JGE  axpy_tail

axpy_loop16:
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y2
	VMOVUPD 64(SI)(AX*8), Y3
	VMOVUPD 96(SI)(AX*8), Y4
	VMOVUPD (DI)(AX*8), Y5
	VMOVUPD 32(DI)(AX*8), Y6
	VMOVUPD 64(DI)(AX*8), Y7
	VMOVUPD 96(DI)(AX*8), Y8
	VFMADD231PD Y1, Y0, Y5
	VFMADD231PD Y2, Y0, Y6
	VFMADD231PD Y3, Y0, Y7
	VFMADD231PD Y4, Y0, Y8
	VMOVUPD Y5, (DI)(AX*8)
	VMOVUPD Y6, 32(DI)(AX*8)
	VMOVUPD Y7, 64(DI)(AX*8)
	VMOVUPD Y8, 96(DI)(AX*8)
	ADDQ $16, AX
	CMPQ AX, DX
	JLT  axpy_loop16

axpy_tail:
	CMPQ AX, CX
	JGE  axpy_done
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD (DI)(AX*8), Y5
	VFMADD231PD Y1, Y0, Y5
	VMOVUPD Y5, (DI)(AX*8)
	ADDQ $4, AX
	JMP  axpy_tail

axpy_done:
	VZEROUPPER
	RET

// func axpy4AVX(av0, av1, av2, av3 float64, b, c0, c1, c2, c3 *float64, n int)
// cR[j] += avR*b[j] for four rows; n must be a multiple of 4.
TEXT ·axpy4AVX(SB), NOSPLIT, $0-80
	VBROADCASTSD av0+0(FP), Y0
	VBROADCASTSD av1+8(FP), Y1
	VBROADCASTSD av2+16(FP), Y2
	VBROADCASTSD av3+24(FP), Y3
	MOVQ b+32(FP), SI
	MOVQ c0+40(FP), DI
	MOVQ c1+48(FP), R8
	MOVQ c2+56(FP), R9
	MOVQ c3+64(FP), R10
	MOVQ n+72(FP), CX
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	CMPQ AX, DX
	JGE  axpy4_tail

axpy4_loop8:
	VMOVUPD (SI)(AX*8), Y4
	VMOVUPD 32(SI)(AX*8), Y5
	VMOVUPD (DI)(AX*8), Y6
	VMOVUPD 32(DI)(AX*8), Y7
	VFMADD231PD Y4, Y0, Y6
	VFMADD231PD Y5, Y0, Y7
	VMOVUPD Y6, (DI)(AX*8)
	VMOVUPD Y7, 32(DI)(AX*8)
	VMOVUPD (R8)(AX*8), Y8
	VMOVUPD 32(R8)(AX*8), Y9
	VFMADD231PD Y4, Y1, Y8
	VFMADD231PD Y5, Y1, Y9
	VMOVUPD Y8, (R8)(AX*8)
	VMOVUPD Y9, 32(R8)(AX*8)
	VMOVUPD (R9)(AX*8), Y10
	VMOVUPD 32(R9)(AX*8), Y11
	VFMADD231PD Y4, Y2, Y10
	VFMADD231PD Y5, Y2, Y11
	VMOVUPD Y10, (R9)(AX*8)
	VMOVUPD Y11, 32(R9)(AX*8)
	VMOVUPD (R10)(AX*8), Y12
	VMOVUPD 32(R10)(AX*8), Y13
	VFMADD231PD Y4, Y3, Y12
	VFMADD231PD Y5, Y3, Y13
	VMOVUPD Y12, (R10)(AX*8)
	VMOVUPD Y13, 32(R10)(AX*8)
	ADDQ $8, AX
	CMPQ AX, DX
	JLT  axpy4_loop8

axpy4_tail:
	CMPQ AX, CX
	JGE  axpy4_done
	VMOVUPD (SI)(AX*8), Y4
	VMOVUPD (DI)(AX*8), Y6
	VFMADD231PD Y4, Y0, Y6
	VMOVUPD Y6, (DI)(AX*8)
	VMOVUPD (R8)(AX*8), Y8
	VFMADD231PD Y4, Y1, Y8
	VMOVUPD Y8, (R8)(AX*8)
	VMOVUPD (R9)(AX*8), Y10
	VFMADD231PD Y4, Y2, Y10
	VMOVUPD Y10, (R9)(AX*8)
	VMOVUPD (R10)(AX*8), Y12
	VFMADD231PD Y4, Y3, Y12
	VMOVUPD Y12, (R10)(AX*8)
	ADDQ $4, AX
	JMP  axpy4_tail

axpy4_done:
	VZEROUPPER
	RET

// func dot2x2AVX(a0, a1, b0, b1 *float64, n int) (s00, s01, s10, s11 float64)
// Four simultaneous dot products; n must be a multiple of 4. Each result
// reduces four lanes at the end, so the summation order differs from the
// scalar kernel but is fixed for a given n.
TEXT ·dot2x2AVX(SB), NOSPLIT, $0-72
	MOVQ a0+0(FP), SI
	MOVQ a1+8(FP), DI
	MOVQ b0+16(FP), R8
	MOVQ b1+24(FP), R9
	MOVQ n+32(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ AX, AX
	CMPQ AX, CX
	JGE  dot2x2_reduce

dot2x2_loop4:
	VMOVUPD (SI)(AX*8), Y4
	VMOVUPD (DI)(AX*8), Y5
	VMOVUPD (R8)(AX*8), Y6
	VMOVUPD (R9)(AX*8), Y7
	VFMADD231PD Y6, Y4, Y0
	VFMADD231PD Y7, Y4, Y1
	VFMADD231PD Y6, Y5, Y2
	VFMADD231PD Y7, Y5, Y3
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  dot2x2_loop4

dot2x2_reduce:
	VEXTRACTF128 $1, Y0, X4
	VADDPD X4, X0, X0
	VHADDPD X0, X0, X0
	VEXTRACTF128 $1, Y1, X5
	VADDPD X5, X1, X1
	VHADDPD X1, X1, X1
	VEXTRACTF128 $1, Y2, X6
	VADDPD X6, X2, X2
	VHADDPD X2, X2, X2
	VEXTRACTF128 $1, Y3, X7
	VADDPD X7, X3, X3
	VHADDPD X3, X3, X3
	MOVSD X0, s00+40(FP)
	MOVSD X1, s01+48(FP)
	MOVSD X2, s10+56(FP)
	MOVSD X3, s11+64(FP)
	VZEROUPPER
	RET

// func dotAVX(x, y *float64, n int) float64
// Dot product with four accumulator chains; n must be a multiple of 4.
TEXT ·dotAVX(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DI
	MOVQ n+16(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-16, DX
	CMPQ AX, DX
	JGE  dot_tail

dot_loop16:
	VMOVUPD (SI)(AX*8), Y4
	VMOVUPD 32(SI)(AX*8), Y5
	VMOVUPD 64(SI)(AX*8), Y6
	VMOVUPD 96(SI)(AX*8), Y7
	VMOVUPD (DI)(AX*8), Y8
	VMOVUPD 32(DI)(AX*8), Y9
	VMOVUPD 64(DI)(AX*8), Y10
	VMOVUPD 96(DI)(AX*8), Y11
	VFMADD231PD Y8, Y4, Y0
	VFMADD231PD Y9, Y5, Y1
	VFMADD231PD Y10, Y6, Y2
	VFMADD231PD Y11, Y7, Y3
	ADDQ $16, AX
	CMPQ AX, DX
	JLT  dot_loop16

dot_tail:
	CMPQ AX, CX
	JGE  dot_reduce
	VMOVUPD (SI)(AX*8), Y4
	VMOVUPD (DI)(AX*8), Y8
	VFMADD231PD Y8, Y4, Y0
	ADDQ $4, AX
	JMP  dot_tail

dot_reduce:
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X4
	VADDPD X4, X0, X0
	VHADDPD X0, X0, X0
	MOVSD X0, ret+24(FP)
	VZEROUPPER
	RET

// func axpy4x2AVX(av0, av1, av2, av3, aw0, aw1, aw2, aw3 float64, b0, b1, c0, c1, c2, c3 *float64, n int)
// cR[j] = fma(awR, b1[j], fma(avR, b0[j], cR[j])) for four rows; n must be
// a multiple of 4. Each C element is loaded and stored once per two
// multiply-adds, in the order two axpy4AVX passes would apply them.
TEXT ·axpy4x2AVX(SB), NOSPLIT, $0-120
	VBROADCASTSD av0+0(FP), Y0
	VBROADCASTSD av1+8(FP), Y1
	VBROADCASTSD av2+16(FP), Y2
	VBROADCASTSD av3+24(FP), Y3
	VBROADCASTSD aw0+32(FP), Y4
	VBROADCASTSD aw1+40(FP), Y5
	VBROADCASTSD aw2+48(FP), Y6
	VBROADCASTSD aw3+56(FP), Y7
	MOVQ b0+64(FP), SI
	MOVQ b1+72(FP), R11
	MOVQ c0+80(FP), DI
	MOVQ c1+88(FP), R8
	MOVQ c2+96(FP), R9
	MOVQ c3+104(FP), R10
	MOVQ n+112(FP), CX
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	CMPQ AX, DX
	JGE  axpy4x2_tail

axpy4x2_loop8:
	VMOVUPD (SI)(AX*8), Y8
	VMOVUPD 32(SI)(AX*8), Y9
	VMOVUPD (R11)(AX*8), Y10
	VMOVUPD 32(R11)(AX*8), Y11
	VMOVUPD (DI)(AX*8), Y12
	VMOVUPD 32(DI)(AX*8), Y13
	VFMADD231PD Y8, Y0, Y12
	VFMADD231PD Y9, Y0, Y13
	VFMADD231PD Y10, Y4, Y12
	VFMADD231PD Y11, Y4, Y13
	VMOVUPD Y12, (DI)(AX*8)
	VMOVUPD Y13, 32(DI)(AX*8)
	VMOVUPD (R8)(AX*8), Y14
	VMOVUPD 32(R8)(AX*8), Y15
	VFMADD231PD Y8, Y1, Y14
	VFMADD231PD Y9, Y1, Y15
	VFMADD231PD Y10, Y5, Y14
	VFMADD231PD Y11, Y5, Y15
	VMOVUPD Y14, (R8)(AX*8)
	VMOVUPD Y15, 32(R8)(AX*8)
	VMOVUPD (R9)(AX*8), Y12
	VMOVUPD 32(R9)(AX*8), Y13
	VFMADD231PD Y8, Y2, Y12
	VFMADD231PD Y9, Y2, Y13
	VFMADD231PD Y10, Y6, Y12
	VFMADD231PD Y11, Y6, Y13
	VMOVUPD Y12, (R9)(AX*8)
	VMOVUPD Y13, 32(R9)(AX*8)
	VMOVUPD (R10)(AX*8), Y14
	VMOVUPD 32(R10)(AX*8), Y15
	VFMADD231PD Y8, Y3, Y14
	VFMADD231PD Y9, Y3, Y15
	VFMADD231PD Y10, Y7, Y14
	VFMADD231PD Y11, Y7, Y15
	VMOVUPD Y14, (R10)(AX*8)
	VMOVUPD Y15, 32(R10)(AX*8)
	ADDQ $8, AX
	CMPQ AX, DX
	JLT  axpy4x2_loop8

axpy4x2_tail:
	CMPQ AX, CX
	JGE  axpy4x2_done
	VMOVUPD (SI)(AX*8), Y8
	VMOVUPD (R11)(AX*8), Y10
	VMOVUPD (DI)(AX*8), Y12
	VFMADD231PD Y8, Y0, Y12
	VFMADD231PD Y10, Y4, Y12
	VMOVUPD Y12, (DI)(AX*8)
	VMOVUPD (R8)(AX*8), Y14
	VFMADD231PD Y8, Y1, Y14
	VFMADD231PD Y10, Y5, Y14
	VMOVUPD Y14, (R8)(AX*8)
	VMOVUPD (R9)(AX*8), Y12
	VFMADD231PD Y8, Y2, Y12
	VFMADD231PD Y10, Y6, Y12
	VMOVUPD Y12, (R9)(AX*8)
	VMOVUPD (R10)(AX*8), Y14
	VFMADD231PD Y8, Y3, Y14
	VFMADD231PD Y10, Y7, Y14
	VMOVUPD Y14, (R10)(AX*8)
	ADDQ $4, AX
	JMP  axpy4x2_tail

axpy4x2_done:
	VZEROUPPER
	RET

// func dot3x1AVX(a0, a1, a2, b *float64, n int) (s0, s1, s2 float64)
// Three dot products against one b; n must be a multiple of 4. Each uses
// dotAVX's four accumulator chains, its 4-wide tail into chain 0 and its
// reduction, so each result is dotAVX's; b is loaded once for the three
// (12 accumulators + 4 b registers are the 16 ymm).
TEXT ·dot3x1AVX(SB), NOSPLIT, $0-64
	MOVQ a0+0(FP), SI
	MOVQ a1+8(FP), DI
	MOVQ a2+16(FP), R8
	MOVQ b+24(FP), R9
	MOVQ n+32(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-16, DX
	CMPQ AX, DX
	JGE  dot3x1_tail

dot3x1_loop16:
	VMOVUPD (R9)(AX*8), Y12
	VMOVUPD 32(R9)(AX*8), Y13
	VMOVUPD 64(R9)(AX*8), Y14
	VMOVUPD 96(R9)(AX*8), Y15
	VFMADD231PD (SI)(AX*8), Y12, Y0
	VFMADD231PD 32(SI)(AX*8), Y13, Y1
	VFMADD231PD 64(SI)(AX*8), Y14, Y2
	VFMADD231PD 96(SI)(AX*8), Y15, Y3
	VFMADD231PD (DI)(AX*8), Y12, Y4
	VFMADD231PD 32(DI)(AX*8), Y13, Y5
	VFMADD231PD 64(DI)(AX*8), Y14, Y6
	VFMADD231PD 96(DI)(AX*8), Y15, Y7
	VFMADD231PD (R8)(AX*8), Y12, Y8
	VFMADD231PD 32(R8)(AX*8), Y13, Y9
	VFMADD231PD 64(R8)(AX*8), Y14, Y10
	VFMADD231PD 96(R8)(AX*8), Y15, Y11
	ADDQ $16, AX
	CMPQ AX, DX
	JLT  dot3x1_loop16

dot3x1_tail:
	CMPQ AX, CX
	JGE  dot3x1_reduce
	VMOVUPD (R9)(AX*8), Y12
	VFMADD231PD (SI)(AX*8), Y12, Y0
	VFMADD231PD (DI)(AX*8), Y12, Y4
	VFMADD231PD (R8)(AX*8), Y12, Y8
	ADDQ $4, AX
	JMP  dot3x1_tail

dot3x1_reduce:
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X12
	VADDPD X12, X0, X0
	VHADDPD X0, X0, X0
	VADDPD Y5, Y4, Y4
	VADDPD Y7, Y6, Y6
	VADDPD Y6, Y4, Y4
	VEXTRACTF128 $1, Y4, X13
	VADDPD X13, X4, X4
	VHADDPD X4, X4, X4
	VADDPD Y9, Y8, Y8
	VADDPD Y11, Y10, Y10
	VADDPD Y10, Y8, Y8
	VEXTRACTF128 $1, Y8, X14
	VADDPD X14, X8, X8
	VHADDPD X8, X8, X8
	VMOVSD X0, s0+40(FP)
	VMOVSD X4, s1+48(FP)
	VMOVSD X8, s2+56(FP)
	VZEROUPPER
	RET

// func reluAVX(dst, x *float64, n int)
// dst[j] = x[j] > 0 ? x[j] : +0; n must be a multiple of 4. VMAXPD returns
// its second source unless the first is strictly greater, so with zero
// second every NaN, −0 and negative input gives +0.
TEXT ·reluAVX(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	VXORPD Y0, Y0, Y0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-16, DX
	CMPQ AX, DX
	JGE  relu_tail

relu_loop16:
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y2
	VMOVUPD 64(SI)(AX*8), Y3
	VMOVUPD 96(SI)(AX*8), Y4
	VMAXPD Y0, Y1, Y1
	VMAXPD Y0, Y2, Y2
	VMAXPD Y0, Y3, Y3
	VMAXPD Y0, Y4, Y4
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	VMOVUPD Y3, 64(DI)(AX*8)
	VMOVUPD Y4, 96(DI)(AX*8)
	ADDQ $16, AX
	CMPQ AX, DX
	JLT  relu_loop16

relu_tail:
	CMPQ AX, CX
	JGE  relu_done
	VMOVUPD (SI)(AX*8), Y1
	VMAXPD Y0, Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
	JMP  relu_tail

relu_done:
	VZEROUPPER
	RET

// func reluGradAVX(dx, out, dy *float64, n int)
// dx[j] = out[j] > 0 ? dy[j] : +0; n must be a multiple of 4. The ordered
// greater-than compare (GT_OQ, false on NaN) gives an all-ones or
// all-zeros lane that masks dy.
TEXT ·reluGradAVX(SB), NOSPLIT, $0-32
	MOVQ dx+0(FP), DI
	MOVQ out+8(FP), SI
	MOVQ dy+16(FP), R8
	MOVQ n+24(FP), CX
	VXORPD Y0, Y0, Y0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-16, DX
	CMPQ AX, DX
	JGE  relugrad_tail

relugrad_loop16:
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y2
	VMOVUPD 64(SI)(AX*8), Y3
	VMOVUPD 96(SI)(AX*8), Y4
	VCMPPD $0x1E, Y0, Y1, Y1
	VCMPPD $0x1E, Y0, Y2, Y2
	VCMPPD $0x1E, Y0, Y3, Y3
	VCMPPD $0x1E, Y0, Y4, Y4
	VANDPD (R8)(AX*8), Y1, Y1
	VANDPD 32(R8)(AX*8), Y2, Y2
	VANDPD 64(R8)(AX*8), Y3, Y3
	VANDPD 96(R8)(AX*8), Y4, Y4
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	VMOVUPD Y3, 64(DI)(AX*8)
	VMOVUPD Y4, 96(DI)(AX*8)
	ADDQ $16, AX
	CMPQ AX, DX
	JLT  relugrad_loop16

relugrad_tail:
	CMPQ AX, CX
	JGE  relugrad_done
	VMOVUPD (SI)(AX*8), Y1
	VCMPPD $0x1E, Y0, Y1, Y1
	VANDPD (R8)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
	JMP  relugrad_tail

relugrad_done:
	VZEROUPPER
	RET

// Lane l of the pooling kernel holds output {0, 2, 1, 3}[l] (the order
// VUNPCKLPD/VUNPCKHPD de-interleave two vectors into); its window's even
// column is this many elements into the input row.
DATA poolLaneCol<>+0(SB)/8, $0
DATA poolLaneCol<>+8(SB)/8, $4
DATA poolLaneCol<>+16(SB)/8, $2
DATA poolLaneCol<>+24(SB)/8, $6
GLOBL poolLaneCol<>(SB), RODATA|NOPTR, $32

DATA poolNegInf<>+0(SB)/8, $0xFFF0000000000000
GLOBL poolNegInf<>(SB), RODATA|NOPTR, $8

// func maxPool2x2RowAVX(out *float64, argmax *int, r0, r1 *float64, idx0, pitch, n int)
// Pools n 2×2 windows of the rows r0 and r1, four per iteration; n must be
// a multiple of 4 and argmax may be nil. The even and odd columns of each
// row are de-interleaved, then four compare-and-blend steps from
// (−Inf, −1) visit the window in the scalar loop's order — r0 even, r0
// odd, r1 even, r1 odd — each taking value and int64 index where the
// candidate is strictly greater (GT_OQ: never on NaN), so value, argmax
// and tie-breaking are the scalar loop's.
TEXT ·maxPool2x2RowAVX(SB), NOSPLIT, $0-56
	MOVQ out+0(FP), DI
	MOVQ argmax+8(FP), R8
	MOVQ r0+16(FP), SI
	MOVQ r1+24(FP), R9
	MOVQ n+48(FP), CX
	VBROADCASTSD poolNegInf<>(SB), Y0 // −Inf
	VPCMPEQQ Y1, Y1, Y1               // −1
	VPSRLQ $63, Y1, Y3                // 1
	VPSLLQ $3, Y3, Y5                 // 8: input columns per iteration
	VPBROADCASTQ pitch+40(FP), Y4
	VPBROADCASTQ idx0+32(FP), Y2
	VPADDQ poolLaneCol<>(SB), Y2, Y2  // flat index of each lane's r0 even column
	XORQ AX, AX
	CMPQ AX, CX
	JGE  pool_done

pool_loop4:
	LEAQ (AX)(AX*1), R10
	VMOVUPD (SI)(R10*8), Y6
	VMOVUPD 32(SI)(R10*8), Y7
	VUNPCKLPD Y7, Y6, Y8              // r0 even columns
	VUNPCKHPD Y7, Y6, Y9              // r0 odd columns
	VMOVUPD (R9)(R10*8), Y6
	VMOVUPD 32(R9)(R10*8), Y7
	VUNPCKLPD Y7, Y6, Y12             // r1 even columns
	VUNPCKHPD Y7, Y6, Y13             // r1 odd columns
	VCMPPD $0x1E, Y0, Y8, Y14
	VBLENDVPD Y14, Y8, Y0, Y15        // best
	VBLENDVPD Y14, Y2, Y1, Y6         // its index
	VPADDQ Y3, Y2, Y7
	VCMPPD $0x1E, Y15, Y9, Y14
	VBLENDVPD Y14, Y9, Y15, Y15
	VBLENDVPD Y14, Y7, Y6, Y6
	VPADDQ Y4, Y2, Y7
	VCMPPD $0x1E, Y15, Y12, Y14
	VBLENDVPD Y14, Y12, Y15, Y15
	VBLENDVPD Y14, Y7, Y6, Y6
	VPADDQ Y3, Y7, Y7
	VCMPPD $0x1E, Y15, Y13, Y14
	VBLENDVPD Y14, Y13, Y15, Y15
	VBLENDVPD Y14, Y7, Y6, Y6
	VPERMPD $0xD8, Y15, Y15           // lanes {0,2,1,3} back to output order
	VMOVUPD Y15, (DI)(AX*8)
	TESTQ R8, R8
	JZ   pool_next
	VPERMQ $0xD8, Y6, Y6
	VMOVDQU Y6, (R8)(AX*8)

pool_next:
	VPADDQ Y5, Y2, Y2
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  pool_loop4

pool_done:
	VZEROUPPER
	RET

// func axpyUnfusedAVX(alpha float64, x, y *float64, n int)
// y[j] += alpha*x[j] for j in [0, n), product and sum rounded separately
// (no FMA), so each lane gives the scalar loop's bits; n must be a
// multiple of 4.
TEXT ·axpyUnfusedAVX(SB), NOSPLIT, $0-32
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ n+24(FP), CX
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-16, DX
	CMPQ AX, DX
	JGE  axpyu_tail

axpyu_loop16:
	VMULPD (SI)(AX*8), Y0, Y1
	VMULPD 32(SI)(AX*8), Y0, Y2
	VMULPD 64(SI)(AX*8), Y0, Y3
	VMULPD 96(SI)(AX*8), Y0, Y4
	VMOVUPD (DI)(AX*8), Y5
	VMOVUPD 32(DI)(AX*8), Y6
	VMOVUPD 64(DI)(AX*8), Y7
	VMOVUPD 96(DI)(AX*8), Y8
	VADDPD Y1, Y5, Y5
	VADDPD Y2, Y6, Y6
	VADDPD Y3, Y7, Y7
	VADDPD Y4, Y8, Y8
	VMOVUPD Y5, (DI)(AX*8)
	VMOVUPD Y6, 32(DI)(AX*8)
	VMOVUPD Y7, 64(DI)(AX*8)
	VMOVUPD Y8, 96(DI)(AX*8)
	ADDQ $16, AX
	CMPQ AX, DX
	JLT  axpyu_loop16

axpyu_tail:
	CMPQ AX, CX
	JGE  axpyu_done
	VMULPD (SI)(AX*8), Y0, Y1
	VMOVUPD (DI)(AX*8), Y5
	VADDPD Y1, Y5, Y5
	VMOVUPD Y5, (DI)(AX*8)
	ADDQ $4, AX
	JMP  axpyu_tail

axpyu_done:
	VZEROUPPER
	RET

// func momentumAVX(w, grad, v *float64, n int, mu, lr float64, fresh bool)
// v[j] = mu*v[j] + grad[j]; w[j] -= lr*v[j] for j in [0, n), each product
// and sum rounded separately. With fresh set v is written, never read:
// v[j] = (mu*0) + grad[j]. n must be a multiple of 4.
TEXT ·momentumAVX(SB), NOSPLIT, $0-49
	MOVQ w+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ v+16(FP), DX
	MOVQ n+24(FP), CX
	VBROADCASTSD mu+32(FP), Y0
	VBROADCASTSD lr+40(FP), Y1
	MOVBLZX fresh+48(FP), BX
	XORQ AX, AX
	TESTQ BX, BX
	JNZ  mom_fresh

mom_loop:
	CMPQ AX, CX
	JGE  mom_done
	VMULPD (DX)(AX*8), Y0, Y2
	VADDPD (SI)(AX*8), Y2, Y2
	VMOVUPD Y2, (DX)(AX*8)
	VMULPD Y2, Y1, Y3
	VMOVUPD (DI)(AX*8), Y4
	VSUBPD Y3, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ $4, AX
	JMP  mom_loop

mom_fresh:
	VXORPD Y5, Y5, Y5
	VMULPD Y5, Y0, Y5

mom_fresh_loop:
	CMPQ AX, CX
	JGE  mom_done
	VADDPD (SI)(AX*8), Y5, Y2
	VMOVUPD Y2, (DX)(AX*8)
	VMULPD Y2, Y1, Y3
	VMOVUPD (DI)(AX*8), Y4
	VSUBPD Y3, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ $4, AX
	JMP  mom_fresh_loop

mom_done:
	VZEROUPPER
	RET
