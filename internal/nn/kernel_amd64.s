#include "textflag.h"

// Every lane of every vector is a distinct output element, and each one
// sees the scalar operation sequence of the Go loops in kernel.go: a
// product rounded by VMULPD, then a sum rounded by VADDPD (never a fused
// multiply-add), with the operands in the order the Go compiler emits for
// those loops (the b/x element first in the product, the product first in
// the sum).

// Row kernel building blocks. R11 walks a (stride R9 bytes), R12 walks
// the current column tile of b (stride R10 bytes), R13 counts k down, X14
// holds +0 and Y8 the broadcast a element.
#define ROW_BEGIN MOVQ SI, R11; MOVQ DX, R12; MOVQ R8, R13

// ROW_SKIP jumps to next when a[kk] == ±0 (a NaN compares unordered and
// is not skipped), otherwise broadcasts it into Y8.
#define ROW_SKIP(next) VMOVSD (R11), X8; VUCOMISD X14, X8; JNE 2(PC); JPC next; VBROADCASTSD X8, Y8

#define ROW_NEXT(loop) ADDQ R9, R11; ADDQ R10, R12; DECQ R13; JNE loop

// MADD adds b[kk][off/8 .. off/8+3]·a[kk] into acc.
#define MADD(off, acc) VMOVUPD off(R12), Y9; VMULPD Y8, Y9, Y9; VADDPD acc, Y9, acc

// func rowAVX2(dst *float64, n int, a *float64, k, astride int, b *float64, ldb int)
//
// dst[j] = Σ_{kk<k} a[kk·astride]·b[kk·ldb+j] for j < n, summed from +0 in
// kk order, skipping a elements equal to zero. k > 0, and n is a positive
// multiple of 4. Columns go in tiles of 32 (eight independent accumulator
// chains, enough to cover the VADDPD latency), and what is left in one
// tile each of 16, 8 and 4.
TEXT ·rowAVX2(SB), NOSPLIT, $0-56
	MOVQ   dst+0(FP), DI
	MOVQ   n+8(FP), CX
	MOVQ   a+16(FP), SI
	MOVQ   k+24(FP), R8
	MOVQ   astride+32(FP), R9
	MOVQ   b+40(FP), DX
	MOVQ   ldb+48(FP), R10
	SHLQ   $3, R9
	SHLQ   $3, R10
	VXORPD X14, X14, X14

tile32:
	CMPQ   CX, $32
	JLT    tile16
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	ROW_BEGIN

loop32:
	ROW_SKIP(next32)
	MADD(0, Y0)
	MADD(32, Y1)
	MADD(64, Y2)
	MADD(96, Y3)
	MADD(128, Y4)
	MADD(160, Y5)
	MADD(192, Y6)
	MADD(224, Y7)

next32:
	ROW_NEXT(loop32)
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ    $256, DI
	ADDQ    $256, DX
	SUBQ    $32, CX
	JMP     tile32

tile16:
	CMPQ   CX, $16
	JLT    tile8
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	ROW_BEGIN

loop16:
	ROW_SKIP(next16)
	MADD(0, Y0)
	MADD(32, Y1)
	MADD(64, Y2)
	MADD(96, Y3)

next16:
	ROW_NEXT(loop16)
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, DX
	SUBQ    $16, CX

tile8:
	CMPQ   CX, $8
	JLT    tile4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	ROW_BEGIN

loop8:
	ROW_SKIP(next8)
	MADD(0, Y0)
	MADD(32, Y1)

next8:
	ROW_NEXT(loop8)
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, DI
	ADDQ    $64, DX
	SUBQ    $8, CX

tile4:
	CMPQ   CX, $4
	JLT    done
	VXORPD Y0, Y0, Y0
	ROW_BEGIN

loop4:
	ROW_SKIP(next4)
	MADD(0, Y0)

next4:
	ROW_NEXT(loop4)
	VMOVUPD Y0, (DI)

done:
	VZEROUPPER
	RET

// Sparse row kernel building blocks. R11 walks val, R12 walks idx, R13
// counts the entries down, AX points at the current tile of the b row the
// entry selects, and Y8 holds the broadcast value.
#define SPARSE_BEGIN MOVQ SI, R11; MOVQ BX, R12; MOVQ R8, R13

#define SPARSE_ENTRY VBROADCASTSD (R11), Y8; MOVLQZX (R12), AX; IMULQ R10, AX; ADDQ DX, AX

#define SPARSE_NEXT(loop) ADDQ $8, R11; ADDQ $4, R12; DECQ R13; JNE loop

// SMADD adds b[idx][off/8 .. off/8+3]·val into acc.
#define SMADD(off, acc) VMOVUPD off(AX), Y9; VMULPD Y8, Y9, Y9; VADDPD acc, Y9, acc

// func rowSparseAVX2(dst *float64, n int, val *float64, idx *uint32, cnt int, b *float64, ldb int)
//
// dst[j] = Σ_{e<cnt} val[e]·b[idx[e]·ldb+j] for j < n, summed from +0 in e
// order. cnt > 0, and n is a positive multiple of 4. Columns go in tiles
// as in rowAVX2.
TEXT ·rowSparseAVX2(SB), NOSPLIT, $0-56
	MOVQ   dst+0(FP), DI
	MOVQ   n+8(FP), CX
	MOVQ   val+16(FP), SI
	MOVQ   idx+24(FP), BX
	MOVQ   cnt+32(FP), R8
	MOVQ   b+40(FP), DX
	MOVQ   ldb+48(FP), R10
	SHLQ   $3, R10

stile32:
	CMPQ   CX, $32
	JLT    stile16
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	SPARSE_BEGIN

sloop32:
	SPARSE_ENTRY
	SMADD(0, Y0)
	SMADD(32, Y1)
	SMADD(64, Y2)
	SMADD(96, Y3)
	SMADD(128, Y4)
	SMADD(160, Y5)
	SMADD(192, Y6)
	SMADD(224, Y7)
	SPARSE_NEXT(sloop32)
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ    $256, DI
	ADDQ    $256, DX
	SUBQ    $32, CX
	JMP     stile32

stile16:
	CMPQ   CX, $16
	JLT    stile8
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	SPARSE_BEGIN

sloop16:
	SPARSE_ENTRY
	SMADD(0, Y0)
	SMADD(32, Y1)
	SMADD(64, Y2)
	SMADD(96, Y3)
	SPARSE_NEXT(sloop16)
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, DX
	SUBQ    $16, CX

stile8:
	CMPQ   CX, $8
	JLT    stile4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	SPARSE_BEGIN

sloop8:
	SPARSE_ENTRY
	SMADD(0, Y0)
	SMADD(32, Y1)
	SPARSE_NEXT(sloop8)
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, DI
	ADDQ    $64, DX
	SUBQ    $8, CX

stile4:
	CMPQ   CX, $4
	JLT    sdone
	VXORPD Y0, Y0, Y0
	SPARSE_BEGIN

sloop4:
	SPARSE_ENTRY
	SMADD(0, Y0)
	SPARSE_NEXT(sloop4)
	VMOVUPD Y0, (DI)

sdone:
	VZEROUPPER
	RET

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

// func adamAVX2(p, grad, m, v *float64, n int, c *adamCoef)
//
// One Adam step on n elements, n a positive multiple of 4, in the
// operation order of adamGo. VDIVPD and VSQRTPD round correctly, as their
// scalar forms do.
TEXT ·adamAVX2(SB), NOSPLIT, $0-48
	MOVQ         p+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         m+16(FP), R8
	MOVQ         v+24(FP), R9
	MOVQ         n+32(FP), CX
	MOVQ         c+40(FP), AX
	VBROADCASTSD 0(AX), Y8   // β1
	VBROADCASTSD 8(AX), Y9   // 1-β1
	VBROADCASTSD 16(AX), Y10 // β2
	VBROADCASTSD 24(AX), Y11 // 1-β2
	VBROADCASTSD 32(AX), Y12 // bias correction 1
	VBROADCASTSD 40(AX), Y13 // bias correction 2
	VBROADCASTSD 48(AX), Y14 // learning rate
	VBROADCASTSD 56(AX), Y6  // ε

adamloop:
	VMOVUPD (SI), Y0
	VMOVUPD (R8), Y1
	VMULPD  Y1, Y8, Y1   // β1·m
	VMULPD  Y0, Y9, Y2   // (1-β1)·g
	VADDPD  Y2, Y1, Y1   // m
	VMOVUPD Y1, (R8)
	VMOVUPD (R9), Y4
	VMULPD  Y0, Y11, Y3  // (1-β2)·g
	VMULPD  Y0, Y3, Y3   // ·g
	VMULPD  Y4, Y10, Y4  // β2·v
	VADDPD  Y3, Y4, Y4   // v
	VMOVUPD Y4, (R9)
	VDIVPD  Y12, Y1, Y1  // m̂
	VDIVPD  Y13, Y4, Y4  // v̂
	VSQRTPD Y4, Y4
	VADDPD  Y6, Y4, Y4   // √v̂ + ε
	VMULPD  Y1, Y14, Y1  // lr·m̂
	VDIVPD  Y4, Y1, Y1
	VMOVUPD (DI), Y5
	VSUBPD  Y1, Y5, Y5
	VMOVUPD Y5, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, R9
	SUBQ    $4, CX
	JNE     adamloop
	VZEROUPPER
	RET
