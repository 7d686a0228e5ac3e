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

// AVX-512 kernels. The opmask registers carry the zero skip: a VCMPPD
// against +0 with predicate 4 (NEQ_UQ) sets a lane where the a element is
// not ±0, a NaN included (it compares unordered), and the VADDPD that adds
// the product merges under that mask, so a lane whose a element is zero
// keeps its sum untouched, as a skipped step leaves it. The product itself
// is formed in every lane (0·Inf makes a NaN there) and then dropped.
// Only AVX-512F instructions on zmm registers appear.

// lanes holds 0..7, one per quadword: times a stride in bytes, the byte
// offsets of eight rows, for a gather or a scatter.
DATA lanes<>+0(SB)/8, $0
DATA lanes<>+8(SB)/8, $1
DATA lanes<>+16(SB)/8, $2
DATA lanes<>+24(SB)/8, $3
DATA lanes<>+32(SB)/8, $4
DATA lanes<>+40(SB)/8, $5
DATA lanes<>+48(SB)/8, $6
DATA lanes<>+56(SB)/8, $7
GLOBL lanes<>(SB), RODATA|NOPTR, $64

// LANE_OFFSETS sets z to lanes times the byte stride in r, with t as
// scratch. VPMULUDQ multiplies 32-bit halves, so the stride's high and low
// halves are multiplied apart.
#define LANE_OFFSETS(r, z, t) VPBROADCASTQ r, z; VPSRLQ $32, z, t; VPMULUDQ lanes<>(SB), t, t; VPSLLQ $32, t, t; VPMULUDQ lanes<>(SB), z, z; VPADDQ t, z, z

// MMADD adds the product b·a into acc in the lanes of mask k.
#define MMADD(a, b, t, k, acc) VMULPD a, b, t; VADDPD acc, t, k, acc

// Four-row kernel building blocks. R12 walks a (stride R9 bytes) with the
// four rows R10 bytes apart (BX = 3·R10), R13 walks the current column
// tile of b (stride R11 bytes), AX counts k down and Z31 holds +0. Row r
// sums into Z(4r), Z(4r+1), Z(4r+2), Z(4r+3), one zmm per 8 columns.
#define R4_BEGIN MOVQ SI, R12; MOVQ DX, R13; MOVQ k+32(FP), AX

// R4_MASKS broadcasts row r's a element into Z(20+r) and sets mask K(1+r)
// in every lane if it is nonzero, in none if it is ±0.
#define R4_MASKS VBROADCASTSD (R12), Z20; VBROADCASTSD (R12)(R10*1), Z21; VBROADCASTSD (R12)(R10*2), Z22; VBROADCASTSD (R12)(BX*1), Z23; VCMPPD $4, Z31, Z20, K1; VCMPPD $4, Z31, Z21, K2; VCMPPD $4, Z31, Z22, K3; VCMPPD $4, Z31, Z23, K4

// R4_COL adds one zmm of b, bz, times each row's a element into that
// row's accumulator c0..c3.
#define R4_COL(bz, t, c0, c1, c2, c3) MMADD(Z20, bz, t, K1, c0); MMADD(Z21, bz, t, K2, c1); MMADD(Z22, bz, t, K3, c2); MMADD(Z23, bz, t, K4, c3)

#define R4_NEXT(loop) ADDQ R9, R12; ADDQ R11, R13; DECQ AX; JNE loop

// R4_STORE writes c0..c3 at byte offset off of the four output rows (AX
// points at the fourth); R4_STOREM writes the lanes of K5 only.
#define R4_ROW3 LEAQ (DI)(R8*2), AX; ADDQ R8, AX
#define R4_STORE(off, c0, c1, c2, c3) VMOVUPD c0, off(DI); VMOVUPD c1, off(DI)(R8*1); VMOVUPD c2, off(DI)(R8*2); VMOVUPD c3, off(AX)
#define R4_STOREM(c0, c1, c2, c3) VMOVUPD c0, K5, (DI); VMOVUPD c1, K5, (DI)(R8*1); VMOVUPD c2, K5, (DI)(R8*2); VMOVUPD c3, K5, (AX)

// func rows4AVX512(dst *float64, ldd, n int, a *float64, k, astride, rstride int, b *float64, ldb int)
//
// For the four rows r < 4, dst[r·ldd+j] = Σ_{kk<k} a[r·rstride+kk·astride]·
// b[kk·ldb+j] for j < n, summed from +0 in kk order, skipping a elements
// equal to zero: four rows of rowAVX2 that share each load of b. k > 0 and
// n > 0. Columns go in tiles of 32 (16 accumulator chains), then one of
// 16 (8 chains), then tiles of 8 whose last one masks its loads and stores
// to the columns that are left.
TEXT ·rows4AVX512(SB), NOSPLIT, $0-72
	MOVQ   dst+0(FP), DI
	MOVQ   ldd+8(FP), R8
	MOVQ   n+16(FP), CX
	MOVQ   a+24(FP), SI
	MOVQ   astride+40(FP), R9
	MOVQ   rstride+48(FP), R10
	MOVQ   b+56(FP), DX
	MOVQ   ldb+64(FP), R11
	SHLQ   $3, R8
	SHLQ   $3, R9
	SHLQ   $3, R10
	SHLQ   $3, R11
	LEAQ   (R10)(R10*2), BX
	VPXORQ Z31, Z31, Z31

r4tile32:
	CMPQ   CX, $32
	JLT    r4tile16
	VXORPD X0, X0, X0
	VXORPD X1, X1, X1
	VXORPD X2, X2, X2
	VXORPD X3, X3, X3
	VXORPD X4, X4, X4
	VXORPD X5, X5, X5
	VXORPD X6, X6, X6
	VXORPD X7, X7, X7
	VXORPD X8, X8, X8
	VXORPD X9, X9, X9
	VXORPD X10, X10, X10
	VXORPD X11, X11, X11
	VXORPD X12, X12, X12
	VXORPD X13, X13, X13
	VXORPD X14, X14, X14
	VXORPD X15, X15, X15
	R4_BEGIN

r4loop32:
	VMOVUPD (R13), Z16
	VMOVUPD 64(R13), Z17
	VMOVUPD 128(R13), Z18
	VMOVUPD 192(R13), Z19
	R4_MASKS
	R4_COL(Z16, Z24, Z0, Z4, Z8, Z12)
	R4_COL(Z17, Z25, Z1, Z5, Z9, Z13)
	R4_COL(Z18, Z26, Z2, Z6, Z10, Z14)
	R4_COL(Z19, Z27, Z3, Z7, Z11, Z15)
	R4_NEXT(r4loop32)
	R4_ROW3
	R4_STORE(0, Z0, Z4, Z8, Z12)
	R4_STORE(64, Z1, Z5, Z9, Z13)
	R4_STORE(128, Z2, Z6, Z10, Z14)
	R4_STORE(192, Z3, Z7, Z11, Z15)
	ADDQ   $256, DI
	ADDQ   $256, DX
	SUBQ   $32, CX
	JMP    r4tile32

r4tile16:
	CMPQ   CX, $16
	JLT    r4tile8
	VXORPD X0, X0, X0
	VXORPD X1, X1, X1
	VXORPD X4, X4, X4
	VXORPD X5, X5, X5
	VXORPD X8, X8, X8
	VXORPD X9, X9, X9
	VXORPD X12, X12, X12
	VXORPD X13, X13, X13
	R4_BEGIN

r4loop16:
	VMOVUPD (R13), Z16
	VMOVUPD 64(R13), Z17
	R4_MASKS
	R4_COL(Z16, Z24, Z0, Z4, Z8, Z12)
	R4_COL(Z17, Z25, Z1, Z5, Z9, Z13)
	R4_NEXT(r4loop16)
	R4_ROW3
	R4_STORE(0, Z0, Z4, Z8, Z12)
	R4_STORE(64, Z1, Z5, Z9, Z13)
	ADDQ   $128, DI
	ADDQ   $128, DX
	SUBQ   $16, CX

r4tile8:
	TESTQ  CX, CX
	JLE    r4done
	MOVL   $1, AX
	SHLL   CX, AX
	DECL   AX
	KMOVW  AX, K5             // the columns left, up to 8
	VXORPD X0, X0, X0
	VXORPD X4, X4, X4
	VXORPD X8, X8, X8
	VXORPD X12, X12, X12
	R4_BEGIN

r4loop8:
	VMOVUPD.Z (R13), K5, Z16
	R4_MASKS
	R4_COL(Z16, Z24, Z0, Z4, Z8, Z12)
	R4_NEXT(r4loop8)
	R4_ROW3
	R4_STOREM(Z0, Z4, Z8, Z12)
	ADDQ   $64, DI
	ADDQ   $64, DX
	SUBQ   $8, CX
	JMP    r4tile8

r4done:
	VZEROUPPER
	RET

// Narrow kernel building blocks. R12 walks a (stride R9 bytes), R13 walks
// b (stride R11 bytes), AX counts k down, Z31 holds +0 and Z30 the byte
// offsets of the eight rows of a for the gather. N_LOAD gathers the eight
// a elements of a step into Z16, one row per lane, and sets K1 in the
// lanes where they are nonzero; row lanes sum column j into Z(j).
#define N_LOAD VPXORQ Z16, Z16, Z16; KXNORW K2, K2, K2; VGATHERQPD (R12)(Z30*1), K2, Z16; VCMPPD $4, Z31, Z16, K1

// NCOL adds b[kk][off/8], broadcast into bz, times the a elements into acc.
#define NCOL(off, bz, t, acc) VBROADCASTSD off(R13), bz; MMADD(Z16, bz, t, K1, acc)

#define N_NEXT(loop) ADDQ R9, R12; ADDQ R11, R13; DECQ AX; JNE loop

// func narrow8AVX512(dst *float64, ldd, n int, a *float64, k, astride, rstride int, b *float64, ldb int)
//
// rows4AVX512 for eight rows and n ≤ 3 columns, with a row in each lane:
// dst[r·ldd+j] = Σ_{kk<k} a[r·rstride+kk·astride]·b[kk·ldb+j] for r < 8
// and j < n, summed from +0 in kk order, skipping a elements equal to
// zero. k > 0 and 1 ≤ n ≤ 3. The a elements of a step are gathered and
// the sums scattered to dst, one loop per column count.
TEXT ·narrow8AVX512(SB), NOSPLIT, $0-72
	MOVQ   dst+0(FP), DI
	MOVQ   ldd+8(FP), R8
	MOVQ   n+16(FP), CX
	MOVQ   a+24(FP), R12
	MOVQ   k+32(FP), AX
	MOVQ   astride+40(FP), R9
	MOVQ   rstride+48(FP), R10
	MOVQ   b+56(FP), R13
	MOVQ   ldb+64(FP), R11
	SHLQ   $3, R8
	SHLQ   $3, R9
	SHLQ   $3, R10
	SHLQ   $3, R11
	VPXORQ Z31, Z31, Z31
	VXORPD X0, X0, X0
	VXORPD X1, X1, X1
	VXORPD X2, X2, X2
	LANE_OFFSETS(R10, Z30, Z28)
	CMPQ   CX, $2
	JLT    nloop1
	JEQ    nloop2

nloop3:
	N_LOAD
	NCOL(0, Z17, Z24, Z0)
	NCOL(8, Z18, Z25, Z1)
	NCOL(16, Z19, Z26, Z2)
	N_NEXT(nloop3)
	JMP    nstore

nloop2:
	N_LOAD
	NCOL(0, Z17, Z24, Z0)
	NCOL(8, Z18, Z25, Z1)
	N_NEXT(nloop2)
	JMP    nstore

nloop1:
	N_LOAD
	NCOL(0, Z17, Z24, Z0)
	N_NEXT(nloop1)

nstore:
	LANE_OFFSETS(R8, Z29, Z28) // byte offsets of the eight output rows
	KXNORW K2, K2, K2
	VSCATTERQPD Z0, K2, (DI)(Z29*1)
	CMPQ   CX, $2
	JLT    ndone
	KXNORW K2, K2, K2
	VSCATTERQPD Z1, K2, 8(DI)(Z29*1)
	CMPQ   CX, $2
	JEQ    ndone
	KXNORW K2, K2, K2
	VSCATTERQPD Z2, K2, 16(DI)(Z29*1)

ndone:
	VZEROUPPER
	RET

// Element-wise AVX-512 kernels. Each walks n elements eight at a time and
// runs the last n mod 8 once more under K2, the tail mask: masked loads
// read, and masked stores write, no element past n. Every lane performs
// its element's operations of the Go loop in kernel.go, in that order.

// TAIL_MASK sets k to the lanes of the CX < 8 elements left.
#define TAIL_MASK(k) MOVL $1, AX; SHLL CX, AX; DECL AX; KMOVW AX, k

// ONE broadcasts 1.0 into z.
#define ONE(z) MOVQ $0x3ff0000000000000, AX; VPBROADCASTQ AX, z

// RELU computes ReLU of the elements at (SI) into (DI) in the lanes of k:
// K1 holds the lanes where !(z < 0) (predicate 5, NLT_UQ: z ≥ 0, −0 or
// NaN), which a zero-masked move keeps; the others become +0.
#define RELU(k) VMOVUPD.Z (SI), k, Z0; VCMPPD $5, Z31, Z0, K1; VMOVUPD.Z Z0, K1, Z0; VMOVUPD Z0, k, (DI)

// func reluAVX512(dst, z *float64, n int)
//
// dst[i] = z[i] if !(z[i] < 0), else +0, for i < n: reluGo. n > 0; dst
// may be z.
TEXT ·reluAVX512(SB), NOSPLIT, $0-24
	MOVQ   dst+0(FP), DI
	MOVQ   z+8(FP), SI
	MOVQ   n+16(FP), CX
	VPXORQ Z31, Z31, Z31
	KXNORW K7, K7, K7

relu8:
	CMPQ   CX, $8
	JLT    relutail
	RELU(K7)
	ADDQ   $64, SI
	ADDQ   $64, DI
	SUBQ   $8, CX
	JMP    relu8

relutail:
	TESTQ  CX, CX
	JEQ    reludone
	TAIL_MASK(K2)
	RELU(K2)

reludone:
	VZEROUPPER
	RET

// RELU_BACK computes dY·1 or dY·0 into (DI) in the lanes of k, the factor
// a 1.0 (Z30) moved under K1, the lanes where y > 0 (predicate 30, GT_OQ:
// false for ±0, negatives and NaN), and +0 elsewhere. The product, not a
// zeroing, keeps the signs of dY·0 and its NaN.
#define RELU_BACK(k) VMOVUPD.Z (BX), k, Z0; VCMPPD $30, Z31, Z0, K1; VMOVUPD.Z Z30, K1, Z1; VMOVUPD.Z (SI), k, Z2; VMULPD Z1, Z2, Z2; VMOVUPD Z2, k, (DI)

// func reluBackAVX512(dst, dY, y *float64, n int)
//
// dst[i] = dY[i]·(1 if y[i] > 0, else +0) for i < n: reluBackGo. n > 0;
// dst may be dY or y.
TEXT ·reluBackAVX512(SB), NOSPLIT, $0-32
	MOVQ   dst+0(FP), DI
	MOVQ   dY+8(FP), SI
	MOVQ   y+16(FP), BX
	MOVQ   n+24(FP), CX
	VPXORQ Z31, Z31, Z31
	ONE(Z30)
	KXNORW K7, K7, K7

rback8:
	CMPQ   CX, $8
	JLT    rbacktail
	RELU_BACK(K7)
	ADDQ   $64, SI
	ADDQ   $64, BX
	ADDQ   $64, DI
	SUBQ   $8, CX
	JMP    rback8

rbacktail:
	TESTQ  CX, CX
	JEQ    rbackdone
	TAIL_MASK(K2)
	RELU_BACK(K2)

rbackdone:
	VZEROUPPER
	RET

// TANH_BACK computes dY·(1 − y·y) into (DI) in the lanes of k: VMULPD,
// VSUBPD from 1.0 (Z30), VMULPD, with no fused multiply-add.
#define TANH_BACK(k) VMOVUPD.Z (BX), k, Z0; VMULPD Z0, Z0, Z0; VSUBPD Z0, Z30, Z0; VMOVUPD.Z (SI), k, Z2; VMULPD Z0, Z2, Z2; VMOVUPD Z2, k, (DI)

// func tanhBackAVX512(dst, dY, y *float64, n int)
//
// dst[i] = dY[i]·(1 − y[i]·y[i]) for i < n: tanhBackGo. n > 0; dst may be
// dY or y.
TEXT ·tanhBackAVX512(SB), NOSPLIT, $0-32
	MOVQ   dst+0(FP), DI
	MOVQ   dY+8(FP), SI
	MOVQ   y+16(FP), BX
	MOVQ   n+24(FP), CX
	ONE(Z30)
	KXNORW K7, K7, K7

tback8:
	CMPQ   CX, $8
	JLT    tbacktail
	TANH_BACK(K7)
	ADDQ   $64, SI
	ADDQ   $64, BX
	ADDQ   $64, DI
	SUBQ   $8, CX
	JMP    tback8

tbacktail:
	TESTQ  CX, CX
	JEQ    tbackdone
	TAIL_MASK(K2)
	TANH_BACK(K2)

tbackdone:
	VZEROUPPER
	RET

// ADD adds the elements at (SI) into those at (DI) in the lanes of k.
#define ADD(k) VMOVUPD.Z (DI), k, Z0; VMOVUPD.Z (SI), k, Z1; VADDPD Z1, Z0, Z0; VMOVUPD Z0, k, (DI)

// func addAVX512(dst, src *float64, n int)
//
// dst[i] += src[i] for i < n: addGo. n > 0.
TEXT ·addAVX512(SB), NOSPLIT, $0-24
	MOVQ   dst+0(FP), DI
	MOVQ   src+8(FP), SI
	MOVQ   n+16(FP), CX
	KXNORW K7, K7, K7

add8:
	CMPQ   CX, $8
	JLT    addtail
	ADD(K7)
	ADDQ   $64, SI
	ADDQ   $64, DI
	SUBQ   $8, CX
	JMP    add8

addtail:
	TESTQ  CX, CX
	JEQ    adddone
	TAIL_MASK(K2)
	ADD(K2)

adddone:
	VZEROUPPER
	RET

// Per-block sparse kernel building blocks. R9 walks off, one int32 per
// row; AX walks a row's entries from off[r] up to CX = off[r+1]; SI holds
// val and BX idx; R12 walks the columns of b (rows R11 bytes apart), DI
// those of dst, and R13 counts the columns left. SB_ENTRY broadcasts entry
// AX's value into Z8 and points DX at its row of b.
#define SB_ROWS MOVLQSX (R9), AX; MOVLQSX 4(R9), CX
#define SB_ENTRY VBROADCASTSD (SI)(AX*8), Z8; MOVLQZX (BX)(AX*4), DX; IMULQ R11, DX; ADDQ R12, DX
#define SB_NEXT(loop) INCQ AX; CMPQ AX, CX; JLT loop

// SBMADD adds the product of the b vector at off(DX) and the value into
// acc, with b first in the product and the product first in the sum.
#define SBMADD(off, acc) VMOVUPD off(DX), Z9; VMULPD Z8, Z9, Z9; VADDPD acc, Z9, acc

// func sparseRowsAVX512(dst *float64, ldd, n int, off *int32, rows int, val *float64, idx *uint32, b *float64, ldb int, add bool)
//
// For each row r < rows and j < n, the sum Σ val[e]·b[idx[e]·ldb+j] over
// off[r] ≤ e < off[r+1], from +0 in e order, is stored in dst[r·ldd+j],
// or with add added to it: rowSparseAVX2 over a block of rows, in one
// call. rows > 0 and n > 0. Columns go in tiles of 32 (4 accumulator
// chains), then one of 16, then tiles of 8 whose last one masks its loads
// and stores to the columns left. A row without entries stores +0 (adds
// +0), as the Go loop does.
TEXT ·sparseRowsAVX512(SB), NOSPLIT, $0-73
	MOVQ   dst+0(FP), DI
	MOVQ   ldd+8(FP), R8
	MOVQ   n+16(FP), R13
	MOVQ   off+24(FP), R9
	MOVQ   rows+32(FP), R10
	MOVQ   val+40(FP), SI
	MOVQ   idx+48(FP), BX
	MOVQ   ldb+64(FP), R11
	SUBQ   R13, R8
	SHLQ   $3, R8  // the bytes from the end of one dst row to the next
	SHLQ   $3, R11

sbrow:
	MOVQ   b+56(FP), R12
	MOVQ   n+16(FP), R13

sbtile32:
	CMPQ   R13, $32
	JLT    sbtile16
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	SB_ROWS
	CMPQ   AX, CX
	JGE    sbstore32

sbloop32:
	SB_ENTRY
	SBMADD(0, Z0)
	SBMADD(64, Z1)
	SBMADD(128, Z2)
	SBMADD(192, Z3)
	SB_NEXT(sbloop32)

sbstore32:
	CMPB   add+72(FP), $0
	JEQ    sbput32
	VADDPD (DI), Z0, Z0
	VADDPD 64(DI), Z1, Z1
	VADDPD 128(DI), Z2, Z2
	VADDPD 192(DI), Z3, Z3

sbput32:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	ADDQ   $256, DI
	ADDQ   $256, R12
	SUBQ   $32, R13
	JMP    sbtile32

sbtile16:
	CMPQ   R13, $16
	JLT    sbtile8
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	SB_ROWS
	CMPQ   AX, CX
	JGE    sbstore16

sbloop16:
	SB_ENTRY
	SBMADD(0, Z0)
	SBMADD(64, Z1)
	SB_NEXT(sbloop16)

sbstore16:
	CMPB   add+72(FP), $0
	JEQ    sbput16
	VADDPD (DI), Z0, Z0
	VADDPD 64(DI), Z1, Z1

sbput16:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	ADDQ   $128, DI
	ADDQ   $128, R12
	SUBQ   $16, R13

sbtile8:
	TESTQ  R13, R13
	JLE    sbrownext
	MOVQ   R13, CX
	TAIL_MASK(K1) // the columns left, up to 8 (R13 < 16)
	VPXORQ Z0, Z0, Z0
	SB_ROWS
	CMPQ   AX, CX
	JGE    sbstore8

sbloop8:
	SB_ENTRY
	VMOVUPD.Z (DX), K1, Z9
	VMULPD Z8, Z9, Z9
	VADDPD Z0, Z9, Z0
	SB_NEXT(sbloop8)

sbstore8:
	CMPB   add+72(FP), $0
	JEQ    sbput8
	VMOVUPD.Z (DI), K1, Z9
	VADDPD Z9, Z0, Z0

sbput8:
	VMOVUPD Z0, K1, (DI)
	MOVQ   R13, AX
	CMPQ   AX, $8
	JLE    2(PC)
	MOVQ   $8, AX
	LEAQ   (DI)(AX*8), DI
	LEAQ   (R12)(AX*8), R12
	SUBQ   AX, R13
	JMP    sbtile8

sbrownext:
	ADDQ   R8, DI
	ADDQ   $4, R9
	DECQ   R10
	JNE    sbrow
	VZEROUPPER
	RET
