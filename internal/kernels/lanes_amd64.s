#include "textflag.h"

// SCORE scores the blocks of one pass, the four from DI on or all that
// remain when fewer do, each into its own accumulator, X0 to X3: per
// element i, the lanes of (broadcast q[i] − block[i])² are added in
// ascending i, so every lane is one SquaredL2 chain. The broadcast is the
// subtract's destination, so the operands stand in SquaredL2's order. SI
// is &q[0], R8 the bytes per block and BX the blocks left, at least one.
// A pass of four blocks leaves R12 on its last block. The last pass, when
// fewer blocks remain, runs a loop of its own length, 3, 2 or 1, so no
// block is scored that is not there; the accumulators it leaves out stay
// +0 and are not read, and the pointers past its last block are not
// dereferenced. Each loop starts on a 64-byte boundary wherever the
// linker places the function; the padding sits after a jump, so it never
// runs.
#define SCORE \
	MOVQ  SI, R14 \
	XORQ  R13, R13 \
	MOVQ  DI, R9 \
	LEAQ  (R9)(R8*1), R10 \
	LEAQ  (R10)(R8*1), R11 \
	LEAQ  (R11)(R8*1), R12 \
	XORPS X0, X0 \
	XORPS X1, X1 \
	XORPS X2, X2 \
	XORPS X3, X3 \
	CMPQ  BX, $3 \
	JGT   test4 \
	JEQ   test3 \
	CMPQ  BX, $2 \
	JEQ   test2 \
	JMP   test1 \
	PCALIGN $64 \
loop4: \
	MOVSS  (R14), X4 \
	SHUFPS $0x00, X4, X4 \
	MOVAPS X4, X5 \
	MOVAPS X4, X6 \
	MOVAPS X4, X7 \
	MOVUPS (R9)(R13*1), X8 \
	MOVUPS (R10)(R13*1), X9 \
	MOVUPS (R11)(R13*1), X10 \
	MOVUPS (R12)(R13*1), X11 \
	SUBPS  X8, X4 \
	SUBPS  X9, X5 \
	SUBPS  X10, X6 \
	SUBPS  X11, X7 \
	MULPS  X4, X4 \
	MULPS  X5, X5 \
	MULPS  X6, X6 \
	MULPS  X7, X7 \
	ADDPS  X4, X0 \
	ADDPS  X5, X1 \
	ADDPS  X6, X2 \
	ADDPS  X7, X3 \
	ADDQ   $4, R14 \
	ADDQ   $16, R13 \
test4: \
	CMPQ R13, R8 \
	JLT  loop4 \
	JMP  scored \
	PCALIGN $64 \
loop3: \
	MOVSS  (R14), X4 \
	SHUFPS $0x00, X4, X4 \
	MOVAPS X4, X5 \
	MOVAPS X4, X6 \
	MOVUPS (R9)(R13*1), X8 \
	MOVUPS (R10)(R13*1), X9 \
	MOVUPS (R11)(R13*1), X10 \
	SUBPS  X8, X4 \
	SUBPS  X9, X5 \
	SUBPS  X10, X6 \
	MULPS  X4, X4 \
	MULPS  X5, X5 \
	MULPS  X6, X6 \
	ADDPS  X4, X0 \
	ADDPS  X5, X1 \
	ADDPS  X6, X2 \
	ADDQ   $4, R14 \
	ADDQ   $16, R13 \
test3: \
	CMPQ R13, R8 \
	JLT  loop3 \
	JMP  scored \
	PCALIGN $64 \
loop2: \
	MOVSS  (R14), X4 \
	SHUFPS $0x00, X4, X4 \
	MOVAPS X4, X5 \
	MOVUPS (R9)(R13*1), X8 \
	MOVUPS (R10)(R13*1), X9 \
	SUBPS  X8, X4 \
	SUBPS  X9, X5 \
	MULPS  X4, X4 \
	MULPS  X5, X5 \
	ADDPS  X4, X0 \
	ADDPS  X5, X1 \
	ADDQ   $4, R14 \
	ADDQ   $16, R13 \
test2: \
	CMPQ R13, R8 \
	JLT  loop2 \
	JMP  scored \
	PCALIGN $64 \
loop1: \
	MOVSS  (R14), X4 \
	SHUFPS $0x00, X4, X4 \
	MOVUPS (R9)(R13*1), X8 \
	SUBPS  X8, X4 \
	MULPS  X4, X4 \
	ADDPS  X4, X0 \
	ADDQ   $4, R14 \
	ADDQ   $16, R13 \
test1: \
	CMPQ R13, R8 \
	JLT  loop1 \
scored:

// func squaredL2Lanes(q, blk, out []float32)
//
// Each pass scores up to four blocks (SCORE) and stores their sums.
TEXT ·squaredL2Lanes(SB), NOSPLIT, $0-72
	MOVQ q_base+0(FP), SI
	MOVQ q_len+8(FP), CX
	MOVQ blk_base+24(FP), DI
	MOVQ out_base+48(FP), DX
	MOVQ out_len+56(FP), BX
	SHRQ $2, BX                  // blocks left
	MOVQ CX, R8
	SHLQ $4, R8                  // bytes per block: dim × 4 lanes × 4

pass:
	TESTQ BX, BX
	JZ    done
	SCORE
	MOVUPS X0, (DX)
	CMPQ   BX, $2
	JLT    done
	MOVUPS X1, 16(DX)
	CMPQ   BX, $3
	JLT    done
	MOVUPS X2, 32(DX)
	CMPQ   BX, $4
	JLT    done
	MOVUPS X3, 48(DX)
	ADDQ   $64, DX
	LEAQ   (R12)(R8*1), DI
	SUBQ   $4, BX
	JMP    pass

done:
	RET

// The first block's row numbers, then the step to the next block's.
DATA rows<>+0x00(SB)/4, $0
DATA rows<>+0x04(SB)/4, $1
DATA rows<>+0x08(SB)/4, $2
DATA rows<>+0x0c(SB)/4, $3
DATA rows<>+0x10(SB)/4, $4
DATA rows<>+0x14(SB)/4, $4
DATA rows<>+0x18(SB)/4, $4
DATA rows<>+0x1c(SB)/4, $4
GLOBL rows<>(SB), RODATA|NOPTR, $32

// FOLD scans one block's sums s one step further in each lane, as
// laneMins.fold does: X12 holds the lanes' least distances d1, X13 their
// second least d2, X14 the rows of d1 as int32, X15 this block's rows and
// X7 the step to the next block's. With v the block's sum, d2 becomes
// min(max(d1, v), d2) and d1 becomes min(v, d1), where MAXPS answers v
// and MINPS its second operand when v is NaN; the mask v < d1 moves this
// block's rows into the lanes whose d1 changed.
#define FOLD(s) \
	MOVAPS X12, X4 \
	MAXPS  s, X4 \
	MINPS  X13, X4 \
	MOVAPS X4, X13 \
	MOVAPS s, X5 \
	CMPPS  X12, X5, $1 \
	MINPS  X12, s \
	MOVAPS s, X12 \
	MOVAPS X15, X6 \
	ANDPS  X5, X6 \
	ANDNPS X14, X5 \
	ORPS   X6, X5 \
	MOVAPS X5, X14 \
	PADDL  X7, X15

// func nearestLanes(q, blk []float32, blocks int) (j int, d1, d2 float32)
//
// Each pass scores up to four blocks (SCORE) and folds their sums into
// the lane state in ascending block order, so a tie keeps the earlier
// block. Every lane starts at d1 = d2 = +Inf on row 0. Then the
// four lanes are reduced as laneMins.nearest does: d1 is the least of
// their d1, d2 the least of the second least of their d1 and of their
// d2, and j the least row among the lanes whose d1 equals d1.
TEXT ·nearestLanes(SB), NOSPLIT, $0-72
	MOVQ    q_base+0(FP), SI
	MOVQ    q_len+8(FP), CX
	MOVQ    blk_base+24(FP), DI
	MOVQ    blocks+48(FP), BX
	MOVQ    CX, R8
	SHLQ    $4, R8               // bytes per block: dim × 4 lanes × 4
	PCMPEQL X12, X12
	PSLLL   $24, X12
	PSRLL   $1, X12              // +Inf
	MOVAPS  X12, X13
	PXOR    X14, X14
	MOVUPS  rows<>+0x00(SB), X15

pass:
	TESTQ   BX, BX
	JZ      reduce
	SCORE
	MOVUPS  rows<>+0x10(SB), X7
	FOLD(X0)
	CMPQ    BX, $2
	JLT     reduce
	FOLD(X1)
	CMPQ    BX, $3
	JLT     reduce
	FOLD(X2)
	CMPQ    BX, $4
	JLT     reduce
	FOLD(X3)
	LEAQ    (R12)(R8*1), DI
	SUBQ    $4, BX
	JMP     pass

reduce:
	// The least and second least of the lanes' d1: X1 and X0 first
	// hold the least and the greatest of lanes 0, 1 and of lanes 2, 3.
	MOVAPS  X12, X0
	SHUFPS  $0xb1, X0, X0
	MOVAPS  X12, X1
	MINPS   X0, X1
	MAXPS   X12, X0
	MOVAPS  X1, X2
	SHUFPS  $0x4e, X2, X2
	MOVAPS  X0, X3
	SHUFPS  $0x4e, X3, X3
	MINPS   X3, X0
	MOVAPS  X1, X3
	MINPS   X2, X3               // d1, in every lane
	MAXPS   X2, X1
	MINPS   X1, X0               // the second least of the lanes' d1

	// The least of the lanes' d2.
	MOVAPS  X13, X1
	SHUFPS  $0xb1, X1, X1
	MINPS   X13, X1
	MOVAPS  X1, X2
	SHUFPS  $0x4e, X2, X2
	MINPS   X2, X1
	MINPS   X1, X0               // d2, in every lane

	// The least row among the lanes whose d1 is d1; the others read as
	// the greatest int32.
	MOVAPS  X12, X4
	CMPPS   X3, X4, $0
	PCMPEQL X5, X5
	PSRLL   $1, X5
	ANDPS   X4, X14
	ANDNPS  X5, X4
	ORPS    X4, X14
	PSHUFD  $0xb1, X14, X5
	MOVO    X14, X6
	PCMPGTL X5, X6
	PAND    X6, X5
	PANDN   X14, X6
	POR     X5, X6
	PSHUFD  $0x4e, X6, X5
	MOVO    X6, X14
	PCMPGTL X5, X14
	PAND    X14, X5
	PANDN   X6, X14
	POR     X5, X14              // j, in every lane

	MOVQ    X14, AX
	MOVL    AX, AX
	MOVQ    AX, j+56(FP)
	MOVSS   X3, d1+64(FP)
	MOVSS   X0, d2+68(FP)
	RET

// RELAX relaxes the bounds of X0 by the drifts of X2 (lanes 0 and 1) and
// X3 (lanes 2 and 3), as relaxBoundsGo does, leaving them in X0: d is the
// float64 difference (CVTPS2PD, SUBPD), MAXPD with +0 as its second
// operand answers +0 wherever d > 0 fails (NaN, −Inf and −0 included),
// CVTPD2PS rounds to nearest, and the int32 step down by one (PADDL of −1)
// is undone wherever the float is +0 (PCMPEQL, PSUBL). X15 holds +0 and
// X14 −1 in every lane; X1 and X4 are scratch.
#define RELAX \
	CVTPS2PD X0, X1 \
	MOVHLPS  X0, X0 \
	CVTPS2PD X0, X0 \
	SUBPD    X2, X1 \
	SUBPD    X3, X0 \
	MAXPD    X15, X1 \
	MAXPD    X15, X0 \
	CVTPD2PS X1, X1 \
	CVTPD2PS X0, X0 \
	MOVLHPS  X0, X1 \
	MOVO     X1, X0 \
	PCMPEQL  X15, X1 \
	PADDL    X14, X0 \
	PSUBL    X1, X0

// func relaxBounds(lb []float32, drift []float64) (minLB float32)
//
// Four bounds per pass, then a pair and a single bound for the tail, the
// lanes past them reading +0 − +0 and not kept. X13 keeps the running
// minimum, reduced across its lanes at the end; the pair enters it with
// +Inf (X12) above, the single bound by MINSS.
TEXT ·relaxBounds(SB), NOSPLIT, $0-52
	MOVQ    lb_base+0(FP), SI
	MOVQ    lb_len+8(FP), CX
	MOVQ    drift_base+24(FP), DI
	XORPS   X15, X15
	PCMPEQL X14, X14
	MOVO    X14, X12
	PSLLL   $24, X12
	PSRLL   $1, X12              // +Inf
	MOVAPS  X12, X13

quad:
	CMPQ    CX, $4
	JLT     pair
	MOVUPS  (SI), X0
	MOVUPD  (DI), X2
	MOVUPD  16(DI), X3
	RELAX
	MINPS   X0, X13
	MOVUPS  X0, (SI)
	ADDQ    $16, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     quad

pair:
	CMPQ    CX, $2
	JLT     single
	MOVSD   (SI), X0
	MOVUPD  (DI), X2
	XORPS   X3, X3
	RELAX
	MOVAPS  X12, X1
	MOVSD   X0, X1
	MINPS   X1, X13
	MOVSD   X0, (SI)
	ADDQ    $8, SI
	ADDQ    $16, DI
	SUBQ    $2, CX

single:
	TESTQ   CX, CX
	JZ      reduce
	MOVSS   (SI), X0
	MOVSD   (DI), X2
	XORPS   X3, X3
	RELAX
	MINSS   X0, X13
	MOVSS   X0, (SI)

reduce:
	MOVAPS  X13, X0
	SHUFPS  $0x4e, X0, X0
	MINPS   X0, X13
	MOVAPS  X13, X0
	SHUFPS  $0xb1, X0, X0
	MINPS   X0, X13
	MOVSS   X13, minLB+48(FP)
	RET
