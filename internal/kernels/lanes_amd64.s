#include "textflag.h"

// func squaredL2Lanes(q, blk, out []float32)
//
// Each pass scores four blocks, each into its own accumulator: per
// element i, the lanes of (broadcast q[i] − block[i])² are added in
// ascending i, so every lane is one SquaredL2 chain. The broadcast is the
// subtract's destination, so the operands stand in SquaredL2's order.
// When fewer than four blocks remain, the spare block pointers repeat the
// last block and their sums are not stored.
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
	MOVQ  DI, R9
	MOVQ  R9, R10
	CMPQ  BX, $2
	JLT   third
	ADDQ  R8, R10

third:
	MOVQ R10, R11
	CMPQ BX, $3
	JLT  fourth
	ADDQ R8, R11

fourth:
	MOVQ  R11, R12
	CMPQ  BX, $4
	JLT   zero
	ADDQ  R8, R12

zero:
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	MOVQ  SI, R14                // &q[i]
	XORQ  R13, R13               // byte offset of element i in a block
	JMP   test

	// The loop starts on a 64-byte boundary wherever the linker places
	// the function; the padding sits after the jump, so it never runs.
	PCALIGN $64

loop:
	MOVSS  (R14), X4
	SHUFPS $0x00, X4, X4
	MOVAPS X4, X5
	MOVAPS X4, X6
	MOVAPS X4, X7
	MOVUPS (R9)(R13*1), X8
	MOVUPS (R10)(R13*1), X9
	MOVUPS (R11)(R13*1), X10
	MOVUPS (R12)(R13*1), X11
	SUBPS  X8, X4
	SUBPS  X9, X5
	SUBPS  X10, X6
	SUBPS  X11, X7
	MULPS  X4, X4
	MULPS  X5, X5
	MULPS  X6, X6
	MULPS  X7, X7
	ADDPS  X4, X0
	ADDPS  X5, X1
	ADDPS  X6, X2
	ADDPS  X7, X3
	ADDQ   $4, R14
	ADDQ   $16, R13

test:
	CMPQ R13, R8
	JLT  loop
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
