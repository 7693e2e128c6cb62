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
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// REDUCE folds the four lanes of Y into its low element as
// (l0+l2)+(l1+l3), using X5 as scratch.
#define REDUCE(Y, X) \
	VEXTRACTF128 $1, Y, X5; \
	VADDPD       X5, X, X;  \
	VUNPCKHPD    X, X, X5;  \
	VADDSD       X5, X, X

// func fmaRowTransB(out, a, b *float64, k, n int)
//
// Registers: DI out, SI a, DX the current b row, R10 the b row stride in
// bytes (k*8), R9 the vector part k&^3 in bytes, BX k in bytes, R8 the
// columns left. Each output element is computed the same way whether it
// falls in a 4-column block or in the fringe: lane l of its accumulator
// sums a[k]*b[k] for k ≡ l (mod 4) over k < k&^3 with FMA, the lanes are
// reduced as (l0+l2)+(l1+l3), and the k mod 4 tail is fused in in index
// order.
TEXT ·fmaRowTransB(SB), NOSPLIT, $0-40
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ k+24(FP), BX
	MOVQ n+32(FP), R8
	MOVQ BX, R9
	ANDQ $-4, R9
	SHLQ $3, R9
	SHLQ $3, BX
	MOVQ BX, R10

block4:
	CMPQ R8, $4
	JLT  fringe
	LEAQ (DX)(R10*1), R11
	LEAQ (DX)(R10*2), R12
	LEAQ (R11)(R10*2), R13
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ AX, AX

block4vec:
	CMPQ AX, R9
	JGE  block4reduce
	VMOVUPD     (SI)(AX*1), Y4
	VFMADD231PD (DX)(AX*1), Y4, Y0
	VFMADD231PD (R11)(AX*1), Y4, Y1
	VFMADD231PD (R12)(AX*1), Y4, Y2
	VFMADD231PD (R13)(AX*1), Y4, Y3
	ADDQ $32, AX
	JMP  block4vec

block4reduce:
	REDUCE(Y0, X0)
	REDUCE(Y1, X1)
	REDUCE(Y2, X2)
	REDUCE(Y3, X3)

block4tail:
	CMPQ AX, BX
	JGE  block4store
	VMOVSD      (SI)(AX*1), X4
	VFMADD231SD (DX)(AX*1), X4, X0
	VFMADD231SD (R11)(AX*1), X4, X1
	VFMADD231SD (R12)(AX*1), X4, X2
	VFMADD231SD (R13)(AX*1), X4, X3
	ADDQ $8, AX
	JMP  block4tail

block4store:
	VMOVSD X0, (DI)
	VMOVSD X1, 8(DI)
	VMOVSD X2, 16(DI)
	VMOVSD X3, 24(DI)
	ADDQ $32, DI
	LEAQ (DX)(R10*4), DX
	SUBQ $4, R8
	JMP  block4

fringe:
	TESTQ R8, R8
	JEQ   done
	VXORPD Y0, Y0, Y0
	XORQ   AX, AX

fringevec:
	CMPQ AX, R9
	JGE  fringereduce
	VMOVUPD     (SI)(AX*1), Y4
	VFMADD231PD (DX)(AX*1), Y4, Y0
	ADDQ $32, AX
	JMP  fringevec

fringereduce:
	REDUCE(Y0, X0)

fringetail:
	CMPQ AX, BX
	JGE  fringestore
	VMOVSD      (SI)(AX*1), X4
	VFMADD231SD (DX)(AX*1), X4, X0
	ADDQ $8, AX
	JMP  fringetail

fringestore:
	VMOVSD X0, (DI)
	ADDQ   $8, DI
	ADDQ   R10, DX
	DECQ   R8
	JMP    fringe

done:
	VZEROUPPER
	RET
