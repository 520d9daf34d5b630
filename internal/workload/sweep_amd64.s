#include "textflag.h"

// func sweepSSE2(buf, grid []float64, n int, alpha float64)
//
// The interior rows of one sweep of the n×n grid, as sweepGeneric writes
// them: for 1 ≤ i, j ≤ n−2, with c = grid[i][j],
//
//	buf[i][j] = c + alpha*((((up+down)+left)+right) − 4c)
//
// and buf[i][0], buf[i][n−1] copied from grid. SSE2 is baseline amd64.
// A packed ADDPD, SUBPD or MULPD rounds each lane as ADDSD, SUBSD or
// MULSD does, NaN payloads included. When both operands are NaN, x86
// returns the first one's payload; Go leaves that order to the compiler
// for a commutative operation, and the operations below take their
// operands in the order a plain (non-race) build of sweepGeneric does.
// Two cells per instruction; an odd interior width ends each row with
// one scalar cell.
TEXT ·sweepSSE2(SB), NOSPLIT, $0-64
	MOVQ     buf_base+0(FP), DI
	MOVQ     grid_base+24(FP), SI
	MOVQ     n+48(FP), DX
	MOVSD    alpha+56(FP), X6
	UNPCKLPD X6, X6             // X6 = {alpha, alpha}
	MOVSD    $4.0, X7
	UNPCKLPD X7, X7             // X7 = {4, 4}
	LEAQ     (DX*8), R8         // R8 = row stride in bytes
	LEAQ     -2(DX), R9         // R9 = interior width = interior rows
	TESTQ    R9, R9
	JLE      done
	MOVQ     R9, R11            // R11 = rows left
	ADDQ     R8, DI             // DI = buf row 1

row:
	// SI = up row, BX = this row, CX = down row, DI = out row.
	LEAQ  (SI)(R8*1), BX
	LEAQ  (BX)(R8*1), CX
	MOVSD (BX), X0
	MOVSD X0, (DI)
	MOVSD -8(BX)(R8*1), X0
	MOVSD X0, -8(DI)(R8*1)
	MOVQ  $8, AX                // AX = byte offset of cell j = 1
	MOVQ  R9, R10               // R10 = cells left in the row

pair:
	CMPQ   R10, $2
	JLT    tail
	MOVUPD (SI)(AX*1), X0       // up
	MOVUPD (CX)(AX*1), X1
	ADDPD  X1, X0               // up + down
	MOVUPD -8(BX)(AX*1), X1
	ADDPD  X1, X0               // + left
	MOVUPD 8(BX)(AX*1), X1
	ADDPD  X1, X0               // + right
	MOVUPD (BX)(AX*1), X2       // c
	MOVAPD X7, X3
	MULPD  X2, X3               // 4c
	SUBPD  X3, X0               // sum − 4c
	MULPD  X6, X0               // (sum − 4c)·alpha
	ADDPD  X0, X2               // c + product
	MOVUPD X2, (DI)(AX*1)
	ADDQ   $16, AX
	SUBQ   $2, R10
	JMP    pair

tail:
	TESTQ R10, R10
	JZ    next
	MOVSD (SI)(AX*1), X0
	ADDSD (CX)(AX*1), X0
	ADDSD -8(BX)(AX*1), X0
	ADDSD 8(BX)(AX*1), X0
	MOVSD (BX)(AX*1), X2
	MOVAPD X7, X3
	MULSD X2, X3
	SUBSD X3, X0
	MULSD X6, X0
	ADDSD X0, X2
	MOVSD X2, (DI)(AX*1)

next:
	MOVQ BX, SI                 // this row is the next one's up row
	ADDQ R8, DI
	DECQ R11
	JNZ  row

done:
	RET
