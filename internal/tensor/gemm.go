package tensor

import (
	"fmt"
	"runtime"
)

// GEMM kernels: cache-blocked, register-tiled matrix multiplies. Three
// properties shape the implementation (DESIGN.md §9):
//
//  1. Row invariance. Every output row is computed by arithmetic that
//     depends only on the operand widths (K, N), never on the number of
//     rows or on how a row range was partitioned. Column-lane assignment
//     (which j's go through the 4-wide micro-kernel vs the fringe) depends
//     only on N, and the k-summation order depends only on K. This is what
//     keeps the batched estimate path bitwise identical to the serial one
//     (DESIGN.md §7) even though both now run tiled — and it makes row-block
//     parallelism numerically free.
//
//  2. Multi-accumulator unrolling. The innermost loops carry 4–8
//     independent accumulators so the add chains pipeline instead of
//     serializing on FP latency. The resulting sums are NOT bitwise
//     identical to the seed's single-accumulator loops; kernels are
//     validated against the retained naive references (naive.go) at 1e-9
//     max-abs-diff.
//
//  3. One parallelism budget. Above parallelFLOPs the row range is split
//     into contiguous blocks on the package pool (pool.go) — the same pool
//     the model layer's batched serving path uses — and below it the kernel
//     runs inline with zero allocations.
const (
	// gemmBlockK is the k-panel height: the number of B rows kept hot while
	// one stripe of output rows accumulates.
	gemmBlockK = 128
	// gemmBlockJ is the j-panel width. A full panel is
	// gemmBlockK×gemmBlockJ×8 bytes = 256 KiB — sized for L2.
	gemmBlockJ = 256
	// parallelFLOPs is the 2·M·N·K threshold above which GEMM dispatches
	// row blocks onto the pool. Below it (every single-estimate inference
	// shape) the kernel runs inline and allocation-free. At 8 MFLOP the
	// crossover sits above 256³ minus a panel — dispatch overhead beat the
	// speedup there on the tracked benchmark host.
	parallelFLOPs = 8 << 20
	// gemmMinBlockRows is the coarsest row-block grain: a split never
	// produces blocks shorter than this, so per-task dispatch overhead is
	// amortized over at least 64 output rows of panel-blocked work.
	gemmMinBlockRows = 64
)

// MatMul computes out = a × b. out must be a.Rows × b.Cols and distinct
// from a and b.
func MatMul(out, a, b *Matrix) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmul shape mismatch (%dx%d)·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	if !gemmParallel(a.Rows, b.Cols, a.Cols) {
		matMulRange(out, a, b, 0, a.Rows)
		return
	}
	matMulPar(*out, *a, *b)
}

// matMulPar takes the matrix headers by value so that MatMul's pointer
// arguments never escape: the closure captures these stack copies (the
// shared Data arrays are already on the heap), keeping small serial
// multiplies — the whole inference path — allocation-free.
func matMulPar(out, a, b Matrix) {
	gemmSplit(a.Rows, func(i0, i1 int) {
		matMulRange(&out, &a, &b, i0, i1)
	})
}

// MatMulTransB computes out = a × bᵀ. out must be a.Rows × b.Rows.
func MatMulTransB(out, a, b *Matrix) {
	if a.Cols != b.Cols || out.Rows != a.Rows || out.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmulTB shape mismatch (%dx%d)·(%dx%d)ᵀ->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	checkData("matmulTB out", out)
	checkData("matmulTB a", a)
	checkData("matmulTB b", b)
	if !gemmParallel(a.Rows, b.Rows, a.Cols) {
		matMulTransBRange(out, a, b, 0, a.Rows)
		return
	}
	matMulTransBPar(*out, *a, *b)
}

// checkData panics unless m.Data holds all Rows·Cols elements. MatMulTransB
// checks every operand before any kernel runs, so a short slice fails
// cleanly instead of handing the FMA kernel memory it does not own.
func checkData(what string, m *Matrix) {
	if len(m.Data) < m.Rows*m.Cols {
		panic(fmt.Sprintf("tensor: %s data length %d < %dx%d", what, len(m.Data), m.Rows, m.Cols))
	}
}

// matMulTransBPar: see matMulPar for why the headers pass by value.
func matMulTransBPar(out, a, b Matrix) {
	gemmSplit(a.Rows, func(i0, i1 int) {
		matMulTransBRange(&out, &a, &b, i0, i1)
	})
}

// MatMulTransA computes out = aᵀ × b. out must be a.Cols × b.Cols.
func MatMulTransA(out, a, b *Matrix) {
	if a.Rows != b.Rows || out.Rows != a.Cols || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulTA shape mismatch (%dx%d)ᵀ·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	if !gemmParallel(a.Cols, b.Cols, a.Rows) {
		matMulTransARange(out, a, b, 0, a.Cols)
		return
	}
	matMulTransAPar(*out, *a, *b)
}

// matMulTransAPar: see matMulPar for why the headers pass by value.
func matMulTransAPar(out, a, b Matrix) {
	gemmSplit(a.Cols, func(i0, i1 int) {
		matMulTransARange(&out, &a, &b, i0, i1)
	})
}

// gemmParallel reports whether a rows×cols×depth GEMM should be split
// across the pool. The entry points keep the serial call direct (no
// closure, so small multiplies — every single-estimate inference shape —
// stay allocation-free) and only build a range closure when this returns
// true.
func gemmParallel(rows, cols, depth int) bool {
	if rows <= 1 || 2*rows*cols*depth < parallelFLOPs {
		return false
	}
	// gemmParallelism reads GOMAXPROCS under the scheduler lock, so it comes
	// after the threshold that every inference-sized product fails.
	return gemmParallelism() > 1
}

// gemmParallelism is the effective GEMM task-count cap: pool workers, but
// never more than GOMAXPROCS. A pool sized above the machine's usable
// cores (SIMQUERY_WORKERS on a constrained host, or a container quota
// below the configured size) cannot run its workers concurrently, so
// splitting that wide only adds dispatch overhead — most visibly on a
// single-core host, where it disables pool dispatch entirely.
func gemmParallelism() int {
	return min(DefaultPool().Workers(), runtime.GOMAXPROCS(0))
}

// gemmSplit partitions the output-row range [0, rows) into contiguous
// blocks claimed from the package pool, at least gemmMinBlockRows tall.
// Because every kernel is row-invariant, the split is unobservable in the
// results.
func gemmSplit(rows int, kernel func(i0, i1 int)) {
	p := DefaultPool()
	tasks := min(gemmParallelism(), (rows+gemmMinBlockRows-1)/gemmMinBlockRows)
	if tasks < 1 {
		tasks = 1
	}
	chunk := (rows + tasks - 1) / tasks
	p.Do(tasks, func(t int) {
		i0 := t * chunk
		i1 := min(i0+chunk, rows)
		if i0 < i1 {
			kernel(i0, i1)
		}
	})
}

// matMulRange computes rows [i0, i1) of out = a × b. Loop order is
// (k-panel, j-panel, row): the gemmBlockK×gemmBlockJ panel of b stays hot
// in cache while every row of the range streams over it. The micro-kernel
// is 2 rows × 4 k-steps: the four b loads per j are shared across both
// output rows (halving b bandwidth) and each output element folds 4
// multiply-adds per load/store. Per-row arithmetic is identical in the
// paired and single-row paths — each row keeps its own accumulation in the
// same k-order — so odd ranges, fringe rows, and any row partition produce
// bitwise-identical rows (the row-invariance contract).
func matMulRange(out, a, b *Matrix, i0, i1 int) {
	K := a.Cols
	n := out.Cols
	for i := i0; i < i1; i++ {
		row := out.Data[i*n:][:n]
		for j := range row {
			row[j] = 0
		}
	}
	for kk := 0; kk < K; kk += gemmBlockK {
		kmax := min(kk+gemmBlockK, K)
		for jj := 0; jj < n; jj += gemmBlockJ {
			w := min(jj+gemmBlockJ, n) - jj
			i := i0
			for ; i+2 <= i1; i += 2 {
				arow0 := a.Data[i*K:][:K]
				arow1 := a.Data[(i+1)*K:][:K]
				orow0 := out.Data[i*n+jj:][:w]
				orow1 := out.Data[(i+1)*n+jj:][:w]
				k := kk
				for ; k+4 <= kmax; k += 4 {
					x0, x1, x2, x3 := arow0[k], arow0[k+1], arow0[k+2], arow0[k+3]
					y0, y1, y2, y3 := arow1[k], arow1[k+1], arow1[k+2], arow1[k+3]
					b0 := b.Data[k*n+jj:][:w]
					b1 := b.Data[(k+1)*n+jj:][:w]
					b2 := b.Data[(k+2)*n+jj:][:w]
					b3 := b.Data[(k+3)*n+jj:][:w]
					for j := 0; j < w; j++ {
						v0, v1, v2, v3 := b0[j], b1[j], b2[j], b3[j]
						orow0[j] += x0*v0 + x1*v1 + x2*v2 + x3*v3
						orow1[j] += y0*v0 + y1*v1 + y2*v2 + y3*v3
					}
				}
				for ; k < kmax; k++ {
					x, y := arow0[k], arow1[k]
					brow := b.Data[k*n+jj:][:w]
					for j := 0; j < w; j++ {
						orow0[j] += x * brow[j]
						orow1[j] += y * brow[j]
					}
				}
			}
			for ; i < i1; i++ {
				arow := a.Data[i*K:][:K]
				orow := out.Data[i*n+jj:][:w]
				k := kk
				for ; k+4 <= kmax; k += 4 {
					a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
					b0 := b.Data[k*n+jj:][:w]
					b1 := b.Data[(k+1)*n+jj:][:w]
					b2 := b.Data[(k+2)*n+jj:][:w]
					b3 := b.Data[(k+3)*n+jj:][:w]
					for j := 0; j < w; j++ {
						orow[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
					}
				}
				for ; k < kmax; k++ {
					av := arow[k]
					brow := b.Data[k*n+jj:][:w]
					for j := 0; j < w; j++ {
						orow[j] += av * brow[j]
					}
				}
			}
		}
	}
}

// matMulTransBRange computes rows [i0, i1) of out = a × bᵀ — the inference
// hot path (Dense runs x·Wᵀ, the lowered Conv1D W·colsᵀ). It takes the
// AVX2+FMA kernel when the CPU has one and the portable kernel otherwise;
// the choice is fixed per process, so row invariance holds either way.
func matMulTransBRange(out, a, b *Matrix, i0, i1 int) {
	if useFMA {
		matMulTransBRangeFMA(out, a, b, i0, i1)
		return
	}
	matMulTransBRangeGo(out, a, b, i0, i1)
}

// matMulTransBRangeFMA runs fmaRowTransB once per output row. The slicing
// bounds-checks every row of a and out and all of b before a pointer
// reaches the assembly, which then reads and writes only inside them.
func matMulTransBRangeFMA(out, a, b *Matrix, i0, i1 int) {
	K := a.Cols
	n := out.Cols
	if n == 0 {
		return
	}
	if K == 0 {
		clear(out.Data[i0*n : i1*n])
		return
	}
	bd := b.Data[:n*K]
	for i := i0; i < i1; i++ {
		arow := a.Data[i*K:][:K]
		orow := out.Data[i*n:][:n]
		fmaRowTransB(&orow[0], &arow[0], &bd[0], K, n)
	}
}

// matMulTransBRangeGo is the portable kernel: the only one off amd64 or
// without AVX2+FMA, and the reference the FMA kernel is tested against.
// Four rows of b are reduced at once against one row of a with two
// accumulators per output (8 independent FP chains), and the column fringe
// uses dot2, whose summation order matches one micro-kernel lane exactly —
// so an element's value never depends on which lane computed it.
func matMulTransBRangeGo(out, a, b *Matrix, i0, i1 int) {
	K := a.Cols
	n := out.Cols
	for i := i0; i < i1; i++ {
		arow := a.Data[i*K:][:K]
		orow := out.Data[i*n:][:n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b.Data[j*K:][:K]
			b1 := b.Data[(j+1)*K:][:K]
			b2 := b.Data[(j+2)*K:][:K]
			b3 := b.Data[(j+3)*K:][:K]
			var s0a, s0b, s1a, s1b, s2a, s2b, s3a, s3b float64
			k := 0
			for ; k+2 <= K; k += 2 {
				av0, av1 := arow[k], arow[k+1]
				s0a += av0 * b0[k]
				s0b += av1 * b0[k+1]
				s1a += av0 * b1[k]
				s1b += av1 * b1[k+1]
				s2a += av0 * b2[k]
				s2b += av1 * b2[k+1]
				s3a += av0 * b3[k]
				s3b += av1 * b3[k+1]
			}
			if k < K {
				av := arow[k]
				s0a += av * b0[k]
				s1a += av * b1[k]
				s2a += av * b2[k]
				s3a += av * b3[k]
			}
			orow[j] = s0a + s0b
			orow[j+1] = s1a + s1b
			orow[j+2] = s2a + s2b
			orow[j+3] = s3a + s3b
		}
		for ; j < n; j++ {
			orow[j] = dot2(arow, b.Data[j*K:][:K])
		}
	}
}

// dot2 is the two-accumulator inner product whose summation order is
// bitwise identical to a single lane of the matMulTransBRange micro-kernel.
// It exists so fringe columns (n mod 4) agree exactly with tiled columns.
func dot2(a, b []float64) float64 {
	b = b[:len(a)]
	var sa, sb float64
	k := 0
	for ; k+2 <= len(a); k += 2 {
		sa += a[k] * b[k]
		sb += a[k+1] * b[k+1]
	}
	if k < len(a) {
		sa += a[k] * b[k]
	}
	return sa + sb
}

// matMulTransARange computes rows [i0, i1) of out = aᵀ × b (out rows index
// a's columns). Same panel structure and 2×4 micro-kernel as matMulRange;
// the a loads are column-strided, and pairing output rows i, i+1 makes each
// strided load fetch two adjacent elements from one cache line.
func matMulTransARange(out, a, b *Matrix, i0, i1 int) {
	K := a.Rows
	ac := a.Cols
	n := out.Cols
	for i := i0; i < i1; i++ {
		row := out.Data[i*n:][:n]
		for j := range row {
			row[j] = 0
		}
	}
	for kk := 0; kk < K; kk += gemmBlockK {
		kmax := min(kk+gemmBlockK, K)
		for jj := 0; jj < n; jj += gemmBlockJ {
			w := min(jj+gemmBlockJ, n) - jj
			i := i0
			for ; i+2 <= i1; i += 2 {
				orow0 := out.Data[i*n+jj:][:w]
				orow1 := out.Data[(i+1)*n+jj:][:w]
				k := kk
				for ; k+4 <= kmax; k += 4 {
					x0, y0 := a.Data[k*ac+i], a.Data[k*ac+i+1]
					x1, y1 := a.Data[(k+1)*ac+i], a.Data[(k+1)*ac+i+1]
					x2, y2 := a.Data[(k+2)*ac+i], a.Data[(k+2)*ac+i+1]
					x3, y3 := a.Data[(k+3)*ac+i], a.Data[(k+3)*ac+i+1]
					b0 := b.Data[k*n+jj:][:w]
					b1 := b.Data[(k+1)*n+jj:][:w]
					b2 := b.Data[(k+2)*n+jj:][:w]
					b3 := b.Data[(k+3)*n+jj:][:w]
					for j := 0; j < w; j++ {
						v0, v1, v2, v3 := b0[j], b1[j], b2[j], b3[j]
						orow0[j] += x0*v0 + x1*v1 + x2*v2 + x3*v3
						orow1[j] += y0*v0 + y1*v1 + y2*v2 + y3*v3
					}
				}
				for ; k < kmax; k++ {
					x, y := a.Data[k*ac+i], a.Data[k*ac+i+1]
					brow := b.Data[k*n+jj:][:w]
					for j := 0; j < w; j++ {
						orow0[j] += x * brow[j]
						orow1[j] += y * brow[j]
					}
				}
			}
			for ; i < i1; i++ {
				orow := out.Data[i*n+jj:][:w]
				k := kk
				for ; k+4 <= kmax; k += 4 {
					a0 := a.Data[k*ac+i]
					a1 := a.Data[(k+1)*ac+i]
					a2 := a.Data[(k+2)*ac+i]
					a3 := a.Data[(k+3)*ac+i]
					b0 := b.Data[k*n+jj:][:w]
					b1 := b.Data[(k+1)*n+jj:][:w]
					b2 := b.Data[(k+2)*n+jj:][:w]
					b3 := b.Data[(k+3)*n+jj:][:w]
					for j := 0; j < w; j++ {
						orow[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
					}
				}
				for ; k < kmax; k++ {
					av := a.Data[k*ac+i]
					brow := b.Data[k*n+jj:][:w]
					for j := 0; j < w; j++ {
						orow[j] += av * brow[j]
					}
				}
			}
		}
	}
}
