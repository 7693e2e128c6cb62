package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// kernelShapes covers every tile/fringe case of the blocked kernels: unit,
// primes (no dimension a multiple of the unroll widths), non-multiple-of-4
// column counts, tall, wide, and panel-boundary sizes straddling gemmBlockK
// and gemmBlockJ.
var kernelShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 4, 1},
	{2, 3, 5},
	{7, 11, 13},
	{3, 17, 6},
	{5, 8, 9},   // n ≡ 1 (mod 4)
	{5, 8, 10},  // n ≡ 2 (mod 4)
	{5, 8, 11},  // n ≡ 3 (mod 4)
	{4, 5, 12},  // odd K for the TransB pair loop
	{64, 1, 64}, // degenerate depth
	{1, 64, 64},
	{200, 3, 2}, // tall
	{2, 3, 200}, // wide
	{6, 130, 7}, // K straddles gemmBlockK
	{6, 256, 9}, // K = 2 panels exactly
	{3, 5, 300}, // N straddles gemmBlockJ
	{33, 129, 257},
}

const kernelTol = 1e-9

func randMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func maxAbsDiff(a, b []float64) float64 {
	var d float64
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

// TestKernelMatMulMatchesNaive validates the tiled kernels against the
// naive references at 1e-9 over every tile/fringe shape, for both the
// serial path and a forced multi-worker pool.
func TestKernelMatMulMatchesNaive(t *testing.T) {
	defer SetPoolSize(0)
	for _, workers := range []int{1, 4} {
		SetPoolSize(workers)
		for _, s := range kernelShapes {
			t.Run(fmt.Sprintf("w%d/%dx%dx%d", workers, s.m, s.k, s.n), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(s.m*1000 + s.k*100 + s.n)))
				a := randMatrix(rng, s.m, s.k)
				b := randMatrix(rng, s.k, s.n)
				bt := randMatrix(rng, s.n, s.k)

				got := NewMatrix(s.m, s.n)
				want := NewMatrix(s.m, s.n)
				MatMul(got, a, b)
				NaiveMatMul(want, a, b)
				if d := maxAbsDiff(got.Data, want.Data); d > kernelTol {
					t.Errorf("MatMul max-abs-diff %g > %g", d, kernelTol)
				}

				MatMulTransB(got, a, bt)
				NaiveMatMulTransB(want, a, bt)
				if d := maxAbsDiff(got.Data, want.Data); d > kernelTol {
					t.Errorf("MatMulTransB max-abs-diff %g > %g", d, kernelTol)
				}

				// aᵀ·b with a as the k×m operand.
				at := randMatrix(rng, s.k, s.m)
				MatMulTransA(got, at, b)
				NaiveMatMulTransA(want, at, b)
				if d := maxAbsDiff(got.Data, want.Data); d > kernelTol {
					t.Errorf("MatMulTransA max-abs-diff %g > %g", d, kernelTol)
				}
			})
		}
	}
}

// TestKernelSparseMatchesDense checks the explicit sparse entry points
// against the naive references on ReLU-style half-zero operands.
func TestKernelSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, s := range kernelShapes {
		a := randMatrix(rng, s.m, s.k)
		for i := range a.Data {
			if rng.Intn(2) == 0 {
				a.Data[i] = 0
			}
		}
		b := randMatrix(rng, s.k, s.n)
		got := NewMatrix(s.m, s.n)
		want := NewMatrix(s.m, s.n)
		MatMulSparseA(got, a, b)
		NaiveMatMul(want, a, b)
		if d := maxAbsDiff(got.Data, want.Data); d > kernelTol {
			t.Errorf("MatMulSparseA %dx%dx%d max-abs-diff %g", s.m, s.k, s.n, d)
		}

		at := randMatrix(rng, s.k, s.m)
		for i := range at.Data {
			if rng.Intn(2) == 0 {
				at.Data[i] = 0
			}
		}
		MatMulTransASparse(got, at, b)
		NaiveMatMulTransA(want, at, b)
		if d := maxAbsDiff(got.Data, want.Data); d > kernelTol {
			t.Errorf("MatMulTransASparse %dx%dx%d max-abs-diff %g", s.m, s.k, s.n, d)
		}
	}
}

// TestKernelVectorOpsMatchNaive validates the unrolled vector kernels at
// awkward lengths (0..9, 63, 64, 65, 127).
func TestKernelVectorOpsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 127}
	for _, n := range lengths {
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		if d := math.Abs(Dot(x, y) - NaiveDot(x, y)); d > kernelTol {
			t.Errorf("Dot len %d diff %g", n, d)
		}
		var wantSum float64
		for _, v := range x {
			wantSum += v
		}
		if d := math.Abs(Sum(x) - wantSum); d > kernelTol {
			t.Errorf("Sum len %d diff %g", n, d)
		}
		wantAxpy := append([]float64(nil), y...)
		for i := range wantAxpy {
			wantAxpy[i] += 0.5 * x[i]
		}
		gotAxpy := append([]float64(nil), y...)
		Axpy(0.5, x, gotAxpy)
		if n > 0 && maxAbsDiff(gotAxpy, wantAxpy) > kernelTol {
			t.Errorf("Axpy len %d diverged", n)
		}
		gotAdd := append([]float64(nil), y...)
		AddTo(gotAdd, x)
		for i := range gotAdd {
			if gotAdd[i] != y[i]+x[i] {
				t.Errorf("AddTo len %d index %d", n, i)
			}
		}
		gotScale := append([]float64(nil), x...)
		Scale(1.25, gotScale)
		for i := range gotScale {
			if gotScale[i] != 1.25*x[i] {
				t.Errorf("Scale len %d index %d", n, i)
			}
		}
	}
}

// TestKernelRowInvariance asserts the bitwise contract that makes batching
// and row-block parallelism unobservable: row i of a B-row batch equals the
// 1-row product of that row alone, exactly, for every kernel and for both
// serial and pooled execution.
func TestKernelRowInvariance(t *testing.T) {
	defer SetPoolSize(0)
	rng := rand.New(rand.NewSource(13))
	const rows, k, n = 37, 29, 23
	a := randMatrix(rng, rows, k)
	b := randMatrix(rng, k, n)
	bt := randMatrix(rng, n, k)
	for _, workers := range []int{1, 4} {
		SetPoolSize(workers)
		batch := NewMatrix(rows, n)
		MatMul(batch, a, b)
		batchT := NewMatrix(rows, n)
		MatMulTransB(batchT, a, bt)
		single := NewMatrix(1, n)
		arow := &Matrix{Rows: 1, Cols: k}
		for i := 0; i < rows; i++ {
			arow.Data = a.Row(i)
			MatMul(single, arow, b)
			for j := 0; j < n; j++ {
				if single.Data[j] != batch.At(i, j) {
					t.Fatalf("w%d MatMul row %d col %d: batch not bitwise equal to single row", workers, i, j)
				}
			}
			MatMulTransB(single, arow, bt)
			for j := 0; j < n; j++ {
				if single.Data[j] != batchT.At(i, j) {
					t.Fatalf("w%d MatMulTransB row %d col %d: batch not bitwise equal to single row", workers, i, j)
				}
			}
		}
	}
}

// TestKernelPoolSerialBitwiseEqual asserts pooled and serial runs of the
// same large multiply agree bitwise (row partitioning never changes any
// row's arithmetic).
func TestKernelPoolSerialBitwiseEqual(t *testing.T) {
	defer SetPoolSize(0)
	rng := rand.New(rand.NewSource(17))
	// Large enough to cross parallelFLOPs: 2·160·160·90 ≈ 4.6M.
	a := randMatrix(rng, 160, 90)
	b := randMatrix(rng, 90, 160)
	bt := randMatrix(rng, 160, 90)
	serialM := NewMatrix(160, 160)
	serialT := NewMatrix(160, 160)
	SetPoolSize(1)
	MatMul(serialM, a, b)
	MatMulTransB(serialT, a, bt)
	SetPoolSize(4)
	pooledM := NewMatrix(160, 160)
	pooledT := NewMatrix(160, 160)
	MatMul(pooledM, a, b)
	MatMulTransB(pooledT, a, bt)
	for i := range serialM.Data {
		if serialM.Data[i] != pooledM.Data[i] {
			t.Fatalf("MatMul: pooled differs from serial at %d", i)
		}
		if serialT.Data[i] != pooledT.Data[i] {
			t.Fatalf("MatMulTransB: pooled differs from serial at %d", i)
		}
	}
}

// TestKernelNoAllocsSerial locks in the allocation-free serial path for the
// inference-sized shapes (this is what keeps the estimate path at ≤2
// allocs).
func TestKernelNoAllocsSerial(t *testing.T) {
	defer SetPoolSize(0)
	SetPoolSize(4) // even with a live pool, sub-threshold ops must not allocate
	a := NewMatrix(8, 64)
	b := NewMatrix(64, 32)
	bt := NewMatrix(32, 64)
	o := NewMatrix(8, 32)
	if n := testing.AllocsPerRun(100, func() { MatMul(o, a, b) }); n > 0 {
		t.Errorf("MatMul allocates %.1f/op on the serial path", n)
	}
	if n := testing.AllocsPerRun(100, func() { MatMulTransB(o, a, bt) }); n > 0 {
		t.Errorf("MatMulTransB allocates %.1f/op on the serial path", n)
	}
	at := NewMatrix(64, 8)
	if n := testing.AllocsPerRun(100, func() { MatMulTransA(o, at, b) }); n > 0 {
		t.Errorf("MatMulTransA allocates %.1f/op on the serial path", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = Dot(a.Data, a.Data) }); n > 0 {
		t.Errorf("Dot allocates %.1f/op", n)
	}
}

func benchGEMM(b *testing.B, dim int, workers int, fn func(out, x, y *Matrix)) {
	b.Helper()
	defer SetPoolSize(0)
	SetPoolSize(workers)
	rng := rand.New(rand.NewSource(1))
	x := randMatrix(rng, dim, dim)
	y := randMatrix(rng, dim, dim)
	out := NewMatrix(dim, dim)
	b.SetBytes(int64(8 * dim * dim))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(out, x, y)
	}
	flops := 2 * float64(dim) * float64(dim) * float64(dim)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e6, "MFLOPS")
}

// defaultWorkers is EnvWorkers for benchmarks, which have no error channel.
func defaultWorkers() int {
	n, _ := EnvWorkers()
	return n
}

func BenchmarkGEMMNaive256(b *testing.B)       { benchGEMM(b, 256, 1, NaiveMatMul) }
func BenchmarkGEMMTiled256(b *testing.B)       { benchGEMM(b, 256, 1, MatMul) }
func BenchmarkGEMMTiledPool256(b *testing.B)   { benchGEMM(b, 256, defaultWorkers(), MatMul) }
func BenchmarkGEMMNaive512(b *testing.B)       { benchGEMM(b, 512, 1, NaiveMatMul) }
func BenchmarkGEMMTiled512(b *testing.B)       { benchGEMM(b, 512, 1, MatMul) }
func BenchmarkGEMMTiledPool512(b *testing.B)   { benchGEMM(b, 512, defaultWorkers(), MatMul) }
func BenchmarkGEMMTransBNaive256(b *testing.B) { benchGEMM(b, 256, 1, NaiveMatMulTransB) }
func BenchmarkGEMMTransBTiled256(b *testing.B) { benchGEMM(b, 256, 1, MatMulTransB) }
func BenchmarkGEMMTransANaive256(b *testing.B) { benchGEMM(b, 256, 1, NaiveMatMulTransA) }
func BenchmarkGEMMTransATiled256(b *testing.B) { benchGEMM(b, 256, 1, MatMulTransA) }

// fmaContractDot is the FMA kernel's numeric contract in scalar Go: four
// math.FMA lanes over k < K&^3 (lane l takes k ≡ l mod 4), reduced as
// (l0+l2)+(l1+l3), then the K mod 4 tail fused in in index order.
func fmaContractDot(a, b []float64) float64 {
	var l [4]float64
	k4 := len(a) &^ 3
	for k := 0; k < k4; k++ {
		l[k%4] = math.FMA(a[k], b[k], l[k%4])
	}
	s := (l[0] + l[2]) + (l[1] + l[3])
	for k := k4; k < len(a); k++ {
		s = math.FMA(a[k], b[k], s)
	}
	return s
}

// TestKernelSIMDMatchesPortable checks the AVX2+FMA kernel bit for bit
// against its scalar contract, within 1e-12 relative of the portable
// kernel (relative to Σ|a_k·b_k|, the scale rounding error is bounded by),
// and within kernelTol of the naive reference, over every lane/tail case
// of K, every block/fringe case of n, and 1–5 rows.
func TestKernelSIMDMatchesPortable(t *testing.T) {
	if !useFMA {
		t.Skip("CPU lacks AVX2/FMA: the portable kernel is the only path")
	}
	rng := rand.New(rand.NewSource(19))
	for _, K := range []int{0, 1, 2, 3, 4, 5, 7, 11, 16, 128} {
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 32} {
			for rows := 1; rows <= 5; rows++ {
				a := randMatrix(rng, rows, K)
				b := randMatrix(rng, n, K)
				simd := NewMatrix(rows, n)
				portable := NewMatrix(rows, n)
				naive := NewMatrix(rows, n)
				for i := range simd.Data {
					simd.Data[i] = math.NaN() // every element must be written
				}
				matMulTransBRangeFMA(simd, a, b, 0, rows)
				matMulTransBRangeGo(portable, a, b, 0, rows)
				NaiveMatMulTransB(naive, a, b)
				for i := 0; i < rows; i++ {
					for j := 0; j < n; j++ {
						ar, br := a.Row(i), b.Row(j)
						got := simd.At(i, j)
						if want := fmaContractDot(ar, br); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("K=%d n=%d rows=%d (%d,%d): %v, contract says %v", K, n, rows, i, j, got, want)
						}
						var scale float64
						for k := range ar {
							scale += math.Abs(ar[k] * br[k])
						}
						if d := math.Abs(got - portable.At(i, j)); d > 1e-12*scale {
							t.Fatalf("K=%d n=%d rows=%d (%d,%d): |simd-portable| %g > 1e-12·%g", K, n, rows, i, j, d, scale)
						}
						if d := math.Abs(got - naive.At(i, j)); d > kernelTol {
							t.Fatalf("K=%d n=%d rows=%d (%d,%d): |simd-naive| %g > %g", K, n, rows, i, j, d, kernelTol)
						}
					}
				}
			}
		}
	}
}

// TestKernelTransBShortDataPanics checks that MatMulTransB rejects an
// operand whose Data is shorter than Rows·Cols before any kernel writes a
// single output element.
func TestKernelTransBShortDataPanics(t *testing.T) {
	const rows, k, n = 3, 6, 5
	for _, short := range []string{"out", "a", "b"} {
		t.Run(short, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			a := randMatrix(rng, rows, k)
			b := randMatrix(rng, n, k)
			out := NewMatrix(rows, n)
			for i := range out.Data {
				out.Data[i] = -1
			}
			switch short {
			case "out":
				out.Data = out.Data[:len(out.Data)-1]
			case "a":
				a.Data = a.Data[:len(a.Data)-1]
			case "b":
				b.Data = b.Data[:len(b.Data)-1]
			}
			defer func() {
				if recover() == nil {
					t.Fatalf("short %s.Data did not panic", short)
				}
				for i, v := range out.Data {
					if v != -1 {
						t.Fatalf("out[%d] written before the panic", i)
					}
				}
			}()
			MatMulTransB(out, a, b)
		})
	}
}

var sinkMatrix *Matrix

// BenchmarkKernelTransBShapes times the inference GEMM on the model's
// layer shapes, for the kernel this CPU takes and for the portable one,
// and reports ns per multiply-add.
func BenchmarkKernelTransBShapes(b *testing.B) {
	shapes := []struct {
		name          string
		rows, k, cols int
	}{
		{"dense128x32", 64, 128, 32},
		{"dense32x32", 64, 32, 32},
		{"dense12x16", 64, 12, 16},
		{"conv8x12x11", 8, 12, 11},
	}
	kernels := []struct {
		name string
		fn   func(out, a, b *Matrix, i0, i1 int)
	}{{"dispatch", matMulTransBRange}, {"portable", matMulTransBRangeGo}}
	rng := rand.New(rand.NewSource(1))
	for _, s := range shapes {
		x := randMatrix(rng, s.rows, s.k)
		w := randMatrix(rng, s.cols, s.k)
		out := NewMatrix(s.rows, s.cols)
		for _, kn := range kernels {
			b.Run(s.name+"/"+kn.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					kn.fn(out, x, w, 0, s.rows)
				}
				sinkMatrix = out
				madds := float64(b.N) * float64(s.rows*s.k*s.cols)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/madds, "ns/madd")
			})
		}
	}
}
