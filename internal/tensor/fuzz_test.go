package tensor

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// FuzzParseWorkers drives arbitrary strings through the worker-count
// parser. Invariants: never panics; a nil error implies a strictly
// positive count; and any accepted value round-trips through its decimal
// rendering to the same count.
func FuzzParseWorkers(f *testing.F) {
	for _, s := range []string{"1", "8", " 16 ", "0", "-3", "", "abc", "1e3", "+7", "0x10", "999999999999999999999"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		n, err := ParseWorkers(s)
		if err != nil {
			if n != 0 {
				t.Fatalf("ParseWorkers(%q): error with nonzero count %d", s, n)
			}
			return
		}
		if n <= 0 {
			t.Fatalf("ParseWorkers(%q) accepted non-positive count %d", s, n)
		}
		rt, err := ParseWorkers(strconv.Itoa(n))
		if err != nil || rt != n {
			t.Fatalf("ParseWorkers(%q) = %d does not round-trip: got %d, err %v", s, n, rt, err)
		}
	})
}

// FuzzMatMulTransB drives small random shapes through the inference GEMM.
// Invariants: the kernel this CPU takes agrees with the portable kernel
// within 1e-12 of Σ|a_k·b_k| per element, and every row of the batch
// product is bitwise equal to that row multiplied alone.
func FuzzMatMulTransB(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(1), uint8(1))
	f.Add(int64(2), uint8(3), uint8(0), uint8(5))
	f.Add(int64(3), uint8(5), uint8(7), uint8(9))
	f.Add(int64(4), uint8(2), uint8(128), uint8(32))
	f.Fuzz(func(t *testing.T, seed int64, rows, k, n uint8) {
		R, K, N := int(rows%8)+1, int(k%140), int(n%40)
		rng := rand.New(rand.NewSource(seed))
		a := randMatrix(rng, R, K)
		b := randMatrix(rng, N, K)
		got := NewMatrix(R, N)
		portable := NewMatrix(R, N)
		MatMulTransB(got, a, b)
		matMulTransBRangeGo(portable, a, b, 0, R)
		for i := 0; i < R; i++ {
			for j := 0; j < N; j++ {
				var scale float64
				for kk, v := range a.Row(i) {
					scale += math.Abs(v * b.At(j, kk))
				}
				if d := math.Abs(got.At(i, j) - portable.At(i, j)); d > 1e-12*scale {
					t.Fatalf("%dx%dx%d (%d,%d): |kernel-portable| %g > 1e-12·%g", R, K, N, i, j, d, scale)
				}
			}
		}
		single := NewMatrix(1, N)
		for i := 0; i < R; i++ {
			MatMulTransB(single, &Matrix{Rows: 1, Cols: K, Data: a.Row(i)}, b)
			for j, v := range single.Data {
				if math.Float64bits(v) != math.Float64bits(got.At(i, j)) {
					t.Fatalf("%dx%dx%d row %d col %d: batch %v, alone %v", R, K, N, i, j, got.At(i, j), v)
				}
			}
		}
	})
}
