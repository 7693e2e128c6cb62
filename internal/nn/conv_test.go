package nn

import (
	"math"
	"math/rand"
	"testing"

	"simquery/internal/tensor"
)

// naiveConv1D is the per-tap reference convolution: one Dot per (row,
// out-channel, position, in-channel) over the clipped window, the bias
// folded in first. It is the oracle the lowered im2col + GEMM kernel of
// Conv1D.apply is checked against.
func naiveConv1D(c *Conv1D, x *tensor.Matrix) *tensor.Matrix {
	l := c.inLen(x.Cols)
	outL := c.outLen(l)
	out := tensor.NewMatrix(x.Rows, c.OutChannels*outL)
	for n := 0; n < x.Rows; n++ {
		xr := x.Row(n)
		or := out.Row(n)
		for co := 0; co < c.OutChannels; co++ {
			for t := 0; t < outL; t++ {
				sum := c.B.W[co]
				base := t*c.Stride - c.Padding
				lo, hi := clipWindow(base, c.Kernel, l)
				if lo < hi {
					for ci := 0; ci < c.InChannels; ci++ {
						wofs := (co*c.InChannels + ci) * c.Kernel
						xofs := ci*l + base
						sum += tensor.Dot(c.W.W[wofs+lo:wofs+hi], xr[xofs+lo:xofs+hi])
					}
				}
				or[co*outL+t] = sum
			}
		}
	}
	return out
}

// TestConv1DMatchesNaive pins the lowered conv kernel, on both the
// inference and the training forward path, to the per-tap oracle within
// 1e-9 across the layer shapes the lowering special-cases, and checks that
// every row of a batch is bitwise the single-row result.
func TestConv1DMatchesNaive(t *testing.T) {
	cases := []struct {
		name                       string
		in, out, k, stride, pad, l int
	}{
		{"segment layer", 1, 8, 16, 16, 0, 128},
		{"segment layer ragged tail", 1, 4, 13, 13, 0, 100},
		{"merge layer", 8, 8, 2, 1, 0, 8},
		{"padding", 2, 3, 3, 2, 1, 9},
		{"wide padding", 3, 2, 4, 1, 3, 5},
		{"stride > kernel", 2, 5, 2, 3, 0, 11},
		{"stride < kernel", 1, 3, 5, 2, 0, 12},
		{"multi-channel", 4, 6, 3, 1, 1, 7},
		{"l < kernel", 2, 3, 6, 6, 0, 4},
		{"l < kernel padded", 1, 2, 8, 3, 1, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.l*31 + tc.k)))
			c := NewConv1D(rng, tc.in, tc.out, tc.k, tc.stride, tc.pad)
			for i := range c.B.W {
				c.B.W[i] = rng.NormFloat64()
			}
			x := randBatch(rng, 5, tc.in*tc.l)
			want := naiveConv1D(c, x)

			var s Scratch
			got := c.Infer(x, &s)
			if d := maxAbsDiff(got.Data, want.Data); d > 1e-9 {
				t.Fatalf("Infer differs from naive by %g", d)
			}
			if d := maxAbsDiff(c.Forward(x, true).Data, want.Data); d > 1e-9 {
				t.Fatalf("Forward(train) differs from naive by %g", d)
			}

			for n := 0; n < x.Rows; n++ {
				one := tensor.NewMatrix(1, x.Cols)
				copy(one.Row(0), x.Row(n))
				row := c.Infer(one, nil).Row(0)
				for j, v := range row {
					if v != got.At(n, j) {
						t.Fatalf("row %d col %d: single-row %v, batched %v", n, j, v, got.At(n, j))
					}
				}
			}
		})
	}
}

func maxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var d float64
	for i := range a {
		d = math.Max(d, math.Abs(a[i]-b[i]))
	}
	return d
}
