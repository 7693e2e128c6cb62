package nn

import (
	"fmt"
	"math/rand"

	"simquery/internal/tensor"
)

// Conv1D is a one-dimensional convolution over per-sample signals laid out
// channel-major: sample = [ch0 pos0..L−1, ch1 pos0..L−1, …].
//
// The paper's query-embedding network (Fig 3/Fig 7) is a stack of these:
// the first layer, with kernel = stride = segment length, applies the shared
// per-segment distance-density function f(); deeper layers merge adjacent
// segment distributions, realizing g().
type Conv1D struct {
	InChannels  int
	OutChannels int
	Kernel      int
	Stride      int
	Padding     int

	W *Param // OutChannels × InChannels × Kernel
	B *Param // OutChannels

	lastX *tensor.Matrix
	lastL int // input length per channel of lastX
}

// NewConv1D builds the layer with He initialization.
func NewConv1D(rng *rand.Rand, inCh, outCh, kernel, stride, padding int) *Conv1D {
	if inCh <= 0 || outCh <= 0 || kernel <= 0 || stride <= 0 || padding < 0 {
		panic(fmt.Sprintf("nn: invalid conv1d config in=%d out=%d k=%d s=%d p=%d",
			inCh, outCh, kernel, stride, padding))
	}
	c := &Conv1D{
		InChannels:  inCh,
		OutChannels: outCh,
		Kernel:      kernel,
		Stride:      stride,
		Padding:     padding,
		W:           NewParam("conv1d.W", outCh*inCh*kernel),
		B:           NewParam("conv1d.B", outCh),
	}
	HeInit(rng, c.W.W, inCh*kernel)
	return c
}

// clipWindow returns the tap range [lo, hi) of a kernel window starting at
// base (possibly negative, from padding) that lands inside an input of
// length l, so inner loops run branch-free over contiguous slices.
func clipWindow(base, kernel, l int) (lo, hi int) {
	lo, hi = 0, kernel
	if base < 0 {
		lo = -base
	}
	if base+hi > l {
		hi = l - base
	}
	return lo, hi
}

// outLen reports the number of output positions for input length l.
func (c *Conv1D) outLen(l int) int {
	n := (l+2*c.Padding-c.Kernel)/c.Stride + 1
	if n < 1 {
		n = 1 // degenerate short input: single window over what exists
	}
	return n
}

// inLen recovers the per-channel length from the flat per-sample width.
func (c *Conv1D) inLen(cols int) int {
	if cols%c.InChannels != 0 {
		panic(fmt.Sprintf("nn: conv1d input width %d not divisible by %d channels", cols, c.InChannels))
	}
	return cols / c.InChannels
}

// Forward applies the convolution to the batch.
func (c *Conv1D) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if !train {
		return c.Infer(x, nil)
	}
	l := c.inLen(x.Cols)
	c.lastX = x
	c.lastL = l
	return c.apply(x, tensor.NewMatrix(x.Rows, c.OutChannels*c.outLen(l)), l, nil)
}

// Infer applies the convolution into scratch memory without touching layer
// state.
func (c *Conv1D) Infer(x *tensor.Matrix, scratch *Scratch) *tensor.Matrix {
	l := c.inLen(x.Cols)
	return c.apply(x, scratch.Matrix(x.Rows, c.OutChannels*c.outLen(l)), l, scratch)
}

// apply fills out with the convolution of x (per-channel length l), lowered
// per sample to one GEMM: out_n (OutCh × outL) = W (OutCh × InCh·K) ·
// colsᵀ, where row t of cols (outL × InCh·K) is the zero-padded input
// window of output position t (im2col). The channel-major output row is
// exactly that OutCh × outL matrix, and each row's arithmetic depends only
// on the layer shape, so the result is row-invariant across batch sizes.
func (c *Conv1D) apply(x, out *tensor.Matrix, l int, scratch *Scratch) *tensor.Matrix {
	outL := c.outLen(l)
	ck := c.InChannels * c.Kernel
	w := tensor.Matrix{Rows: c.OutChannels, Cols: ck, Data: c.W.W}
	// The segment layer (one channel, stride = kernel, no padding) tiles
	// the row with its windows, so the row itself is the cols matrix.
	direct := c.InChannels == 1 && c.Stride == c.Kernel && c.Padding == 0 && outL*c.Kernel <= l
	var cols *tensor.Matrix
	if !direct {
		// Taps outside the input are never written, so the zeroes Matrix
		// hands out stay in place across samples.
		cols = scratch.Matrix(outL, ck)
	}
	for n := 0; n < x.Rows; n++ {
		xr := x.Row(n)
		view := tensor.Matrix{Rows: outL, Cols: ck}
		if direct {
			view.Data = xr[:outL*ck]
		} else {
			c.im2col(cols, xr, l)
			view.Data = cols.Data
		}
		or := out.Row(n)
		o := tensor.Matrix{Rows: c.OutChannels, Cols: outL, Data: or}
		tensor.MatMulTransB(&o, &w, &view)
		for co, b := range c.B.W {
			row := or[co*outL : (co+1)*outL]
			for t := range row {
				row[t] += b
			}
		}
	}
	return out
}

// im2col copies the in-range taps of every output window of xr into the
// rows of cols, channel-major within a row to match W's layout.
func (c *Conv1D) im2col(cols *tensor.Matrix, xr []float64, l int) {
	for t := 0; t < cols.Rows; t++ {
		base := t*c.Stride - c.Padding
		lo, hi := clipWindow(base, c.Kernel, l)
		if lo >= hi {
			continue
		}
		cr := cols.Row(t)
		for ci := 0; ci < c.InChannels; ci++ {
			copy(cr[ci*c.Kernel+lo:ci*c.Kernel+hi], xr[ci*l+base+lo:ci*l+base+hi])
		}
	}
}

// Backward accumulates weight gradients and returns the input gradient.
func (c *Conv1D) Backward(grad *tensor.Matrix) *tensor.Matrix {
	if c.lastX == nil {
		panic("nn: conv1d Backward before Forward(train=true)")
	}
	x, l := c.lastX, c.lastL
	outL := c.outLen(l)
	dx := tensor.NewMatrix(x.Rows, x.Cols)
	for n := 0; n < x.Rows; n++ {
		xr := x.Row(n)
		gr := grad.Row(n)
		dxr := dx.Row(n)
		for co := 0; co < c.OutChannels; co++ {
			for t := 0; t < outL; t++ {
				g := gr[co*outL+t]
				if g == 0 {
					continue
				}
				c.B.Grad[co] += g
				base := t*c.Stride - c.Padding
				lo, hi := clipWindow(base, c.Kernel, l)
				if lo >= hi {
					continue
				}
				for ci := 0; ci < c.InChannels; ci++ {
					wofs := (co*c.InChannels + ci) * c.Kernel
					xofs := ci*l + base
					tensor.Axpy(g, xr[xofs+lo:xofs+hi], c.W.Grad[wofs+lo:wofs+hi])
					tensor.Axpy(g, c.W.W[wofs+lo:wofs+hi], dxr[xofs+lo:xofs+hi])
				}
			}
		}
	}
	return dx
}

// Params returns the kernel and bias parameters.
func (c *Conv1D) Params() []*Param { return []*Param{c.W, c.B} }

// OutDim reports the flat output width for a flat input width.
func (c *Conv1D) OutDim(inDim int) int {
	return c.OutChannels * c.outLen(c.inLen(inDim))
}

// Spec serializes the layer.
func (c *Conv1D) Spec() LayerSpec {
	return LayerSpec{
		Kind: "conv1d",
		Ints: map[string]int{
			"in": c.InChannels, "out": c.OutChannels,
			"kernel": c.Kernel, "stride": c.Stride, "padding": c.Padding,
		},
		Floats: map[string][]float64{"W": append([]float64(nil), c.W.W...), "B": append([]float64(nil), c.B.W...)},
	}
}

var _ Layer = (*Conv1D)(nil)
