// Package model implements the paper's learned estimators: the basic DL
// model with learned embeddings (Fig 2), query segmentation with CNNs
// (Fig 3/Fig 7 — QES), data segmentation with per-segment local models and
// the global-local selection framework (Fig 5 — Local+, GL-MLP, GL-CNN,
// GL+), and the sum-pooling join models (Fig 6 — CNNJoin, GLJoin, GLJoin+),
// plus incremental updates (§5.3).
package model

import (
	"fmt"
	"sync"

	"simquery/internal/dist"
	"simquery/internal/nn"
	"simquery/internal/tensor"
)

// Sample is one labeled training example for a regression model.
type Sample struct {
	Q    []float64
	Tau  float64
	Card float64
}

// scratchPool recycles inference arenas across estimates. Every public
// estimation entry point takes a scratch from the pool, runs the pure Infer
// path with it, copies results out of arena memory, and returns it — so
// steady-state serving reuses buffers instead of allocating per call, and
// concurrent callers each hold their own arena.
var scratchPool = sync.Pool{New: func() any { return new(nn.Scratch) }}

func takeScratch() *nn.Scratch { return scratchPool.Get().(*nn.Scratch) }

func putScratch(s *nn.Scratch) {
	s.Reset()
	scratchPool.Put(s)
}

// concatCols concatenates matrices with equal row counts column-wise into
// scratch memory (a nil scratch allocates fresh).
func concatCols(s *nn.Scratch, ms ...*tensor.Matrix) *tensor.Matrix {
	rows := ms[0].Rows
	cols := 0
	for _, m := range ms {
		if m.Rows != rows {
			panic(fmt.Sprintf("model: concat row mismatch %d vs %d", m.Rows, rows))
		}
		cols += m.Cols
	}
	out := s.Matrix(rows, cols)
	for i := 0; i < rows; i++ {
		dst := out.Row(i)
		ofs := 0
		for _, m := range ms {
			copy(dst[ofs:ofs+m.Cols], m.Row(i))
			ofs += m.Cols
		}
	}
	return out
}

// splitCols splits a matrix into column blocks of the given widths.
func splitCols(m *tensor.Matrix, widths ...int) []*tensor.Matrix {
	total := 0
	for _, w := range widths {
		total += w
	}
	if total != m.Cols {
		panic(fmt.Sprintf("model: split widths sum %d != cols %d", total, m.Cols))
	}
	out := make([]*tensor.Matrix, len(widths))
	ofs := 0
	for bi, w := range widths {
		b := tensor.NewMatrix(m.Rows, w)
		for i := 0; i < m.Rows; i++ {
			copy(b.Row(i), m.Row(i)[ofs:ofs+w])
		}
		out[bi] = b
		ofs += w
	}
	return out
}

// queryBatch stacks query vectors into a matrix.
func queryBatch(s *nn.Scratch, qs [][]float64, dim int) *tensor.Matrix {
	m := s.Matrix(len(qs), dim)
	for i, q := range qs {
		if len(q) != dim {
			panic(fmt.Sprintf("model: query %d has dim %d, want %d", i, len(q), dim))
		}
		copy(m.Row(i), q)
	}
	return m
}

// tauBatch stacks scaled thresholds into an N×1 matrix.
func tauBatch(s *nn.Scratch, taus []float64, scale float64) *tensor.Matrix {
	m := s.Matrix(len(taus), 1)
	for i, t := range taus {
		m.Data[i] = t / scale
	}
	return m
}

// distBatch computes the anchor-distance feature x_D (or x_C) for each
// query: distances to the anchor vectors under the metric, scaled.
func distBatch(s *nn.Scratch, qs [][]float64, anchors [][]float64, metric dist.Metric, scale float64) *tensor.Matrix {
	m := s.Matrix(len(qs), len(anchors))
	for i, q := range qs {
		row := m.Row(i)
		dist.DistancesTo(metric, q, anchors, row)
		for j := range row {
			row[j] /= scale
		}
	}
	return m
}

// sharedDists is a (sub-)batch's view of a GL estimate's one
// centroid-distance pass (GlobalLocal.centroidDists): query k's raw
// distances are row rows[k] of d, or row k when rows is nil. The zero value
// holds no pass, and the model computes its own anchor distances.
type sharedDists struct {
	d    *tensor.Matrix
	rows []int
}

// features builds x_D/x_C for qs: the shared raw distances divided by
// scale when the view holds the pass, otherwise distBatch. Both divide the
// same dist.Distance values by the same scale, so the two are bitwise
// equal.
func (sd sharedDists) features(s *nn.Scratch, qs [][]float64, anchors [][]float64, metric dist.Metric, scale float64) *tensor.Matrix {
	if sd.d == nil {
		return distBatch(s, qs, anchors, metric, scale)
	}
	m := s.Matrix(len(qs), sd.d.Cols)
	for k := range qs {
		src := sd.d.Row(k)
		if sd.rows != nil {
			src = sd.d.Row(sd.rows[k])
		}
		row := m.Row(k)
		for j, v := range src {
			row[j] = v / scale
		}
	}
	return m
}

// subBatch gathers the queries and thresholds of the batch rows in g — one
// local model's routed sub-batch.
func subBatch(qs [][]float64, taus []float64, g []int) ([][]float64, []float64) {
	gqs := make([][]float64, len(g))
	gts := make([]float64, len(g))
	for k, i := range g {
		gqs[k] = qs[i]
		gts[k] = taus[i]
	}
	return gqs, gts
}

// sumRows sum-pools a matrix's rows into a 1×C matrix — the join models'
// query-set embedding (§4).
func sumRows(s *nn.Scratch, m *tensor.Matrix) *tensor.Matrix {
	out := s.Matrix(1, m.Cols)
	for i := 0; i < m.Rows; i++ {
		tensor.AddTo(out.Row(0), m.Row(i))
	}
	return out
}

// broadcastRows expands a 1×C gradient to n identical rows — the backward
// pass of sum pooling.
func broadcastRows(g *tensor.Matrix, n int) *tensor.Matrix {
	out := tensor.NewMatrix(n, g.Cols)
	for i := 0; i < n; i++ {
		copy(out.Row(i), g.Row(0))
	}
	return out
}
