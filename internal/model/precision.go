package model

import (
	"fmt"
	"sync"
	"sync/atomic"

	"simquery/internal/dist"
	"simquery/internal/nn"
	"simquery/internal/telemetry"
	"simquery/internal/tensor"
)

// Mixed-precision serving tiers (DESIGN.md §14). The trained float64
// parameters stay the source of truth for training, fine-tuning, and
// checkpoints; Precision selects which *inference plane* serves estimates:
//
//	F64  — the default double-precision path (bitwise reference).
//	F32  — parameters packed once into float32 networks (nn.Lower32),
//	       features built and inference run entirely in float32 arenas.
//	Int8 — dense layers quantized per output channel to int8 weights with
//	       float32 accumulation (nn.Lower8); everything else float32. The
//	       global router always stays float32 — only local regression
//	       models take the int8 tier.
//
// Lowered planes are cached on the model and invalidated by a per-model
// generation counter that every mutation point (Train, FineTuneJoin,
// UnmarshalBinary, global Train) bumps — the model-level analogue of
// cardest.ModelGeneration, which already guards the estimate cache across
// Save/Load swaps (a Load builds fresh model objects, so lowered caches
// start empty on reload by construction).
type Precision int

// The precision ladder.
const (
	F64 Precision = iota
	F32
	Int8
)

// String implements fmt.Stringer.
func (p Precision) String() string {
	switch p {
	case F64:
		return "f64"
	case F32:
		return "f32"
	case Int8:
		return "int8"
	default:
		return fmt.Sprintf("Precision(%d)", int(p))
	}
}

// ParsePrecision converts a flag value to a Precision.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "f64", "F64", "float64", "":
		return F64, nil
	case "f32", "F32", "float32":
		return F32, nil
	case "int8", "Int8", "i8":
		return Int8, nil
	default:
		return 0, fmt.Errorf("model: unknown precision %q (want f64, f32, or int8)", s)
	}
}

// scratch32Pool recycles float32 inference arenas, mirroring scratchPool.
var scratch32Pool = sync.Pool{New: func() any { return new(nn.Scratch32) }}

func takeScratch32() *nn.Scratch32 { return scratch32Pool.Get().(*nn.Scratch32) }

func putScratch32(s *nn.Scratch32) {
	s.Reset()
	scratch32Pool.Put(s)
}

// --- float32 feature builders (the f32 mirror of features.go) ---

// queryBatch32 stacks query vectors into a float32 matrix, narrowing once.
func queryBatch32(s *nn.Scratch32, qs [][]float64, dim int) *tensor.Matrix32 {
	m := s.Matrix(len(qs), dim)
	for i, q := range qs {
		if len(q) != dim {
			panic(fmt.Sprintf("model: query %d has dim %d, want %d", i, len(q), dim))
		}
		row := m.Row(i)
		for j, v := range q {
			row[j] = float32(v)
		}
	}
	return m
}

// tauBatch32 stacks scaled thresholds into an N×1 float32 matrix.
func tauBatch32(s *nn.Scratch32, taus []float64, scale float32) *tensor.Matrix32 {
	m := s.Matrix(len(taus), 1)
	for i, t := range taus {
		m.Data[i] = float32(t) / scale
	}
	return m
}

// distBatch32 computes anchor-distance features from the already-narrowed
// query rows of xq against pre-narrowed anchors, in float32 end to end.
func distBatch32(s *nn.Scratch32, xq *tensor.Matrix32, anchors [][]float32, metric dist.Metric, scale float32) *tensor.Matrix32 {
	m := s.Matrix(xq.Rows, len(anchors))
	for i := 0; i < xq.Rows; i++ {
		q := xq.Row(i)
		row := m.Row(i)
		for j, a := range anchors {
			row[j] = dist.Distance32(metric, q, a) / scale
		}
	}
	return m
}

func narrowVecs32(vs [][]float64) [][]float32 {
	out := make([][]float32, len(vs))
	for i, v := range vs {
		r := make([]float32, len(v))
		for j, x := range v {
			r[j] = float32(x)
		}
		out[i] = r
	}
	return out
}

// --- BasicModel lowering ---

// loweredBasic is one cached inference plane of a BasicModel. Immutable
// after construction; gen records the parameter generation it was lowered
// from. MaxCard is deliberately NOT captured — capCard reads the live model
// so incremental inserts keep the population cap fresh without re-lowering.
type loweredBasic struct {
	gen                 uint64
	e1, e2, e3, f       *nn.Network32
	anchors             [][]float32
	tauScale, distScale float32
}

// bumpLowGen invalidates all cached lowered planes; every parameter
// mutation point calls it.
func (m *BasicModel) bumpLowGen() { m.lowGen.Add(1) }

// lowered returns the cached lowered plane for p, building it on first use
// or after a generation bump. Concurrent callers may race to lower; the
// result is idempotent and the cache settles on one winner. p must be F32
// or Int8.
func (m *BasicModel) lowered(p Precision) (*loweredBasic, error) {
	var cache *atomic.Pointer[loweredBasic]
	switch p {
	case F32:
		cache = &m.low32
	case Int8:
		cache = &m.low8
	default:
		return nil, fmt.Errorf("model: %s has no lowered plane for %v", m.Label, p)
	}
	gen := m.lowGen.Load()
	if lb := cache.Load(); lb != nil && lb.gen == gen {
		return lb, nil
	}
	lb, err := m.lowerPlane(p, gen)
	if err != nil {
		return nil, err
	}
	cache.Store(lb)
	return lb, nil
}

// lowerPlane packs the trained parameters once (Infer32's conversion step).
func (m *BasicModel) lowerPlane(p Precision, gen uint64) (*loweredBasic, error) {
	lower := nn.Lower32
	if p == Int8 {
		lower = nn.Lower8
	}
	lb := &loweredBasic{
		gen:       gen,
		tauScale:  float32(m.TauScale),
		distScale: float32(m.DistScale),
		anchors:   narrowVecs32(m.Anchors),
	}
	var err error
	if lb.e1, err = lower(m.E1); err != nil {
		return nil, fmt.Errorf("model: lower %s E1: %w", m.Label, err)
	}
	if lb.e2, err = lower(m.E2); err != nil {
		return nil, fmt.Errorf("model: lower %s E2: %w", m.Label, err)
	}
	if m.E3 != nil {
		if lb.e3, err = lower(m.E3); err != nil {
			return nil, fmt.Errorf("model: lower %s E3: %w", m.Label, err)
		}
	}
	if lb.f, err = lower(m.F); err != nil {
		return nil, fmt.Errorf("model: lower %s F: %w", m.Label, err)
	}
	return lb, nil
}

// PreCheckPrecision eagerly builds (and caches) the lowered plane, so a
// serving tier switch fails at configuration time — estimators without a
// lowered path get rejected here and the caller falls back to F64.
func (m *BasicModel) PreCheckPrecision(p Precision) error {
	if p == F64 {
		return nil
	}
	_, err := m.lowered(p)
	return err
}

// infer32 is the float32 mirror of infer: features and every network pass
// run in float32 scratch memory.
func (lb *loweredBasic) infer32(m *BasicModel, qs [][]float64, taus []float64, s *nn.Scratch32) *tensor.Matrix32 {
	sp := telemetry.StartStage(telemetry.StageFeatureBuild)
	xq := queryBatch32(s, qs, m.Dim)
	xt := tauBatch32(s, taus, lb.tauScale)
	var xd *tensor.Matrix32
	if lb.e3 != nil {
		xd = distBatch32(s, xq, lb.anchors, m.Metric, lb.distScale)
	}
	sp.End()
	zq := lb.e1.Infer32(xq, s)
	zt := lb.e2.Infer32(xt, s)
	var z *tensor.Matrix32
	if lb.e3 != nil {
		zd := lb.e3.Infer32(xd, s)
		z = concatCols32(s, zq, zt, zd)
	} else {
		z = concatCols32(s, zq, zt)
	}
	return lb.f.Infer32(z, s)
}

// concatCols32 is concatCols on the float32 plane.
func concatCols32(s *nn.Scratch32, ms ...*tensor.Matrix32) *tensor.Matrix32 {
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

// EstimateSearchLowered is EstimateSearch on a lowered plane.
func (m *BasicModel) EstimateSearchLowered(q []float64, tau float64, p Precision) (float64, error) {
	ests, err := m.EstimateSearchBatchLowered([][]float64{q}, []float64{tau}, p)
	if err != nil {
		return 0, err
	}
	return ests[0], nil
}

// EstimateSearchBatchLowered is EstimateSearchBatch on a lowered plane:
// one packed-float32 (or int8) forward pass, widened only at the final
// exp/cap step.
func (m *BasicModel) EstimateSearchBatchLowered(qs [][]float64, taus []float64, p Precision) ([]float64, error) {
	if len(qs) != len(taus) {
		panic(fmt.Sprintf("model: batch size mismatch: %d queries, %d thresholds", len(qs), len(taus)))
	}
	if p == F64 {
		return m.EstimateSearchBatch(qs, taus), nil
	}
	lb, err := m.lowered(p)
	if err != nil {
		return nil, err
	}
	s := takeScratch32()
	defer putScratch32(s)
	pred := lb.infer32(m, qs, taus, s)
	out := make([]float64, pred.Rows)
	for i := range out {
		out[i] = m.capCard(expCard(float64(pred.Data[i])))
	}
	return out, nil
}

// --- GlobalModel lowering ---

// loweredGlobal is the cached float32 plane of the global router. The
// router is never quantized to int8: its job is segment selection, where a
// flipped mask bit costs a whole local model's cardinality, so it always
// runs the f32 tier.
type loweredGlobal struct {
	gen           uint64
	e4, e5, e6, g *nn.Network32
	centroids     [][]float32
	tauScale      float32
}

func (g *GlobalModel) bumpLowGen() { g.lowGen.Add(1) }

// lowered returns the cached f32 plane, building on first use or after a
// generation bump.
func (g *GlobalModel) lowered() (*loweredGlobal, error) {
	gen := g.lowGen.Load()
	if lg := g.low32.Load(); lg != nil && lg.gen == gen {
		return lg, nil
	}
	lg := &loweredGlobal{
		gen:       gen,
		centroids: narrowVecs32(g.Centroids),
		tauScale:  float32(g.TauScale),
	}
	var err error
	if lg.e4, err = nn.Lower32(g.E4); err != nil {
		return nil, fmt.Errorf("model: lower global E4: %w", err)
	}
	if lg.e5, err = nn.Lower32(g.E5); err != nil {
		return nil, fmt.Errorf("model: lower global E5: %w", err)
	}
	if lg.e6, err = nn.Lower32(g.E6); err != nil {
		return nil, fmt.Errorf("model: lower global E6: %w", err)
	}
	if lg.g, err = nn.Lower32(g.G); err != nil {
		return nil, fmt.Errorf("model: lower global G: %w", err)
	}
	return lg, nil
}

// ProbsBatch32 is ProbsBatch on the float32 plane. The sigmoid runs in
// float64 on the widened logits, so probabilities keep the same shape near
// the σ threshold as the reference path.
func (g *GlobalModel) ProbsBatch32(qs [][]float64, taus []float64) ([][]float64, error) {
	lg, err := g.lowered()
	if err != nil {
		return nil, err
	}
	s := takeScratch32()
	defer putScratch32(s)
	sp := telemetry.StartStage(telemetry.StageFeatureBuild)
	xq := queryBatch32(s, qs, g.Dim)
	xt := tauBatch32(s, taus, lg.tauScale)
	xd := distBatch32(s, xq, lg.centroids, g.Metric, lg.tauScale)
	sp.End()
	z4 := lg.e4.Infer32(xq, s)
	z5 := lg.e5.Infer32(xt, s)
	z6 := lg.e6.Infer32(xd, s)
	logits := lg.g.Infer32(concatCols32(s, z4, z5, z6), s)
	out := make([][]float64, logits.Rows)
	flat := make([]float64, logits.Rows*g.Segments)
	for i := range out {
		row := flat[i*g.Segments : (i+1)*g.Segments]
		for j := 0; j < g.Segments; j++ {
			row[j] = tensor.Sigmoid(float64(logits.At(i, j)))
		}
		out[i] = row
	}
	return out, nil
}

// --- GlobalLocal precision serving ---

// PreCheckPrecision eagerly lowers the global router (f32) and every local
// model (f32 or int8), caching the planes so the first served query pays no
// conversion cost. An error means this model cannot serve tier p and the
// caller must stay on F64.
func (gl *GlobalLocal) PreCheckPrecision(p Precision) error {
	if p == F64 {
		return nil
	}
	if gl.Global != nil {
		if _, err := gl.Global.lowered(); err != nil {
			return err
		}
	}
	for _, l := range gl.Locals {
		if _, err := l.lowered(p); err != nil {
			return err
		}
	}
	return nil
}

// EstimateSearchPrecision is EstimateSearch on the p tier.
func (gl *GlobalLocal) EstimateSearchPrecision(q []float64, tau float64, p Precision) (float64, error) {
	ests, err := gl.EstimateSearchBatchPrecision([][]float64{q}, []float64{tau}, p)
	if err != nil {
		return 0, err
	}
	return ests[0], nil
}

// EstimateSearchBatchPrecision is EstimateSearchBatch on the p tier: the
// global router runs float32 (both F32 and Int8 tiers), routing decisions
// feed the same maskInto/grouping machinery as the reference path, and the
// grouped sub-batches evaluate on the locals' lowered planes in parallel on
// the shared tensor pool. The merge is the same deterministic
// ascending-segment reduction.
func (gl *GlobalLocal) EstimateSearchBatchPrecision(qs [][]float64, taus []float64, p Precision) ([]float64, error) {
	if p == F64 {
		return gl.EstimateSearchBatch(qs, taus), nil
	}
	if len(qs) != len(taus) {
		panic(fmt.Sprintf("model: batch size mismatch: %d queries, %d thresholds", len(qs), len(taus)))
	}
	out := make([]float64, len(qs))
	if len(qs) == 0 {
		return out, nil
	}
	sp := telemetry.StartStage(telemetry.StageGlobalRoute)
	var probs [][]float64
	if gl.Global != nil {
		var err error
		if probs, err = gl.Global.ProbsBatch32(qs, taus); err != nil {
			sp.End()
			return nil, err
		}
	}
	masks := make([][]bool, len(qs))
	flat := make([]bool, len(qs)*gl.Seg.K)
	for i, q := range qs {
		masks[i] = flat[i*gl.Seg.K : (i+1)*gl.Seg.K]
		var p []float64
		if probs != nil {
			p = probs[i]
		}
		gl.maskInto(masks[i], q, taus[i], p, nil)
	}
	sp.End()
	for _, m := range masks {
		gl.observeSelectivity(m)
	}
	sp = telemetry.StartStage(telemetry.StageLocalEval)
	groups := make([][]int, gl.Seg.K)
	for i := range qs {
		for j, on := range masks[i] {
			if on {
				groups[j] = append(groups[j], i)
			}
		}
	}
	ests := make([][]float64, gl.Seg.K)
	errs := make([]error, gl.Seg.K)
	idxs := make([]int, 0, gl.Seg.K)
	for j := range groups {
		if len(groups[j]) > 0 {
			idxs = append(idxs, j)
		}
	}
	tensor.DefaultPool().Do(len(idxs), func(t int) {
		j := idxs[t]
		gqs, gts := subBatch(qs, taus, groups[j])
		ests[j], errs[j] = gl.Locals[j].EstimateSearchBatchLowered(gqs, gts, p)
	})
	sp.End()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	sp = telemetry.StartStage(telemetry.StageMerge)
	for j, g := range groups {
		for k, i := range g {
			out[i] += gl.deltaAdjust(j, ests[j][k])
		}
	}
	sp.End()
	return out, nil
}
