package model

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"simquery/internal/cluster"
	"simquery/internal/dist"
	"simquery/internal/nn"
	"simquery/internal/telemetry"
	"simquery/internal/tensor"
)

// Variant selects which member of the model family a GlobalLocal instance
// is (Table 2 rows 2–5).
type Variant int

// The data-segmentation model family.
const (
	// LocalPlus trains one local model per segment and sums all of them
	// (no global selection); local models use per-segment sample anchors.
	LocalPlus Variant = iota
	// GLMLP is the global-local framework with MLP query embeddings.
	GLMLP
	// GLCNN is the global-local framework with CNN query segmentation.
	GLCNN
	// GLPlus is GLCNN with per-local tuned hyperparameters (Algorithm 3).
	GLPlus
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case LocalPlus:
		return "Local+"
	case GLMLP:
		return "GL-MLP"
	case GLCNN:
		return "GL-CNN"
	case GLPlus:
		return "GL+"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// GLConfig configures construction of a GlobalLocal model.
type GLConfig struct {
	Variant Variant
	// Segments is the number of data segments (paper default 100; the
	// harness scales this down).
	Segments int
	// QuerySegments is the query-segmentation count for CNN variants.
	QuerySegments int
	// ConvConfigs is the CNN stack after the segment layer (ignored by
	// MLP variants). PerLocalConv, when non-nil, overrides it per local
	// model — the GL+ tuned configuration.
	ConvConfigs  []ConvConfig
	PerLocalConv [][]ConvConfig
	// AnchorsPerSegment is the x_D sample count for Local+ local models.
	AnchorsPerSegment int
	// Sigma is the global selection threshold (default 0.5).
	Sigma float64
	// PCADims is the PCA dimensionality for segmentation (default 8).
	PCADims int
	Arch    Arch
	Seed    int64
	// Workers bounds local-model training parallelism.
	Workers int
}

func (c *GLConfig) fill(dim int) {
	if c.Segments <= 0 {
		c.Segments = 16
	}
	if c.QuerySegments <= 0 {
		c.QuerySegments = 8
	}
	if c.QuerySegments > dim {
		c.QuerySegments = dim
	}
	if c.ConvConfigs == nil {
		c.ConvConfigs = DefaultConvConfigs()
	}
	if c.AnchorsPerSegment <= 0 {
		c.AnchorsPerSegment = 8
	}
	if c.Sigma <= 0 || c.Sigma >= 1 {
		c.Sigma = 0.5
	}
	if c.PCADims <= 0 {
		c.PCADims = 8
	}
	if c.Arch == (Arch{}) {
		c.Arch = DefaultArch()
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
}

// GlobalLocal is the paper's data-segmentation estimator family: a
// segmentation of the dataset, one local regression model per segment, and
// (except for Local+) a global discriminative model that selects which
// local models to evaluate (Fig 1(C), Fig 5, Fig 6).
type GlobalLocal struct {
	Label   string
	Variant Variant

	Seg    *cluster.Segmentation
	Locals []*BasicModel
	Global *GlobalModel // nil for Local+

	Metric   dist.Metric
	TauScale float64
	Dim      int
	Sigma    float64

	// refs are the per-segment reference points for the triangle-inequality
	// bound (centroids, unit-normalized for angular distance), and
	// MetricRadii the max member distance to them under the dataset metric.
	refs        [][]float64
	MetricRadii []float64

	// deltas is the online-mutation state (nil until NoteDelta or
	// EnableDeltaTracking arms it; see delta.go). Not serialized.
	deltas atomic.Pointer[SegDeltas]

	// sharedPass reports that the global model's centroids and every
	// local's anchors are Seg.Centroids, so an estimate computes each
	// query's centroid distances once (centroidDists). Set by
	// shareCentroids at construction and load.
	sharedPass bool

	cfg GLConfig
}

// initBounds computes the reference points and metric radii from data.
func (gl *GlobalLocal) initBounds(data [][]float64) {
	gl.refs = make([][]float64, gl.Seg.K)
	gl.MetricRadii = make([]float64, gl.Seg.K)
	for i, c := range gl.Seg.Centroids {
		ref := c
		if gl.Metric == dist.Angular {
			ref = append([]float64(nil), c...)
			normalizeVec(ref)
		}
		gl.refs[i] = ref
	}
	for i, a := range gl.Seg.Assignments {
		if d := dist.Distance(gl.Metric, data[i], gl.refs[a]); d > gl.MetricRadii[a] {
			gl.MetricRadii[a] = d
		}
	}
}

// normalizeVec scales to unit L2 norm in place (no-op for zero vectors).
func normalizeVec(v []float64) {
	var s float64
	for _, x := range v {
		s += x * x
	}
	if s == 0 {
		return
	}
	n := math.Sqrt(s)
	for i := range v {
		v[i] /= n
	}
}

// NewGlobalLocal segments the data (PCA + batch k-means, §3.3) and builds
// the local and global models. data rows are the dataset vectors.
func NewGlobalLocal(label string, data [][]float64, metric dist.Metric, tauMax float64, cfg GLConfig) (*GlobalLocal, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("model: global-local over empty dataset")
	}
	dim := len(data[0])
	cfg.fill(dim)
	rng := rand.New(rand.NewSource(cfg.Seed))
	seg, err := cluster.KMeans(data, cfg.Segments, cluster.KMeansOptions{PCADims: cfg.PCADims}, rng)
	if err != nil {
		return nil, fmt.Errorf("model: segmentation: %w", err)
	}
	return newGlobalLocalFromSeg(label, data, seg, metric, tauMax, cfg, rng)
}

// NewGlobalLocalWithSegmentation builds the model family on a caller-made
// segmentation (used by the segmentation-method ablation).
func NewGlobalLocalWithSegmentation(label string, data [][]float64, seg *cluster.Segmentation, metric dist.Metric, tauMax float64, cfg GLConfig) (*GlobalLocal, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("model: global-local over empty dataset")
	}
	cfg.fill(len(data[0]))
	cfg.Segments = seg.K
	rng := rand.New(rand.NewSource(cfg.Seed))
	return newGlobalLocalFromSeg(label, data, seg, metric, tauMax, cfg, rng)
}

func newGlobalLocalFromSeg(label string, data [][]float64, seg *cluster.Segmentation, metric dist.Metric, tauMax float64, cfg GLConfig, rng *rand.Rand) (*GlobalLocal, error) {
	dim := len(data[0])
	gl := &GlobalLocal{
		Label:    label,
		Variant:  cfg.Variant,
		Seg:      seg,
		Metric:   metric,
		TauScale: tauMax,
		Dim:      dim,
		Sigma:    cfg.Sigma,
		cfg:      cfg,
	}
	useGlobal := cfg.Variant != LocalPlus
	for i := 0; i < seg.K; i++ {
		var anchors [][]float64
		if useGlobal {
			// GL local models consume x_C: distances to all centroids
			// (Fig 5 replaces x_D with x_C).
			anchors = seg.Centroids
		} else {
			anchors = segmentAnchors(data, seg, i, cfg.AnchorsPerSegment, rng)
		}
		var (
			local *BasicModel
			err   error
		)
		name := fmt.Sprintf("%s/local%d", label, i)
		switch cfg.Variant {
		case GLMLP:
			local, err = NewMLPModel(name, rng, dim, anchors, metric, tauMax, cfg.Arch)
		default: // LocalPlus, GLCNN, GLPlus use CNN query embeddings
			convs := cfg.ConvConfigs
			if cfg.PerLocalConv != nil && i < len(cfg.PerLocalConv) && cfg.PerLocalConv[i] != nil {
				convs = cfg.PerLocalConv[i]
			}
			local, err = NewQESModel(name, rng, dim, cfg.QuerySegments, convs, anchors, metric, tauMax, cfg.Arch)
		}
		if err != nil {
			return nil, fmt.Errorf("model: local %d: %w", i, err)
		}
		// A local model can never see more matches than its segment holds.
		local.MaxCard = float64(len(seg.Members[i]))
		gl.Locals = append(gl.Locals, local)
	}
	if useGlobal {
		g, err := NewGlobalModel(rng, dim, seg.Centroids, metric, tauMax, cfg.Arch)
		if err != nil {
			return nil, err
		}
		gl.Global = g
	}
	gl.initBounds(data)
	gl.shareCentroids()
	return gl, nil
}

// shareCentroids enables the shared centroid-distance pass when the K+2
// centroid tables (Seg's, the global model's, and every GL local's anchors)
// hold bitwise-equal values under one metric — the condition that makes
// one set of dist.Distance calls serve all three. It then points the
// copies at Seg.Centroids, so a loaded checkpoint keeps one table instead
// of K+2. When any copy differs, every model keeps its own table and
// computes its own distances.
func (gl *GlobalLocal) shareCentroids() {
	gl.sharedPass = false
	g := gl.Global
	c := gl.Seg.Centroids
	if g == nil || g.Metric != gl.Metric || !sameTable(g.Centroids, c) {
		return
	}
	for _, l := range gl.Locals {
		if l.E3 == nil || l.Metric != gl.Metric || !sameTable(l.Anchors, c) {
			return
		}
	}
	g.Centroids = c
	for _, l := range gl.Locals {
		l.Anchors = c
	}
	gl.sharedPass = true
}

// sameTable reports whether two vector tables are bitwise equal.
func sameTable(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j, v := range a[i] {
			if math.Float64bits(v) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// centroidDists is the one centroid-distance pass of a GL estimate: row i
// holds qs[i]'s unscaled dist.Distance to every centroid, in the scratch
// arena. It feeds the global model's x_C, the locals' x_C, and the
// triangle bound (except under Angular, whose bound references are
// normalized centroids). It returns nil, and every consumer computes its
// own distances, unless sharedPass is set.
func (gl *GlobalLocal) centroidDists(s *nn.Scratch, qs [][]float64) *tensor.Matrix {
	if !gl.sharedPass {
		return nil
	}
	sp := telemetry.StartStage(telemetry.StageFeatureBuild)
	defer sp.End()
	m := s.Matrix(len(qs), gl.Seg.K)
	for i, q := range qs {
		dist.DistancesTo(gl.Metric, q, gl.Seg.Centroids, m.Row(i))
	}
	return m
}

// segmentAnchors draws up to k member vectors of segment i (falling back to
// the centroid for empty segments).
func segmentAnchors(data [][]float64, seg *cluster.Segmentation, i, k int, rng *rand.Rand) [][]float64 {
	members := seg.Members[i]
	if len(members) == 0 {
		return [][]float64{seg.Centroids[i]}
	}
	idx := rng.Perm(len(members))
	if len(idx) > k {
		idx = idx[:k]
	}
	anchors := make([][]float64, len(idx))
	for j, m := range idx {
		anchors[j] = data[members[m]]
	}
	return anchors
}

// SegSample is one training example with per-segment labels.
type SegSample struct {
	Q        []float64
	Tau      float64
	SegCards []float64
}

// localTrainingSet builds segment i's training set: every query whose
// threshold ball intersects the segment (positive label), plus a capped set
// of zero-label negatives. At inference a local model only runs when the
// global model selects its segment — a mostly-positive distribution — so
// training on all queries would drown the positives in zeros and collapse
// the regressor (the clipped gradients of the 0-labels dominate). The
// negatives that are kept are the *hardest* ones: queries whose threshold
// ball comes closest to the segment without touching it, exactly the
// borderline cases a miscalibrated global model routes here — training on
// them keeps false-positive selections from turning into huge
// overestimates.
func (gl *GlobalLocal) localTrainingSet(samples []SegSample, i int, seed int64) []Sample {
	type negCand struct {
		s    Sample
		marg float64 // distance margin beyond the threshold ball
	}
	var pos []Sample
	var negs []negCand
	for _, s := range samples {
		sm := Sample{Q: s.Q, Tau: s.Tau, Card: s.SegCards[i]}
		if s.SegCards[i] > 0 {
			pos = append(pos, sm)
			continue
		}
		marg := dist.Distance(gl.Metric, s.Q, gl.Seg.Centroids[i]) - s.Tau
		negs = append(negs, negCand{s: sm, marg: marg})
	}
	maxNeg := len(pos)/2 + 4
	if len(negs) > maxNeg {
		sort.Slice(negs, func(a, b int) bool { return negs[a].marg < negs[b].marg })
		negs = negs[:maxNeg]
	}
	out := append([]Sample(nil), pos...)
	for _, n := range negs {
		out = append(out, n.s)
	}
	if len(out) == 0 {
		// Degenerate segment with no queries at all: train on a few zeros
		// so the model safely answers ≈0.
		for si := 0; si < len(samples) && si < 8; si++ {
			out = append(out, Sample{Q: samples[si].Q, Tau: samples[si].Tau, Card: 0})
		}
	}
	// Deterministic shuffle so mini-batches mix positives and negatives.
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// Train runs the two-phase training of §3.3: phase 1 fits every local
// regression model (in parallel), phase 2 fits the global discriminative
// model (Algorithm 2).
func (gl *GlobalLocal) Train(samples []SegSample, cfg TrainConfig, gcfg GlobalTrainConfig) error {
	if len(samples) == 0 {
		return fmt.Errorf("model: no training samples")
	}
	for i, s := range samples {
		if len(s.SegCards) != gl.Seg.K {
			return fmt.Errorf("model: sample %d has %d segment labels, want %d", i, len(s.SegCards), gl.Seg.K)
		}
	}
	// Phase 1: local models.
	var wg sync.WaitGroup
	sem := make(chan struct{}, gl.cfg.Workers)
	errs := make([]error, len(gl.Locals))
	for i, local := range gl.Locals {
		wg.Add(1)
		go func(i int, local *BasicModel) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			lcfg := cfg
			lcfg.Seed = cfg.Seed + int64(i)*7919
			errs[i] = local.Train(gl.localTrainingSet(samples, i, lcfg.Seed), lcfg)
		}(i, local)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("model: local %d: %w", i, err)
		}
	}
	// Phase 2: global model.
	if gl.Global != nil {
		gs := make([]GlobalSample, len(samples))
		for i, s := range samples {
			gs[i] = GlobalSample{Q: s.Q, Tau: s.Tau, SegCards: s.SegCards}
		}
		if err := gl.Global.Train(gs, gcfg); err != nil {
			return err
		}
	}
	return nil
}

// provablyEmpty reports whether segment i cannot contain any object within
// τ of q, by the triangle inequality on the centroid distance and the
// segment radius (§5.1: "we could compute the distance upper bound between
// a query and a data object in a data segment... by using triangle
// inequality"). Cosine distance is not a metric, so no pruning there. A
// non-nil refDists is the query's distances to the reference points, read
// instead of recomputed.
func (gl *GlobalLocal) provablyEmpty(q []float64, tau float64, i int, refDists []float64) bool {
	if gl.Metric == dist.Cosine || gl.refs == nil {
		return false
	}
	var d float64
	if refDists != nil {
		d = refDists[i]
	} else {
		d = dist.Distance(gl.Metric, q, gl.refs[i])
	}
	return d-gl.MetricRadii[i] > tau
}

// maskInto turns one query's global-model probabilities into its selection
// mask, written into sel (len gl.Seg.K, all false): picks above σ,
// hard-filtered by the triangle-inequality bound, with a fallback to the
// highest-probability surviving segment so plausible queries never
// silently estimate zero — unless every segment is provably empty, in
// which case zero is exact. A nil probs row is the Local+ case: every
// not-provably-empty segment is selected. This is the single source of
// routing truth shared by the search, batch, and join paths, so they
// select identical segments for identical queries. refDists is passed to
// provablyEmpty.
func (gl *GlobalLocal) maskInto(sel []bool, q []float64, tau float64, probs, refDists []float64) {
	if probs == nil {
		for i := range sel {
			sel[i] = !gl.provablyEmpty(q, tau, i, refDists)
		}
		return
	}
	any := false
	bestIdx, bestProb := -1, -1.0
	for i, p := range probs {
		if gl.provablyEmpty(q, tau, i, refDists) {
			continue
		}
		if p > gl.Sigma {
			sel[i] = true
			any = true
		}
		if p > bestProb {
			bestIdx, bestProb = i, p
		}
	}
	if !any && bestIdx >= 0 {
		sel[bestIdx] = true
	}
}

// selectionMasks computes the per-query selection masks for a batch with a
// single centroid-distance pass and a single global-model forward pass —
// the batched counterpart of SelectedSegments (Fig 6's indicator matrix).
// It also returns the distance pass (nil unless sharedPass), which lives in
// s, for the locals' x_C.
func (gl *GlobalLocal) selectionMasks(s *nn.Scratch, qs [][]float64, taus []float64) ([][]bool, *tensor.Matrix) {
	xc := gl.centroidDists(s, qs)
	var probs *tensor.Matrix
	if gl.Global != nil {
		probs = gl.Global.probs(s, qs, taus, sharedDists{d: xc})
	}
	masks := make([][]bool, len(qs))
	flat := make([]bool, len(qs)*gl.Seg.K) // one backing array for all masks
	for i, q := range qs {
		masks[i] = flat[i*gl.Seg.K : (i+1)*gl.Seg.K]
		var p, refDists []float64
		if probs != nil {
			p = probs.Row(i)
		}
		if xc != nil && gl.Metric != dist.Angular {
			refDists = xc.Row(i)
		}
		gl.maskInto(masks[i], q, taus[i], p, refDists)
	}
	return masks, xc
}

// SelectedSegments returns which local models will be evaluated for (q, τ):
// the global model's picks, hard-filtered by the triangle-inequality bound;
// for Local+ every not-provably-empty segment.
func (gl *GlobalLocal) SelectedSegments(q []float64, tau float64) []bool {
	s := takeScratch()
	defer putScratch(s)
	masks, _ := gl.selectionMasks(s, [][]float64{q}, []float64{tau})
	return masks[0]
}

// observeSelectivity records the fraction of local models a mask selects
// into simquery_routing_selectivity{method=...} — the paper's pruning
// claim as a live signal, one series per model so a GL+ and a Local+
// serving side by side stay distinguishable. Free (one atomic load, no
// allocation) when telemetry is off.
func (gl *GlobalLocal) observeSelectivity(sel []bool) {
	rec := telemetry.Default()
	if !rec.Enabled() || gl.Seg.K == 0 {
		return
	}
	n := 0
	for _, on := range sel {
		if on {
			n++
		}
	}
	rec.ObserveLabeled(telemetry.MetricRoutingSelectivity, telemetry.LabelMethod, gl.Label,
		float64(n)/float64(gl.Seg.K))
}

// EstimateSearch sums the selected local models' estimates (ŷ = Σ ŷ^[i]).
func (gl *GlobalLocal) EstimateSearch(q []float64, tau float64) float64 {
	s := takeScratch()
	defer putScratch(s)
	sp := telemetry.StartStage(telemetry.StageGlobalRoute)
	masks, xc := gl.selectionMasks(s, [][]float64{q}, []float64{tau})
	sp.End()
	sel := masks[0]
	gl.observeSelectivity(sel)
	sp = telemetry.StartStage(telemetry.StageLocalEval)
	var total float64
	for i, on := range sel {
		if on {
			total += gl.deltaAdjust(i, gl.Locals[i].search(q, tau, sharedDists{d: xc}))
		}
	}
	sp.End()
	return total
}

// EstimateSearchBatch estimates many (q, τ) pairs at once: the global model
// routes the whole batch in one forward pass, queries are grouped by
// selected local model (the same grouping the join path uses), each local
// evaluates its sub-batch, and locals run in parallel on the shared tensor
// pool — the same worker set the GEMM kernels dispatch to, so serving has
// one parallelism budget (cfg.Workers still bounds the training fan-outs).
// Per-query results are bitwise identical to EstimateSearch: the per-row
// network math is batch-size-invariant, and the final reduction sums local
// contributions in ascending segment order, matching the serial loop (float
// addition is not associative).
func (gl *GlobalLocal) EstimateSearchBatch(qs [][]float64, taus []float64) []float64 {
	if len(qs) != len(taus) {
		panic(fmt.Sprintf("model: batch size mismatch: %d queries, %d thresholds", len(qs), len(taus)))
	}
	out := make([]float64, len(qs))
	if len(qs) == 0 {
		return out
	}
	s := takeScratch()
	defer putScratch(s)
	sp := telemetry.StartStage(telemetry.StageGlobalRoute)
	masks, xc := gl.selectionMasks(s, qs, taus)
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
	idxs := make([]int, 0, gl.Seg.K)
	for j := range groups {
		if len(groups[j]) > 0 {
			idxs = append(idxs, j)
		}
	}
	tensor.DefaultPool().Do(len(idxs), func(t int) {
		j := idxs[t]
		gqs, gts := subBatch(qs, taus, groups[j])
		ests[j] = gl.Locals[j].searchBatch(gqs, gts, sharedDists{xc, groups[j]})
	})
	sp.End()
	// Deterministic reduction: ascending segment order per query.
	sp = telemetry.StartStage(telemetry.StageMerge)
	for j, g := range groups {
		for k, i := range g {
			out[i] += gl.deltaAdjust(j, ests[j][k])
		}
	}
	sp.End()
	return out
}

// EstimateJoin routes each query of the set to local models via the global
// model's indicator matrix (mask-based routing), sum-pools the routed
// queries per local model, and sums the local pooled estimates (Fig 6).
func (gl *GlobalLocal) EstimateJoin(qs [][]float64, tau float64) float64 {
	if len(qs) == 0 {
		return 0
	}
	taus := make([]float64, len(qs))
	for i := range taus {
		taus[i] = tau
	}
	s := takeScratch()
	defer putScratch(s)
	sp := telemetry.StartStage(telemetry.StageGlobalRoute)
	masks, xc := gl.selectionMasks(s, qs, taus)
	sp.End()
	for _, m := range masks {
		gl.observeSelectivity(m)
	}
	sp = telemetry.StartStage(telemetry.StageLocalEval)
	var total float64
	var r joinRoute
	for j, local := range gl.Locals {
		if !r.gather(qs, masks, j) {
			continue
		}
		total += gl.deltaAdjustJoin(j, local.joinPooled(r.qs, tau, sharedDists{xc, r.rows}), len(r.qs))
	}
	sp.End()
	return total
}

// joinRoute is the set of join queries routed to one local model: the
// vectors and their batch rows (for the shared distance pass). Its slices
// are reused from local to local.
type joinRoute struct {
	qs   [][]float64
	rows []int
}

// gather fills r with the queries whose mask selects local j and reports
// whether there are any.
func (r *joinRoute) gather(qs [][]float64, masks [][]bool, j int) bool {
	r.qs, r.rows = r.qs[:0], r.rows[:0]
	for i, q := range qs {
		if masks[i][j] {
			r.qs = append(r.qs, q)
			r.rows = append(r.rows, i)
		}
	}
	return len(r.qs) > 0
}

// JoinSegSample is one labeled join training example with per-query
// per-segment labels.
type JoinSegSample struct {
	Qs               [][]float64
	Tau              float64
	PerQuerySegCards [][]float64
}

// FineTuneJoin adapts the trained local models to pooled join estimation:
// for every (set, segment), the queries with nonzero true segment
// cardinality are pooled and the local model is fine-tuned toward the
// summed label. Per the paper, a couple of iterations from the transferred
// search model suffice (§4).
func (gl *GlobalLocal) FineTuneJoin(sets []JoinSegSample, cfg TrainConfig) error {
	if len(sets) == 0 {
		return fmt.Errorf("model: no join training sets")
	}
	perLocal := make([][]JoinSample, gl.Seg.K)
	for _, s := range sets {
		if len(s.PerQuerySegCards) != len(s.Qs) {
			return fmt.Errorf("model: join sample label mismatch: %d labels for %d queries", len(s.PerQuerySegCards), len(s.Qs))
		}
		for j := 0; j < gl.Seg.K; j++ {
			var routed [][]float64
			var card float64
			for qi, q := range s.Qs {
				if c := s.PerQuerySegCards[qi][j]; c > 0 {
					routed = append(routed, q)
					card += c
				}
			}
			if len(routed) == 0 {
				continue
			}
			perLocal[j] = append(perLocal[j], JoinSample{Qs: routed, Tau: s.Tau, Card: card})
		}
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, gl.cfg.Workers)
	errs := make([]error, gl.Seg.K)
	for j, local := range gl.Locals {
		if len(perLocal[j]) == 0 {
			continue
		}
		wg.Add(1)
		go func(j int, local *BasicModel) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			lcfg := cfg
			lcfg.Seed = cfg.Seed + int64(j)*104729
			errs[j] = local.FineTuneJoin(perLocal[j], lcfg)
		}(j, local)
	}
	wg.Wait()
	for j, err := range errs {
		if err != nil {
			return fmt.Errorf("model: join fine-tune local %d: %w", j, err)
		}
	}
	return nil
}

// InsertPoints routes new data points to their nearest segments (§5.3) and
// returns the per-point segment assignment. Labels must be updated by the
// caller (workload.ApplyInserts) before IncrementalTrain.
func (gl *GlobalLocal) InsertPoints(newVecs [][]float64) []int {
	assign := make([]int, len(newVecs))
	base := len(gl.Seg.Assignments)
	for i, v := range newVecs {
		a := gl.Seg.NearestSegment(v)
		assign[i] = a
		gl.Seg.Assignments = append(gl.Seg.Assignments, a)
		gl.Seg.Members[a] = append(gl.Seg.Members[a], base+i)
		gl.Locals[a].MaxCard = float64(len(gl.Seg.Members[a]))
		// Keep the triangle-inequality bound sound: the metric radius must
		// cover the new member.
		if gl.refs != nil {
			if d := dist.Distance(gl.Metric, v, gl.refs[a]); d > gl.MetricRadii[a] {
				gl.MetricRadii[a] = d
			}
		}
	}
	return assign
}

// RemovePoints deletes dataset points by index using swap-remove: each
// removed index is replaced by the then-last point and the tail truncated.
// The caller must apply the identical swap-remove to its vector slice (see
// cardest.Dataset.Remove). It returns the set of segments that lost points,
// for IncrementalTrain. Indices must be unique and in range.
func (gl *GlobalLocal) RemovePoints(indices []int) (map[int]bool, error) {
	n := len(gl.Seg.Assignments)
	seen := make(map[int]bool, len(indices))
	for _, idx := range indices {
		if idx < 0 || idx >= n {
			return nil, fmt.Errorf("model: remove index %d out of range [0,%d)", idx, n)
		}
		if seen[idx] {
			return nil, fmt.Errorf("model: duplicate remove index %d", idx)
		}
		seen[idx] = true
	}
	// Descending order keeps swap targets valid.
	sorted := append([]int(nil), indices...)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	affected := map[int]bool{}
	for _, idx := range sorted {
		last := len(gl.Seg.Assignments) - 1
		affected[gl.Seg.Assignments[idx]] = true
		gl.Seg.Assignments[idx] = gl.Seg.Assignments[last]
		gl.Seg.Assignments = gl.Seg.Assignments[:last]
	}
	// Metric radii are left unchanged: they may now be loose, which keeps
	// the triangle-inequality bound conservative (sound, never unsound).
	// Rebuild member lists from the compacted assignments and refresh the
	// per-segment population caps.
	for i := range gl.Seg.Members {
		gl.Seg.Members[i] = gl.Seg.Members[i][:0]
	}
	for i, a := range gl.Seg.Assignments {
		gl.Seg.Members[a] = append(gl.Seg.Members[a], i)
	}
	for i := range gl.Locals {
		gl.Locals[i].MaxCard = float64(len(gl.Seg.Members[i]))
	}
	return affected, nil
}

// IncrementalTrain retrains only the locals named in affected (plus the
// global model) for a few epochs — the paper's incremental-learning path
// that replaces hours of retraining with minutes (Exp-11).
func (gl *GlobalLocal) IncrementalTrain(samples []SegSample, affected map[int]bool, cfg TrainConfig, gcfg GlobalTrainConfig) error {
	if len(samples) == 0 {
		return fmt.Errorf("model: no incremental samples")
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, gl.cfg.Workers)
	var mu sync.Mutex
	var firstErr error
	for i := range gl.Locals {
		if affected != nil && !affected[i] {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			lcfg := cfg
			lcfg.Seed = cfg.Seed + int64(i)*7919
			if err := gl.Locals[i].Train(gl.localTrainingSet(samples, i, lcfg.Seed), lcfg); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("model: incremental local %d: %w", i, err)
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if gl.Global != nil {
		gs := make([]GlobalSample, len(samples))
		for i, s := range samples {
			gs[i] = GlobalSample{Q: s.Q, Tau: s.Tau, SegCards: s.SegCards}
		}
		return gl.Global.Train(gs, gcfg)
	}
	return nil
}

// Name implements estimator.SearchEstimator.
func (gl *GlobalLocal) Name() string { return gl.Label }

// Family implements estimator.Describer.
func (gl *GlobalLocal) Family() string { return "global-local" }

// TauRange implements estimator.Describer: the locals normalize τ by
// TauScale, so estimates beyond it extrapolate past the trained band.
func (gl *GlobalLocal) TauRange() (min, max float64) { return 0, gl.TauScale }

// SizeBytes sums all local models and the global model (Table 5).
func (gl *GlobalLocal) SizeBytes() int {
	b := 0
	for _, l := range gl.Locals {
		b += nnParamBytes(l)
	}
	if gl.Global != nil {
		b += gl.Global.SizeBytes()
	}
	// Centroids are shared state needed at estimation time.
	for _, c := range gl.Seg.Centroids {
		b += len(c) * 8
	}
	return b
}

// nnParamBytes counts only parameters for GL locals (their anchors are the
// shared centroids, already counted once by SizeBytes).
func nnParamBytes(m *BasicModel) int {
	b := m.SizeBytes()
	for _, a := range m.Anchors {
		b -= len(a) * 8
	}
	return b
}

// --- Serialization ---

type globalLocalSpec struct {
	Label       string
	Variant     int
	Locals      [][]byte
	Global      []byte
	HasGlobal   bool
	Centroids   [][]float64
	Radii       []float64
	MetricRadii []float64
	Metric      int
	TauScale    float64
	Dim         int
	Sigma       float64
}

// MarshalBinary implements encoding.BinaryMarshaler. Segment membership of
// individual points is not serialized — a loaded model can estimate but
// needs re-segmentation for further incremental updates.
func (gl *GlobalLocal) MarshalBinary() ([]byte, error) {
	spec := globalLocalSpec{
		Label:       gl.Label,
		Variant:     int(gl.Variant),
		Centroids:   gl.Seg.Centroids,
		Radii:       gl.Seg.Radii,
		MetricRadii: gl.MetricRadii,
		Metric:      int(gl.Metric),
		TauScale:    gl.TauScale,
		Dim:         gl.Dim,
		Sigma:       gl.Sigma,
	}
	for _, l := range gl.Locals {
		b, err := l.MarshalBinary()
		if err != nil {
			return nil, err
		}
		spec.Locals = append(spec.Locals, b)
	}
	if gl.Global != nil {
		b, err := gl.Global.MarshalBinary()
		if err != nil {
			return nil, err
		}
		spec.Global = b
		spec.HasGlobal = true
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(spec); err != nil {
		return nil, fmt.Errorf("model: marshal %s: %w", gl.Label, err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (gl *GlobalLocal) UnmarshalBinary(data []byte) error {
	var spec globalLocalSpec
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&spec); err != nil {
		return fmt.Errorf("model: unmarshal global-local: %w", err)
	}
	gl.Label = spec.Label
	gl.Variant = Variant(spec.Variant)
	gl.Metric = dist.Metric(spec.Metric)
	gl.TauScale = spec.TauScale
	gl.Dim = spec.Dim
	gl.Sigma = spec.Sigma
	gl.Seg = &cluster.Segmentation{
		K:         len(spec.Centroids),
		Centroids: spec.Centroids,
		Radii:     spec.Radii,
		Members:   make([][]int, len(spec.Centroids)),
	}
	gl.Locals = nil
	for i, lb := range spec.Locals {
		l := &BasicModel{}
		if err := l.UnmarshalBinary(lb); err != nil {
			return fmt.Errorf("model: local %d: %w", i, err)
		}
		gl.Locals = append(gl.Locals, l)
	}
	gl.Global = nil
	if spec.HasGlobal {
		g := &GlobalModel{}
		if err := g.UnmarshalBinary(spec.Global); err != nil {
			return err
		}
		gl.Global = g
	}
	// Rebuild the triangle-bound reference points; the radii were saved.
	gl.MetricRadii = spec.MetricRadii
	if gl.MetricRadii != nil {
		gl.refs = make([][]float64, len(spec.Centroids))
		for i, c := range spec.Centroids {
			ref := c
			if gl.Metric == dist.Angular {
				ref = append([]float64(nil), c...)
				normalizeVec(ref)
			}
			gl.refs[i] = ref
		}
	}
	gl.shareCentroids()
	gl.cfg.fill(gl.Dim)
	return nil
}
