package model

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"simquery/internal/dist"
	"simquery/internal/nn"
	"simquery/internal/telemetry"
	"simquery/internal/tensor"
)

// BasicModel is the learned-embedding estimator of Fig 2 (and, with a CNN
// query branch, the QES model of Fig 3/Fig 7): three embedding networks
// E1 (query), E2 (threshold, monotone), E3 (anchor distances) feeding an
// output network F that regresses log-cardinality. With anchors set to
// segment samples it is a Local+ local model; with anchors set to the
// segment centroids it is a GL local model (x_C, Fig 5).
type BasicModel struct {
	Label string

	E1 *nn.Sequential
	E2 *nn.Sequential
	E3 *nn.Sequential // nil disables the distance branch
	F  *nn.Sequential

	// Anchors are the k reference vectors whose distances form x_D/x_C.
	Anchors [][]float64
	Metric  dist.Metric
	// TauScale normalizes thresholds (usually the dataset's τ_max).
	TauScale float64
	// DistScale normalizes anchor distances.
	DistScale float64
	Dim       int
	// MaxCard caps estimates at a known population bound (segment size for
	// local models, dataset size otherwise); 0 disables the cap.
	MaxCard float64

	zqDim, ztDim, zdDim int

	// join caches (forwardJoin → backwardJoin)
	joinRows int

	// Mixed-precision serving (precision.go): lowGen stamps the parameter
	// generation, low32/low8 cache the lowered inference planes keyed on
	// it. Every mutation point bumps lowGen; lowered() re-lowers lazily.
	lowGen atomic.Uint64
	low32  atomic.Pointer[loweredBasic]
	low8   atomic.Pointer[loweredBasic]
}

// modelParams concatenates all trainable parameters.
func (m *BasicModel) params() []*nn.Param {
	ps := append([]*nn.Param{}, m.E1.Params()...)
	ps = append(ps, m.E2.Params()...)
	if m.E3 != nil {
		ps = append(ps, m.E3.Params()...)
	}
	return append(ps, m.F.Params()...)
}

// NewMLPModel builds the fully connected variant (Table 2 row 9).
func NewMLPModel(label string, rng *rand.Rand, dim int, anchors [][]float64, metric dist.Metric, tauScale float64, a Arch) (*BasicModel, error) {
	e1 := buildQueryMLP(rng, dim, a)
	return assemble(label, rng, e1, dim, anchors, metric, tauScale, a)
}

// NewQESModel builds the query-segmentation CNN variant (Table 2 row 1).
func NewQESModel(label string, rng *rand.Rand, dim, segments int, cfgs []ConvConfig, anchors [][]float64, metric dist.Metric, tauScale float64, a Arch) (*BasicModel, error) {
	e1, err := buildQueryCNN(rng, dim, segments, cfgs, a, 0)
	if err != nil {
		return nil, err
	}
	return assemble(label, rng, e1, dim, anchors, metric, tauScale, a)
}

func assemble(label string, rng *rand.Rand, e1 *nn.Sequential, dim int, anchors [][]float64, metric dist.Metric, tauScale float64, a Arch) (*BasicModel, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("model: invalid dim %d", dim)
	}
	if tauScale <= 0 {
		return nil, fmt.Errorf("model: tau scale must be positive, got %v", tauScale)
	}
	m := &BasicModel{
		Label:     label,
		E1:        e1,
		E2:        buildTauNet(rng, a),
		Anchors:   anchors,
		Metric:    metric,
		TauScale:  tauScale,
		DistScale: tauScale,
		Dim:       dim,
	}
	m.zqDim = e1.OutDim(dim)
	m.ztDim = m.E2.OutDim(1)
	if len(anchors) > 0 {
		m.E3 = buildDistNet(rng, len(anchors), a)
		m.zdDim = m.E3.OutDim(len(anchors))
	}
	m.F = buildOutputNet(rng, m.zqDim+m.ztDim+m.zdDim, a)
	return m, nil
}

// SetOutputBias initializes F's final bias toward the mean log-cardinality,
// which removes most of the warm-up epochs.
func (m *BasicModel) SetOutputBias(meanLogCard float64) {
	last := m.F.Layers[len(m.F.Layers)-1].(*nn.Dense)
	last.B.W[0] = meanLogCard
	m.bumpLowGen()
}

// forward runs a labeled batch and returns the N×1 log-cardinality
// predictions; train=true caches for backward.
func (m *BasicModel) forward(qs [][]float64, taus []float64, train bool) *tensor.Matrix {
	if !train {
		return m.infer(qs, taus, sharedDists{}, nil)
	}
	zq := m.E1.Forward(queryBatch(nil, qs, m.Dim), true)
	zt := m.E2.Forward(tauBatch(nil, taus, m.TauScale), true)
	var z *tensor.Matrix
	if m.E3 != nil {
		zd := m.E3.Forward(distBatch(nil, qs, m.Anchors, m.Metric, m.DistScale), true)
		z = concatCols(nil, zq, zt, zd)
	} else {
		z = concatCols(nil, zq, zt)
	}
	return m.F.Forward(z, true)
}

// infer is the pure inference path: it reads only trained parameters and
// writes only into the caller-owned scratch, so one trained model serves
// many goroutines (each with its own scratch). The returned matrix aliases
// scratch memory — copy results out before releasing the scratch. Input
// feature construction (x_Q stacking, τ scaling, anchor distances) runs
// first under the feature_build span; the arena hands each call a distinct
// region, so ordering builds before network passes changes nothing else.
// The anchor distances come from xc when it holds a GL estimate's shared
// centroid-distance pass (a GL local's anchors are the centroids).
func (m *BasicModel) infer(qs [][]float64, taus []float64, xc sharedDists, s *nn.Scratch) *tensor.Matrix {
	sp := telemetry.StartStage(telemetry.StageFeatureBuild)
	xq := queryBatch(s, qs, m.Dim)
	xt := tauBatch(s, taus, m.TauScale)
	var xd *tensor.Matrix
	if m.E3 != nil {
		xd = xc.features(s, qs, m.Anchors, m.Metric, m.DistScale)
	}
	sp.End()
	zq := m.E1.Infer(xq, s)
	zt := m.E2.Infer(xt, s)
	var z *tensor.Matrix
	if m.E3 != nil {
		zd := m.E3.Infer(xd, s)
		z = concatCols(s, zq, zt, zd)
	} else {
		z = concatCols(s, zq, zt)
	}
	return m.F.Infer(z, s)
}

// backward distributes the output gradient through F and the encoders.
func (m *BasicModel) backward(dy *tensor.Matrix) {
	dz := m.F.Backward(dy)
	var parts []*tensor.Matrix
	if m.E3 != nil {
		parts = splitCols(dz, m.zqDim, m.ztDim, m.zdDim)
		m.E3.Backward(parts[2])
	} else {
		parts = splitCols(dz, m.zqDim, m.ztDim)
	}
	m.E1.Backward(parts[0])
	m.E2.Backward(parts[1])
}

// Train fits the model with Algorithm 1: mini-batch Adam on the hybrid
// MAPE+Q-error loss over log-cardinality.
func (m *BasicModel) Train(samples []Sample, cfg TrainConfig) error {
	if len(samples) == 0 {
		return fmt.Errorf("model: no training samples")
	}
	cfg.fill()
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Warm-start the output bias at the mean log-cardinality.
	var mean float64
	for _, s := range samples {
		mean += math.Log(s.Card + 1)
	}
	m.SetOutputBias(mean / float64(len(samples)))

	opt := nn.NewAdam(cfg.LR)
	loss := nn.NewHybridLoss(cfg.Lambda)
	params := m.params()
	rec := telemetry.Default()
	idx := rng.Perm(len(samples))
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		// Linear learning-rate decay to 10% stabilizes the tail epochs.
		opt.LR = cfg.LR * (1 - 0.9*float64(epoch)/float64(cfg.Epochs))
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochLoss float64
		var batches int
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			batch := idx[start:end]
			qs := make([][]float64, len(batch))
			taus := make([]float64, len(batch))
			cards := make([]float64, len(batch))
			for bi, si := range batch {
				qs[bi] = samples[si].Q
				taus[bi] = samples[si].Tau
				cards[bi] = samples[si].Card
			}
			pred := m.forward(qs, taus, true)
			lv, grad := loss.Compute(pred, cards)
			epochLoss += lv
			batches++
			m.backward(grad)
			if cfg.GradClip > 0 {
				nn.ClipGradNorm(params, cfg.GradClip)
			}
			opt.Step(params)
		}
		if rec.Enabled() && batches > 0 {
			rec.Observe(telemetry.MetricTrainEpochLoss, epochLoss/float64(batches))
			rec.Count(telemetry.MetricTrainEpochsTotal, 1)
		}
	}
	m.bumpLowGen()
	return nil
}

// EstimateSearch returns the estimated cardinality for one query.
func (m *BasicModel) EstimateSearch(q []float64, tau float64) float64 {
	return m.search(q, tau, sharedDists{})
}

// search is EstimateSearch with the anchor distances read from xc when it
// holds a shared pass.
func (m *BasicModel) search(q []float64, tau float64, xc sharedDists) float64 {
	s := takeScratch()
	defer putScratch(s)
	pred := m.infer([][]float64{q}, []float64{tau}, xc, s)
	return m.capCard(expCard(pred.Data[0]))
}

// EstimateSearchBatch estimates many (q, τ) pairs in one forward pass.
func (m *BasicModel) EstimateSearchBatch(qs [][]float64, taus []float64) []float64 {
	return m.searchBatch(qs, taus, sharedDists{})
}

// searchBatch is EstimateSearchBatch with the anchor distances read from xc
// when it holds a shared pass.
func (m *BasicModel) searchBatch(qs [][]float64, taus []float64, xc sharedDists) []float64 {
	if len(qs) != len(taus) {
		panic(fmt.Sprintf("model: batch size mismatch: %d queries, %d thresholds", len(qs), len(taus)))
	}
	s := takeScratch()
	defer putScratch(s)
	pred := m.infer(qs, taus, xc, s)
	out := make([]float64, pred.Rows)
	for i := range out {
		out[i] = m.capCard(expCard(pred.Data[i]))
	}
	return out
}

// capCard applies the population bound.
func (m *BasicModel) capCard(est float64) float64 {
	if m.MaxCard > 0 && est > m.MaxCard {
		return m.MaxCard
	}
	return est
}

// expCard converts a clamped log-cardinality to a cardinality.
func expCard(y float64) float64 {
	return math.Exp(tensor.Clamp(y, -30, 30))
}

// Name implements estimator.SearchEstimator.
func (m *BasicModel) Name() string { return m.Label }

// Family implements estimator.Describer.
func (m *BasicModel) Family() string { return "basic-nn" }

// TauRange implements estimator.Describer: thresholds are normalized by
// TauScale, so estimates beyond it extrapolate past the trained band.
func (m *BasicModel) TauRange() (min, max float64) { return 0, m.TauScale }

// SizeBytes reports parameters plus anchor payload (Table 5 accounting).
func (m *BasicModel) SizeBytes() int {
	b := nn.SizeBytes(m.params())
	for _, a := range m.Anchors {
		b += len(a) * 8
	}
	return b
}

// --- Join support (sum pooling, §4) ---

// forwardJoin embeds every query of a set, sum-pools the query and distance
// embeddings, and runs the output module once. It returns the predicted
// log of the set's total cardinality.
func (m *BasicModel) forwardJoin(qs [][]float64, tau float64, train bool) *tensor.Matrix {
	if !train {
		return m.inferJoin(qs, tau, sharedDists{}, nil)
	}
	zqAll := m.E1.Forward(queryBatch(nil, qs, m.Dim), true)
	zq := sumRows(nil, zqAll)
	zt := m.E2.Forward(tauBatch(nil, []float64{tau}, m.TauScale), true)
	var z *tensor.Matrix
	if m.E3 != nil {
		zdAll := m.E3.Forward(distBatch(nil, qs, m.Anchors, m.Metric, m.DistScale), true)
		z = concatCols(nil, zq, zt, sumRows(nil, zdAll))
	} else {
		z = concatCols(nil, zq, zt)
	}
	m.joinRows = len(qs)
	return m.F.Forward(z, true)
}

// inferJoin is the pure pooled-join inference path (see infer).
func (m *BasicModel) inferJoin(qs [][]float64, tau float64, xc sharedDists, s *nn.Scratch) *tensor.Matrix {
	zqAll := m.E1.Infer(queryBatch(s, qs, m.Dim), s)
	zq := sumRows(s, zqAll)
	zt := m.E2.Infer(tauBatch(s, []float64{tau}, m.TauScale), s)
	var z *tensor.Matrix
	if m.E3 != nil {
		zdAll := m.E3.Infer(xc.features(s, qs, m.Anchors, m.Metric, m.DistScale), s)
		z = concatCols(s, zq, zt, sumRows(s, zdAll))
	} else {
		z = concatCols(s, zq, zt)
	}
	return m.F.Infer(z, s)
}

// backwardJoin propagates the join gradient, broadcasting through the sum
// pooling.
func (m *BasicModel) backwardJoin(dy *tensor.Matrix) {
	dz := m.F.Backward(dy)
	var parts []*tensor.Matrix
	if m.E3 != nil {
		parts = splitCols(dz, m.zqDim, m.ztDim, m.zdDim)
		m.E3.Backward(broadcastRows(parts[2], m.joinRows))
	} else {
		parts = splitCols(dz, m.zqDim, m.ztDim)
	}
	m.E1.Backward(broadcastRows(parts[0], m.joinRows))
	m.E2.Backward(parts[1])
}

// EstimateJoinPooled estimates a query set's total cardinality with one
// output-module evaluation (the batch-embedding path of Fig 6).
func (m *BasicModel) EstimateJoinPooled(qs [][]float64, tau float64) float64 {
	return m.joinPooled(qs, tau, sharedDists{})
}

// joinPooled is EstimateJoinPooled with the anchor distances read from xc
// when it holds a shared pass.
func (m *BasicModel) joinPooled(qs [][]float64, tau float64, xc sharedDists) float64 {
	if len(qs) == 0 {
		return 0
	}
	s := takeScratch()
	defer putScratch(s)
	pred := m.inferJoin(qs, tau, xc, s)
	est := expCard(pred.Data[0])
	if m.MaxCard > 0 {
		// A set of |Q| queries can match at most |Q| × population pairs.
		if cap := m.MaxCard * float64(len(qs)); est > cap {
			est = cap
		}
	}
	return est
}

// JoinSample is one labeled join training example for pooled fine-tuning.
type JoinSample struct {
	Qs   [][]float64
	Tau  float64
	Card float64
}

// FineTuneJoin adapts a trained search model to pooled join estimation —
// the paper reports 2–3 iterations suffice (§4).
func (m *BasicModel) FineTuneJoin(sets []JoinSample, cfg TrainConfig) error {
	if len(sets) == 0 {
		return fmt.Errorf("model: no join training sets")
	}
	cfg.fill()
	rng := rand.New(rand.NewSource(cfg.Seed))
	opt := nn.NewAdam(cfg.LR)
	loss := nn.NewHybridLoss(cfg.Lambda)
	params := m.params()
	idx := rng.Perm(len(sets))
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for _, si := range idx {
			s := sets[si]
			if len(s.Qs) == 0 {
				continue
			}
			pred := m.forwardJoin(s.Qs, s.Tau, true)
			_, grad := loss.Compute(pred, []float64{s.Card})
			m.backwardJoin(grad)
			if cfg.GradClip > 0 {
				nn.ClipGradNorm(params, cfg.GradClip)
			}
			opt.Step(params)
		}
	}
	m.bumpLowGen()
	return nil
}

// --- Serialization ---

// basicModelSpec is the gob wire format.
type basicModelSpec struct {
	Label               string
	E1, E2, E3, F       nn.LayerSpec
	HasE3               bool
	Anchors             [][]float64
	Metric              int
	TauScale, DistScale float64
	Dim                 int
	MaxCard             float64
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (m *BasicModel) MarshalBinary() ([]byte, error) {
	spec := basicModelSpec{
		Label:     m.Label,
		E1:        m.E1.Spec(),
		E2:        m.E2.Spec(),
		F:         m.F.Spec(),
		HasE3:     m.E3 != nil,
		Anchors:   m.Anchors,
		Metric:    int(m.Metric),
		TauScale:  m.TauScale,
		DistScale: m.DistScale,
		Dim:       m.Dim,
		MaxCard:   m.MaxCard,
	}
	if m.E3 != nil {
		spec.E3 = m.E3.Spec()
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(spec); err != nil {
		return nil, fmt.Errorf("model: marshal %s: %w", m.Label, err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *BasicModel) UnmarshalBinary(data []byte) error {
	var spec basicModelSpec
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&spec); err != nil {
		return fmt.Errorf("model: unmarshal: %w", err)
	}
	e1, err := nn.FromSpec(spec.E1)
	if err != nil {
		return fmt.Errorf("model: E1: %w", err)
	}
	e2, err := nn.FromSpec(spec.E2)
	if err != nil {
		return fmt.Errorf("model: E2: %w", err)
	}
	f, err := nn.FromSpec(spec.F)
	if err != nil {
		return fmt.Errorf("model: F: %w", err)
	}
	m.Label = spec.Label
	m.E1 = e1.(*nn.Sequential)
	m.E2 = e2.(*nn.Sequential)
	m.F = f.(*nn.Sequential)
	m.E3 = nil
	if spec.HasE3 {
		e3, err := nn.FromSpec(spec.E3)
		if err != nil {
			return fmt.Errorf("model: E3: %w", err)
		}
		m.E3 = e3.(*nn.Sequential)
	}
	m.Anchors = spec.Anchors
	m.Metric = dist.Metric(spec.Metric)
	m.TauScale = spec.TauScale
	m.DistScale = spec.DistScale
	m.Dim = spec.Dim
	m.MaxCard = spec.MaxCard
	m.zqDim = m.E1.OutDim(m.Dim)
	m.ztDim = m.E2.OutDim(1)
	if m.E3 != nil {
		m.zdDim = m.E3.OutDim(len(m.Anchors))
	} else {
		m.zdDim = 0
	}
	m.bumpLowGen()
	return nil
}
