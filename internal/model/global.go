package model

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"sync/atomic"

	"simquery/internal/dist"
	"simquery/internal/nn"
	"simquery/internal/telemetry"
	"simquery/internal/tensor"
)

// GlobalModel is the global discriminative model G of Fig 5: given a query,
// a threshold, and the query's distances to all segment centroids (x_C), it
// scores each data segment with the probability that the segment contains
// objects within τ of the query. A learnable per-segment threshold (Bias
// layer) precedes the sigmoid, keeping the probability monotone in τ
// (§5.1). Training uses the cardinality-weighted BCE loss of §3.3
// (Algorithm 2).
type GlobalModel struct {
	E4 *nn.Sequential // query embedding
	E5 *nn.Sequential // threshold embedding (monotone)
	E6 *nn.Sequential // centroid-distance embedding
	G  *nn.Sequential // head: dense → ReLU → dense → Bias (logits)

	Centroids [][]float64
	Metric    dist.Metric
	TauScale  float64
	Dim       int
	Segments  int

	z4, z5, z6 int

	// Mixed-precision serving (precision.go): the router has a single f32
	// lowered plane, generation-stamped like BasicModel's.
	lowGen atomic.Uint64
	low32  atomic.Pointer[loweredGlobal]
}

// NewGlobalModel builds G for n segments.
func NewGlobalModel(rng *rand.Rand, dim int, centroids [][]float64, metric dist.Metric, tauScale float64, a Arch) (*GlobalModel, error) {
	n := len(centroids)
	if n == 0 {
		return nil, fmt.Errorf("model: global model needs at least one centroid")
	}
	if dim <= 0 || tauScale <= 0 {
		return nil, fmt.Errorf("model: invalid global model config dim=%d tauScale=%v", dim, tauScale)
	}
	g := &GlobalModel{
		E4:        buildQueryMLP(rng, dim, a),
		E5:        buildTauNet(rng, a),
		E6:        buildDistNet(rng, n, a),
		Centroids: centroids,
		Metric:    metric,
		TauScale:  tauScale,
		Dim:       dim,
		Segments:  n,
	}
	g.z4 = g.E4.OutDim(dim)
	g.z5 = g.E5.OutDim(1)
	g.z6 = g.E6.OutDim(n)
	g.G = nn.NewSequential(
		nn.NewDense(rng, g.z4+g.z5+g.z6, a.OutHidden),
		nn.NewReLU(),
		nn.NewDense(rng, a.OutHidden, n),
		nn.NewBias(n),
	)
	return g, nil
}

func (g *GlobalModel) params() []*nn.Param {
	ps := append([]*nn.Param{}, g.E4.Params()...)
	ps = append(ps, g.E5.Params()...)
	ps = append(ps, g.E6.Params()...)
	return append(ps, g.G.Params()...)
}

// forward produces per-segment logits for a batch.
func (g *GlobalModel) forward(qs [][]float64, taus []float64, train bool) *tensor.Matrix {
	if !train {
		return g.infer(qs, taus, sharedDists{}, nil)
	}
	z4 := g.E4.Forward(queryBatch(nil, qs, g.Dim), true)
	z5 := g.E5.Forward(tauBatch(nil, taus, g.TauScale), true)
	z6 := g.E6.Forward(distBatch(nil, qs, g.Centroids, g.Metric, g.TauScale), true)
	return g.G.Forward(concatCols(nil, z4, z5, z6), true)
}

// infer is the pure inference path for the logits (see BasicModel.infer for
// the scratch-ownership contract; feature builds run first under the
// feature_build span). x_C comes from xc when it holds the GL estimate's
// shared distance pass.
func (g *GlobalModel) infer(qs [][]float64, taus []float64, xc sharedDists, s *nn.Scratch) *tensor.Matrix {
	sp := telemetry.StartStage(telemetry.StageFeatureBuild)
	xq := queryBatch(s, qs, g.Dim)
	xt := tauBatch(s, taus, g.TauScale)
	xd := xc.features(s, qs, g.Centroids, g.Metric, g.TauScale)
	sp.End()
	z4 := g.E4.Infer(xq, s)
	z5 := g.E5.Infer(xt, s)
	z6 := g.E6.Infer(xd, s)
	return g.G.Infer(concatCols(s, z4, z5, z6), s)
}

func (g *GlobalModel) backward(dy *tensor.Matrix) {
	dz := g.G.Backward(dy)
	parts := splitCols(dz, g.z4, g.z5, g.z6)
	g.E4.Backward(parts[0])
	g.E5.Backward(parts[1])
	g.E6.Backward(parts[2])
}

// GlobalSample is one labeled training example: which segments contain
// similar objects (R) and the per-segment true cardinalities (for the
// penalty weights ε).
type GlobalSample struct {
	Q        []float64
	Tau      float64
	SegCards []float64
}

// GlobalTrainConfig controls Algorithm 2.
type GlobalTrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	// Penalty enables the cardinality-weighted ε term; disabling it is the
	// Fig 9 ablation.
	Penalty  bool
	GradClip float64
	Seed     int64
}

// DefaultGlobalTrainConfig returns the harness defaults with the penalty on
// (the paper's default).
func DefaultGlobalTrainConfig(seed int64) GlobalTrainConfig {
	return GlobalTrainConfig{Epochs: 30, BatchSize: 64, LR: 5e-3, Penalty: true, GradClip: 10, Seed: seed}
}

// Train fits G with the weighted BCE loss of §3.3.
func (g *GlobalModel) Train(samples []GlobalSample, cfg GlobalTrainConfig) error {
	if len(samples) == 0 {
		return fmt.Errorf("model: no global training samples")
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 30
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if cfg.LR <= 0 {
		cfg.LR = 5e-3
	}
	for i, s := range samples {
		if len(s.SegCards) != g.Segments {
			return fmt.Errorf("model: sample %d has %d segment labels, want %d", i, len(s.SegCards), g.Segments)
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	opt := nn.NewAdam(cfg.LR)
	params := g.params()
	rec := telemetry.Default()
	idx := rng.Perm(len(samples))
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
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
			labels := tensor.NewMatrix(len(batch), g.Segments)
			var eps *tensor.Matrix
			if cfg.Penalty {
				eps = tensor.NewMatrix(len(batch), g.Segments)
			}
			for bi, si := range batch {
				s := samples[si]
				qs[bi] = s.Q
				taus[bi] = s.Tau
				lo, hi := tensor.MinMax(s.SegCards)
				for j, c := range s.SegCards {
					if c > 0 {
						labels.Set(bi, j, 1)
					}
					if eps != nil && hi > lo {
						eps.Set(bi, j, (c-lo)/(hi-lo))
					}
				}
			}
			logits := g.forward(qs, taus, true)
			lv, grad := nn.WeightedBCELoss{}.Compute(logits, labels, eps)
			epochLoss += lv
			batches++
			g.backward(grad)
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
	g.bumpLowGen()
	return nil
}

// probs is the probability matrix of a batch (one row per query) in
// scratch memory, with x_C read from xc when it holds the shared pass.
func (g *GlobalModel) probs(s *nn.Scratch, qs [][]float64, taus []float64, xc sharedDists) *tensor.Matrix {
	p := g.infer(qs, taus, xc, s)
	for i, v := range p.Data {
		p.Data[i] = tensor.Sigmoid(v)
	}
	return p
}

// Probs returns the per-segment selection probabilities I^[i] for one
// query.
func (g *GlobalModel) Probs(q []float64, tau float64) []float64 {
	s := takeScratch()
	defer putScratch(s)
	return append([]float64(nil), g.probs(s, [][]float64{q}, []float64{tau}, sharedDists{}).Data...)
}

// ProbsBatch returns selection probabilities for many queries at once.
func (g *GlobalModel) ProbsBatch(qs [][]float64, taus []float64) [][]float64 {
	s := takeScratch()
	defer putScratch(s)
	p := g.probs(s, qs, taus, sharedDists{})
	// One backing array for all rows, so per-row allocations don't
	// dominate a batch's alloc count.
	out := make([][]float64, p.Rows)
	flat := append([]float64(nil), p.Data...)
	for i := range out {
		out[i] = flat[i*g.Segments : (i+1)*g.Segments]
	}
	return out
}

// Select applies the discriminative threshold σ (§5.1's "const value, e.g.,
// 0.5") to one query's probabilities.
func (g *GlobalModel) Select(q []float64, tau, sigma float64) []bool {
	probs := g.Probs(q, tau)
	out := make([]bool, len(probs))
	for i, p := range probs {
		out[i] = p > sigma
	}
	return out
}

// SizeBytes reports parameters plus centroid payload.
func (g *GlobalModel) SizeBytes() int {
	b := nn.SizeBytes(g.params())
	for _, c := range g.Centroids {
		b += len(c) * 8
	}
	return b
}

// globalModelSpec is the gob wire format.
type globalModelSpec struct {
	E4, E5, E6, G nn.LayerSpec
	Centroids     [][]float64
	Metric        int
	TauScale      float64
	Dim, Segments int
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (g *GlobalModel) MarshalBinary() ([]byte, error) {
	spec := globalModelSpec{
		E4: g.E4.Spec(), E5: g.E5.Spec(), E6: g.E6.Spec(), G: g.G.Spec(),
		Centroids: g.Centroids, Metric: int(g.Metric),
		TauScale: g.TauScale, Dim: g.Dim, Segments: g.Segments,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(spec); err != nil {
		return nil, fmt.Errorf("model: marshal global: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (g *GlobalModel) UnmarshalBinary(data []byte) error {
	var spec globalModelSpec
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&spec); err != nil {
		return fmt.Errorf("model: unmarshal global: %w", err)
	}
	nets := make([]*nn.Sequential, 4)
	for i, ls := range []nn.LayerSpec{spec.E4, spec.E5, spec.E6, spec.G} {
		l, err := nn.FromSpec(ls)
		if err != nil {
			return fmt.Errorf("model: global net %d: %w", i, err)
		}
		nets[i] = l.(*nn.Sequential)
	}
	g.E4, g.E5, g.E6, g.G = nets[0], nets[1], nets[2], nets[3]
	g.Centroids = spec.Centroids
	g.Metric = dist.Metric(spec.Metric)
	g.TauScale = spec.TauScale
	g.Dim = spec.Dim
	g.Segments = spec.Segments
	g.z4 = g.E4.OutDim(g.Dim)
	g.z5 = g.E5.OutDim(1)
	g.z6 = g.E6.OutDim(g.Segments)
	g.bumpLowGen()
	return nil
}
