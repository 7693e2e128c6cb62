package cardest

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"simquery/internal/baseline"
	"simquery/internal/cardnet"
	"simquery/internal/estimator"
	"simquery/internal/model"
	"simquery/internal/workload"
)

// TrainOptions configures Train. The zero value plus a Method is valid.
type TrainOptions struct {
	// Method is the Table 2 name: "gl+", "gl-cnn", "gl-mlp", "local+",
	// "qes", "mlp", "cardnet", "sampling", "kernel" — plus "prototype",
	// the query-driven baseline of the paper's related work [8, 9].
	Method string
	// Segments is the data-segment count for the global-local family
	// (default 16).
	Segments int
	// QuerySegments is the query-segmentation count for CNN models
	// (default 8).
	QuerySegments int
	// Epochs per model (default 30).
	Epochs int
	// SampleRatio for "sampling"/"kernel" (default 0.1 / 0.01).
	SampleRatio float64
	Seed        int64
}

// Train fits the named estimator on labeled training queries.
func Train(d *Dataset, train []Query, opts TrainOptions) (Estimator, error) {
	method := strings.ToLower(strings.TrimSpace(opts.Method))
	if opts.Segments <= 0 {
		opts.Segments = 16
	}
	if opts.QuerySegments <= 0 {
		opts.QuerySegments = 8
	}
	cfg := model.DefaultTrainConfig(opts.Seed + 1)
	if opts.Epochs > 0 {
		cfg.Epochs = opts.Epochs
	}
	switch method {
	case "sampling":
		ratio := opts.SampleRatio
		if ratio <= 0 {
			ratio = 0.1
		}
		s, err := baseline.NewSampling(fmt.Sprintf("Sampling (%.0f%%)", ratio*100), d.inner, ratio, opts.Seed)
		if err != nil {
			return nil, err
		}
		return measured{s, d.Dim()}, nil
	case "kernel":
		ratio := opts.SampleRatio
		if ratio <= 0 {
			ratio = 0.01
		}
		k, err := baseline.NewKernel("Kernel-based", d.inner, ratio, opts.Seed)
		if err != nil {
			return nil, err
		}
		return measured{k, d.Dim()}, nil
	}

	if len(train) == 0 {
		return nil, fmt.Errorf("cardest: method %q needs labeled training queries", opts.Method)
	}
	samples := make([]model.Sample, len(train))
	// Normalize thresholds by the largest training threshold so the
	// monotone embedding sees inputs spanning ~[0,1]; τ_max is only a cap.
	tauScale := 0.0
	for i, q := range train {
		samples[i] = model.Sample{Q: q.Vec, Tau: q.Tau, Card: q.Card}
		if q.Tau > tauScale {
			tauScale = q.Tau
		}
	}
	if tauScale <= 0 {
		tauScale = d.TauMax()
	}

	switch method {
	case "prototype":
		ps := make([]baseline.PrototypeSample, len(train))
		for i, q := range train {
			ps[i] = baseline.PrototypeSample{Q: q.Vec, Tau: q.Tau, Card: q.Card}
		}
		p, err := baseline.NewPrototype("Prototype", ps, opts.Segments, 3, d.inner.Metric, opts.Seed+8)
		if err != nil {
			return nil, err
		}
		return measured{p, d.Dim()}, nil
	case "mlp", "qes":
		anchors := sampleAnchors(d, 8, opts.Seed+2)
		var (
			m   *model.BasicModel
			err error
		)
		rng := rand.New(rand.NewSource(opts.Seed + 3))
		if method == "mlp" {
			m, err = model.NewMLPModel("MLP", rng, d.Dim(), anchors, d.inner.Metric, tauScale, model.DefaultArch())
		} else {
			m, err = model.NewQESModel("QES", rng, d.Dim(), opts.QuerySegments, model.DefaultConvConfigs(), anchors, d.inner.Metric, tauScale, model.DefaultArch())
		}
		if err != nil {
			return nil, err
		}
		m.MaxCard = float64(d.Size())
		if err := m.Train(samples, cfg); err != nil {
			return nil, err
		}
		return basicEstimator{m}, nil
	case "cardnet":
		c, err := cardnet.New("CardNet", d.Dim(), cardnet.Config{TauScale: tauScale, Seed: opts.Seed + 4})
		if err != nil {
			return nil, err
		}
		c.MaxCard = float64(d.Size())
		cs := make([]cardnet.Sample, len(samples))
		for i, s := range samples {
			cs[i] = cardnet.Sample{Q: s.Q, Tau: s.Tau, Card: s.Card}
		}
		if err := c.Train(cs, cardnet.TrainConfig{Epochs: cfg.Epochs, Seed: opts.Seed + 5}); err != nil {
			return nil, err
		}
		return measured{c, d.Dim()}, nil
	case "local+", "gl-mlp", "gl-cnn", "gl+":
		variant := map[string]model.Variant{
			"local+": model.LocalPlus,
			"gl-mlp": model.GLMLP,
			"gl-cnn": model.GLCNN,
			"gl+":    model.GLPlus,
		}[method]
		gl, err := model.NewGlobalLocal(variant.String(), d.Vectors(), d.inner.Metric, tauScale, model.GLConfig{
			Variant:       variant,
			Segments:      opts.Segments,
			QuerySegments: opts.QuerySegments,
			Seed:          opts.Seed + 6,
		})
		if err != nil {
			return nil, err
		}
		// Per-segment labels under the model's own segmentation.
		wq := make([]workload.Query, len(train))
		for i, q := range train {
			wq[i] = workload.Query{Vec: q.Vec, Tau: q.Tau, Card: q.Card}
		}
		workload.AttachSegmentLabels(d.inner, gl.Seg, wq, 0)
		segSamples := make([]model.SegSample, len(wq))
		for i, q := range wq {
			segSamples[i] = model.SegSample{Q: q.Vec, Tau: q.Tau, SegCards: q.SegCards}
		}
		gcfg := model.DefaultGlobalTrainConfig(opts.Seed + 7)
		gcfg.Epochs = cfg.Epochs
		if err := gl.Train(segSamples, cfg, gcfg); err != nil {
			return nil, err
		}
		return &GlobalLocalEstimator{gl: gl, ds: d}, nil
	default:
		return nil, fmt.Errorf("cardest: unknown method %q", opts.Method)
	}
}

// TauAnchors picks k cache-anchor thresholds at evenly spaced quantiles of
// the workload's τ distribution (deduplicated, strictly increasing) — the
// data-driven alternative to NewEstimateCache's uniform spacing: anchors
// land where queries actually are, so interpolation spans are short in the
// dense part of the τ range. Returns nil when the workload has fewer than
// two distinct positive thresholds.
func TauAnchors(queries []Query, k int) []float64 {
	if k < 2 {
		k = 8
	}
	taus := make([]float64, 0, len(queries))
	for _, q := range queries {
		if q.Tau > 0 {
			taus = append(taus, q.Tau)
		}
	}
	sort.Float64s(taus)
	out := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		idx := i * (len(taus) - 1) / (k - 1)
		if idx < 0 || idx >= len(taus) {
			break
		}
		t := taus[idx]
		if len(out) == 0 || t > out[len(out)-1] {
			out = append(out, t)
		}
	}
	if len(out) < 2 {
		return nil
	}
	return out
}

func sampleAnchors(d *Dataset, k int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, k)
	for i := range out {
		out[i] = d.Vectors()[rng.Intn(d.Size())]
	}
	return out
}

// measured wraps an Estimator so every call runs through the shared
// instrumentation helpers in internal/estimator — per-method latency
// histograms, estimate counters, and the serial-fallback counter. It is the
// facade for estimators whose concrete type the rest of the package does
// not need (sampling, kernel, prototype, CardNet); GlobalLocalEstimator and
// basicEstimator instrument their own methods instead because callers
// type-assert them. Save unwraps it (see toEnvelope).
type measured struct {
	inner Estimator
	dim   int // the dataset's vector dimension
}

// queryDim implements dimensioned.
func (m measured) queryDim() int { return m.dim }

// queryDim implements dimensioned.
func (b basicEstimator) queryDim() int { return b.Dim }

// queryDim implements dimensioned.
func (g *GlobalLocalEstimator) queryDim() int { return g.gl.Dim }

// Name implements Estimator.
func (m measured) Name() string { return m.inner.Name() }

// EstimateSearch implements Estimator with latency/throughput recording.
func (m measured) EstimateSearch(q []float64, tau float64) float64 {
	return estimator.Search(m.inner, q, tau)
}

// EstimateSearchBatch implements Estimator; a serial fallback inside the
// wrapped estimator is counted by the shared helper.
func (m measured) EstimateSearchBatch(qs [][]float64, taus []float64) []float64 {
	return estimator.SearchBatch(m.inner, qs, taus)
}

// EstimateJoin implements Estimator with join-latency recording.
func (m measured) EstimateJoin(qs [][]float64, tau float64) float64 {
	return estimator.Join(m.inner, qs, tau)
}

// SizeBytes implements Estimator.
func (m measured) SizeBytes() int { return m.inner.SizeBytes() }

// basicEstimator adapts BasicModel (no pooled join path without
// fine-tuning: joins are sums of searches).
type basicEstimator struct {
	*model.BasicModel
}

// EstimateSearch implements Estimator with latency/throughput recording.
func (b basicEstimator) EstimateSearch(q []float64, tau float64) float64 {
	return estimator.Search(b.BasicModel, q, tau)
}

// EstimateSearchBatch implements Estimator (one native forward pass).
func (b basicEstimator) EstimateSearchBatch(qs [][]float64, taus []float64) []float64 {
	return estimator.SearchBatch(b.BasicModel, qs, taus)
}

// EstimateJoin sums per-query search estimates.
func (b basicEstimator) EstimateJoin(qs [][]float64, tau float64) float64 {
	return estimator.Join(estimator.SumJoin{SearchEstimator: b.BasicModel}, qs, tau)
}

// GlobalLocalEstimator is the trained data-segmentation estimator with its
// extended surface: pooled join estimation, join fine-tuning, and
// incremental data updates.
type GlobalLocalEstimator struct {
	gl *model.GlobalLocal
	ds *Dataset
}

// Name implements Estimator.
func (g *GlobalLocalEstimator) Name() string { return g.gl.Name() }

// EstimateSearch implements Estimator; latency and throughput are recorded
// per method when telemetry is enabled, and the model emits
// global_route/local_eval stage spans plus the routing-selectivity
// histogram.
func (g *GlobalLocalEstimator) EstimateSearch(q []float64, tau float64) float64 {
	return estimator.Search(g.gl, q, tau)
}

// EstimateSearchBatch implements Estimator: one global routing pass,
// grouped sub-batches per local model, locals evaluated in parallel.
// Results match per-query EstimateSearch exactly. Whole-batch latency
// lands in simquery_estimate_batch_seconds.
func (g *GlobalLocalEstimator) EstimateSearchBatch(qs [][]float64, taus []float64) []float64 {
	return estimator.SearchBatch(g.gl, qs, taus)
}

// EstimateJoin implements Estimator using mask-based routing and sum
// pooling (Fig 6). Call FineTuneJoin first for best accuracy.
func (g *GlobalLocalEstimator) EstimateJoin(qs [][]float64, tau float64) float64 {
	return estimator.Join(g.gl, qs, tau)
}

// EstimateSearchCtx implements ContextEstimator: EstimateSearch with
// cooperative cancellation (checked between local-model evaluations) and
// per-segment panic isolation — a crashing local model returns an error
// naming the segment instead of taking the process down. Successful
// results match EstimateSearch exactly.
func (g *GlobalLocalEstimator) EstimateSearchCtx(ctx context.Context, q []float64, tau float64) (float64, error) {
	return g.gl.EstimateSearchCtx(ctx, q, tau)
}

// EstimateSearchBatchCtx implements ContextEstimator: EstimateSearchBatch
// with cancellation checks between pooled sub-batches and per-segment
// panic isolation. Successful results match EstimateSearchBatch exactly.
func (g *GlobalLocalEstimator) EstimateSearchBatchCtx(ctx context.Context, qs [][]float64, taus []float64) ([]float64, error) {
	return g.gl.EstimateSearchBatchCtx(ctx, qs, taus)
}

// EstimateJoinCtx is EstimateJoin with cooperative cancellation and
// per-segment panic isolation.
func (g *GlobalLocalEstimator) EstimateJoinCtx(ctx context.Context, qs [][]float64, tau float64) (float64, error) {
	return g.gl.EstimateJoinCtx(ctx, qs, tau)
}

// SizeBytes implements Estimator.
func (g *GlobalLocalEstimator) SizeBytes() int { return g.gl.SizeBytes() }

// FineTuneJoin adapts the model's pooled join path on labeled join sets
// (2–3 epochs suffice, §4).
func (g *GlobalLocalEstimator) FineTuneJoin(sets []JoinSet, epochs int, seed int64) error {
	if epochs <= 0 {
		epochs = 3
	}
	wsets := make([]workload.JoinSet, len(sets))
	for i, s := range sets {
		wsets[i] = workload.JoinSet{Vecs: s.Vecs, Tau: s.Tau, Card: s.Card}
	}
	// Compute per-query per-segment labels under this model's segmentation,
	// parallel across each set's queries.
	samples := make([]model.JoinSegSample, len(wsets))
	for i, s := range wsets {
		per := workload.JoinSegLabels(g.ds.inner, g.gl.Seg.Assignments, g.gl.Seg.K, s.Vecs, s.Tau, 0)
		samples[i] = model.JoinSegSample{Qs: s.Vecs, Tau: s.Tau, PerQuerySegCards: per}
	}
	cfg := model.DefaultTrainConfig(seed)
	cfg.Epochs = epochs
	cfg.LR = 1e-3 // gentle transfer: pooled inputs are |Q|× larger
	return g.gl.FineTuneJoin(samples, cfg)
}

// Insert routes new vectors to their segments (the vectors must already be
// appended to the Dataset via Append). It returns each vector's segment.
func (g *GlobalLocalEstimator) Insert(newVecs [][]float64) []int {
	return g.gl.InsertPoints(newVecs)
}

// Remove deletes dataset points by index from the model's segmentation
// (swap-remove, matching Dataset.Remove — call this BEFORE
// Dataset.Remove so indices agree, then Retrain the returned segments).
// It returns the affected segment ids.
func (g *GlobalLocalEstimator) Remove(indices []int) ([]int, error) {
	affected, err := g.gl.RemovePoints(indices)
	if err != nil {
		return nil, err
	}
	out := make([]int, 0, len(affected))
	for a := range affected {
		out = append(out, a)
	}
	sort.Ints(out)
	return out, nil
}

// Retrain incrementally retrains the locals for the given segments (nil =
// all) plus the global model on refreshed labels (§5.3).
func (g *GlobalLocalEstimator) Retrain(train []Query, affectedSegments []int, epochs int, seed int64) error {
	if epochs <= 0 {
		epochs = 3
	}
	wq := make([]workload.Query, len(train))
	for i, q := range train {
		wq[i] = workload.Query{Vec: q.Vec, Tau: q.Tau, Card: q.Card}
	}
	workload.AttachSegmentLabels(g.ds.inner, g.gl.Seg, wq, 0)
	samples := make([]model.SegSample, len(wq))
	for i, q := range wq {
		samples[i] = model.SegSample{Q: q.Vec, Tau: q.Tau, SegCards: q.SegCards}
	}
	var affected map[int]bool
	if affectedSegments != nil {
		affected = map[int]bool{}
		for _, a := range affectedSegments {
			affected[a] = true
		}
	}
	cfg := model.DefaultTrainConfig(seed)
	cfg.Epochs = epochs
	cfg.LR /= 5 // fine-tune rate: repeated full-rate restarts drift
	gcfg := model.DefaultGlobalTrainConfig(seed + 1)
	gcfg.Epochs = epochs
	gcfg.LR /= 5
	return g.gl.IncrementalTrain(samples, affected, cfg, gcfg)
}

// Segments reports the number of data segments.
func (g *GlobalLocalEstimator) Segments() int { return g.gl.Seg.K }
