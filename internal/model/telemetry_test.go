package model

import (
	"math/rand"
	"testing"

	"simquery/internal/dist"
	"simquery/internal/telemetry"
)

// TestEstimateSearchAllocsNopRecorder pins the allocation budget of the
// serving hot path with telemetry disabled: the instrumentation (span
// starts, selectivity gate) must add zero allocations on top of the
// pre-telemetry steady state.
func TestEstimateSearchAllocsNopRecorder(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime bypasses sync.Pool; allocation counts are not meaningful")
	}
	telemetry.SetDefault(nil)
	gl := trainedGL(t, GLCNN)
	f := getFixture(t)
	q := f.w.Test[0]
	gl.EstimateSearch(q.Vec, q.Tau) // warm scratch pools
	const budget = 4                // seed steady state; telemetry must not raise it
	allocs := testing.AllocsPerRun(200, func() {
		gl.EstimateSearch(q.Vec, q.Tau)
	})
	if allocs > budget {
		t.Errorf("EstimateSearch with nop recorder: %g allocs/op, budget %d", allocs, budget)
	}
}

// TestRoutingSelectivityRecorded installs a live registry and checks that
// serial, batched, and join estimates each observe one selectivity sample
// per routed query, with values in (0, 1].
func TestRoutingSelectivityRecorded(t *testing.T) {
	gl := trainedGL(t, GLCNN)
	f := getFixture(t)
	reg := telemetry.NewRegistry()
	telemetry.SetDefault(reg)
	defer telemetry.SetDefault(nil)

	qs := f.w.Test[:6]
	for _, q := range qs {
		gl.EstimateSearch(q.Vec, q.Tau)
	}
	vecs := make([][]float64, len(qs))
	taus := make([]float64, len(qs))
	for i, q := range qs {
		vecs[i] = q.Vec
		taus[i] = q.Tau
	}
	gl.EstimateSearchBatch(vecs, taus)
	gl.EstimateJoin(vecs, taus[0])

	// Selectivity records one series per model label, so concurrently
	// serving estimators stay distinguishable; the unlabeled series must
	// stay empty.
	snap, ok := reg.HistogramSnapshotOf(telemetry.MetricRoutingSelectivity, gl.Label)
	if !ok {
		t.Fatal("no selectivity histogram recorded under the model label")
	}
	if _, ok := reg.HistogramSnapshotOf(telemetry.MetricRoutingSelectivity, ""); ok {
		t.Error("selectivity recorded into the unlabeled series; want per-method labels")
	}
	want := uint64(3 * len(qs)) // serial + batch + join, one per query each
	if snap.Count != want {
		t.Errorf("selectivity observations: got %d want %d", snap.Count, want)
	}
	// All mass must be inside (0, 1]: at least one segment is always
	// selected (fallback), and at most all of them.
	if snap.Counts[len(snap.Counts)-1] != 0 {
		t.Errorf("selectivity overflow bucket non-empty: %v", snap.Counts)
	}
	if mean := snap.Mean(); mean <= 0 || mean > 1 {
		t.Errorf("selectivity mean out of range: %g", mean)
	}

	// Stage spans for the full pipeline taxonomy were recorded too.
	for _, stage := range []string{telemetry.StageGlobalRoute, telemetry.StageLocalEval, telemetry.StageMerge, telemetry.StageFeatureBuild} {
		if s, ok := reg.HistogramSnapshotOf(telemetry.MetricStageSeconds, stage); !ok || s.Count == 0 {
			t.Errorf("stage %q not recorded (ok=%v)", stage, ok)
		}
	}
}

// TestTrainRecordsEpochLoss checks the training loop emits per-epoch loss
// observations and epoch counts.
func TestTrainRecordsEpochLoss(t *testing.T) {
	f := getFixture(t)
	reg := telemetry.NewRegistry()
	telemetry.SetDefault(reg)
	defer telemetry.SetDefault(nil)

	m, err := NewMLPModel("tele-mlp", rand.New(rand.NewSource(41)), f.ds.Dim, nil, f.ds.Metric, f.ds.TauMax, DefaultArch())
	if err != nil {
		t.Fatal(err)
	}
	samples := make([]Sample, 0, 60)
	for _, q := range f.w.Train[:60] {
		samples = append(samples, Sample{Q: q.Vec, Tau: q.Tau, Card: q.Card})
	}
	cfg := DefaultTrainConfig(42)
	cfg.Epochs = 5
	if err := m.Train(samples, cfg); err != nil {
		t.Fatal(err)
	}
	if got := reg.CounterValue(telemetry.MetricTrainEpochsTotal, ""); got != 5 {
		t.Errorf("epochs counted: got %d want 5", got)
	}
	snap, ok := reg.HistogramSnapshotOf(telemetry.MetricTrainEpochLoss, "")
	if !ok || snap.Count != 5 {
		t.Errorf("epoch loss observations: ok=%v count=%d want 5", ok, snap.Count)
	}
	if snap.Sum <= 0 {
		t.Errorf("epoch loss sum not positive: %g", snap.Sum)
	}
}

// benchModel builds a small untrained MLP model — weights don't matter for
// measuring instrumentation overhead on the inference path.
func benchModel(b *testing.B) (*BasicModel, []float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	m, err := NewMLPModel("bench", rng, 16, nil, dist.L2, 1.0, DefaultArch())
	if err != nil {
		b.Fatal(err)
	}
	q := make([]float64, 16)
	for i := range q {
		q[i] = rng.Float64()
	}
	return m, q
}

// BenchmarkInferTelemetryOff measures the serving hot path with the no-op
// recorder — the configuration the 0-allocs acceptance criterion targets.
func BenchmarkInferTelemetryOff(b *testing.B) {
	telemetry.SetDefault(nil)
	m, q := benchModel(b)
	m.EstimateSearch(q, 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.EstimateSearch(q, 0.5)
	}
}

// BenchmarkInferTelemetryOn measures the same path against a live registry
// (clock reads + atomic histogram updates).
func BenchmarkInferTelemetryOn(b *testing.B) {
	reg := telemetry.NewRegistry()
	telemetry.SetDefault(reg)
	defer telemetry.SetDefault(nil)
	m, q := benchModel(b)
	m.EstimateSearch(q, 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.EstimateSearch(q, 0.5)
	}
}
