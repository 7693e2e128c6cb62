package model

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"simquery/internal/dataset"
	"simquery/internal/metrics"
	"simquery/internal/workload"
)

// fixture builds a small labeled dataset + workload once per test binary.
type fixture struct {
	ds *dataset.Dataset
	w  *workload.SearchWorkload
}

var (
	fixOnce sync.Once
	fix     fixture
)

func getFixture(t *testing.T) fixture {
	t.Helper()
	fixOnce.Do(func() {
		ds, err := dataset.Generate(dataset.ImageNET, dataset.Config{N: 1500, Clusters: 10, Seed: 51})
		if err != nil {
			t.Fatal(err)
		}
		w, err := workload.BuildSearch(ds, workload.SearchConfig{TrainPoints: 80, TestPoints: 25, ThresholdsPerPoint: 6, Seed: 52})
		if err != nil {
			t.Fatal(err)
		}
		fix = fixture{ds: ds, w: w}
	})
	if fix.ds == nil {
		t.Fatal("fixture failed to initialize")
	}
	return fix
}

func toSamples(qs []workload.Query) []Sample {
	out := make([]Sample, len(qs))
	for i, q := range qs {
		out[i] = Sample{Q: q.Vec, Tau: q.Tau, Card: q.Card}
	}
	return out
}

func anchorsFrom(ds *dataset.Dataset, k int) [][]float64 {
	rng := rand.New(rand.NewSource(99))
	anchors := make([][]float64, k)
	for i := range anchors {
		anchors[i] = ds.Vectors[rng.Intn(ds.Size())]
	}
	return anchors
}

func medianQError(est func(q []float64, tau float64) float64, qs []workload.Query) float64 {
	var errs []float64
	for _, q := range qs {
		errs = append(errs, metrics.QError(est(q.Vec, q.Tau), q.Card))
	}
	return metrics.Summarize(errs).Median
}

func TestMLPModelTrainsAndEstimates(t *testing.T) {
	f := getFixture(t)
	rng := rand.New(rand.NewSource(1))
	m, err := NewMLPModel("MLP", rng, f.ds.Dim, anchorsFrom(f.ds, 8), f.ds.Metric, f.ds.TauMax, DefaultArch())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTrainConfig(2)
	cfg.Epochs = 25
	if err := m.Train(toSamples(f.w.Train), cfg); err != nil {
		t.Fatal(err)
	}
	if med := medianQError(m.EstimateSearch, f.w.Test); med > 25 {
		t.Fatalf("MLP median q-error %v too high", med)
	}
}

func TestQESModelTrainsAndEstimates(t *testing.T) {
	f := getFixture(t)
	rng := rand.New(rand.NewSource(3))
	m, err := NewQESModel("QES", rng, f.ds.Dim, 8, DefaultConvConfigs(), nil, f.ds.Metric, f.ds.TauMax, DefaultArch())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTrainConfig(4)
	cfg.Epochs = 25
	if err := m.Train(toSamples(f.w.Train), cfg); err != nil {
		t.Fatal(err)
	}
	if med := medianQError(m.EstimateSearch, f.w.Test); med > 25 {
		t.Fatalf("QES median q-error %v too high", med)
	}
}

func TestEstimateSearchBatchMatchesSingle(t *testing.T) {
	f := getFixture(t)
	rng := rand.New(rand.NewSource(5))
	m, err := NewMLPModel("MLP", rng, f.ds.Dim, anchorsFrom(f.ds, 4), f.ds.Metric, f.ds.TauMax, DefaultArch())
	if err != nil {
		t.Fatal(err)
	}
	qs := make([][]float64, 5)
	taus := make([]float64, 5)
	for i := range qs {
		qs[i] = f.w.Test[i].Vec
		taus[i] = f.w.Test[i].Tau
	}
	batch := m.EstimateSearchBatch(qs, taus)
	for i := range qs {
		single := m.EstimateSearch(qs[i], taus[i])
		if math.Abs(batch[i]-single) > 1e-9*(1+single) {
			t.Fatalf("batch[%d]=%v single=%v", i, batch[i], single)
		}
	}
}

func TestBasicModelSerializationRoundTrip(t *testing.T) {
	f := getFixture(t)
	rng := rand.New(rand.NewSource(6))
	m, err := NewQESModel("QES", rng, f.ds.Dim, 8, DefaultConvConfigs(), anchorsFrom(f.ds, 4), f.ds.Metric, f.ds.TauMax, DefaultArch())
	if err != nil {
		t.Fatal(err)
	}
	data, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := &BasicModel{}
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	q := f.ds.Vectors[0]
	tau := f.ds.TauMax / 2
	if a, b := m.EstimateSearch(q, tau), restored.EstimateSearch(q, tau); a != b {
		t.Fatalf("round trip changed estimate %v vs %v", a, b)
	}
	if restored.SizeBytes() != m.SizeBytes() {
		t.Fatalf("size changed: %d vs %d", restored.SizeBytes(), m.SizeBytes())
	}
}

// TestLoweredPlaneCacheAndInvalidation checks that inference keeps no
// stale state derived from the weights: after a parameter mutation both
// the single and the batch path track the new weights, and decoding the
// old bytes in place restores the old estimate bitwise. (The name dates
// from the removed lowered f32/int8 planes, which cached such state.)
func TestLoweredPlaneCacheAndInvalidation(t *testing.T) {
	f := getFixture(t)
	m, err := NewMLPModel("MLP", rand.New(rand.NewSource(71)), f.ds.Dim, anchorsFrom(f.ds, 8), f.ds.Metric, f.ds.TauMax, DefaultArch())
	if err != nil {
		t.Fatal(err)
	}
	qs := [][]float64{f.w.Test[0].Vec, f.w.Test[1].Vec}
	taus := []float64{f.w.Test[0].Tau, f.w.Test[1].Tau}
	check := func(stage string, want float64) {
		t.Helper()
		if got := m.EstimateSearch(qs[0], taus[0]); got != want {
			t.Fatalf("%s: single %v, want %v", stage, got, want)
		}
		if got := m.EstimateSearchBatch(qs, taus)[0]; math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("%s: batch %v, want %v", stage, got, want)
		}
	}
	before := m.EstimateSearch(qs[0], taus[0])
	check("initial", before)
	data, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	m.SetOutputBias(7)
	after := m.EstimateSearch(qs[0], taus[0])
	if after == before {
		t.Fatal("estimate did not track SetOutputBias")
	}
	check("after SetOutputBias", after)

	if err := m.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	check("after in-place UnmarshalBinary", before)
}

func TestGlobalModelSelectsCorrectSegments(t *testing.T) {
	f := getFixture(t)
	gl := trainedGL(t, GLCNN)
	// Evaluate selection quality: fraction of true-positive segments found.
	test := append([]workload.Query(nil), f.w.Test...)
	workload.AttachSegmentLabels(f.ds, gl.Seg, test, 0)
	var tp, fn int
	for _, q := range test {
		sel := gl.Global.Select(q.Vec, q.Tau, 0.5)
		for i, c := range q.SegCards {
			if c > 0 {
				if sel[i] {
					tp++
				} else {
					fn++
				}
			}
		}
	}
	recall := float64(tp) / float64(tp+fn)
	if recall < 0.6 {
		t.Fatalf("global model recall too low: %v", recall)
	}
}

var (
	glCache   = map[Variant]*GlobalLocal{}
	glCacheMu sync.Mutex
)

// trainedGL trains (and caches) a small GlobalLocal of the given variant.
func trainedGL(t *testing.T, v Variant) *GlobalLocal {
	t.Helper()
	glCacheMu.Lock()
	defer glCacheMu.Unlock()
	if gl, ok := glCache[v]; ok {
		return gl
	}
	f := getFixture(t)
	cfg := GLConfig{Variant: v, Segments: 6, QuerySegments: 8, Seed: 7}
	gl, err := NewGlobalLocal(v.String(), f.ds.Vectors, f.ds.Metric, f.ds.TauMax, cfg)
	if err != nil {
		t.Fatal(err)
	}
	train := append([]workload.Query(nil), f.w.Train...)
	workload.AttachSegmentLabels(f.ds, gl.Seg, train, 0)
	samples := make([]SegSample, len(train))
	for i, q := range train {
		samples[i] = SegSample{Q: q.Vec, Tau: q.Tau, SegCards: q.SegCards}
	}
	tcfg := DefaultTrainConfig(8)
	tcfg.Epochs = 20
	if err := gl.Train(samples, tcfg, DefaultGlobalTrainConfig(9)); err != nil {
		t.Fatal(err)
	}
	glCache[v] = gl
	return gl
}

func TestGlobalLocalVariantsTrainAndBeatNothing(t *testing.T) {
	f := getFixture(t)
	for _, v := range []Variant{LocalPlus, GLMLP, GLCNN} {
		gl := trainedGL(t, v)
		if med := medianQError(gl.EstimateSearch, f.w.Test); med > 20 {
			t.Fatalf("%s median q-error %v too high", v, med)
		}
	}
}

func TestGlobalLocalEstimateIsSumOfSelectedLocals(t *testing.T) {
	f := getFixture(t)
	gl := trainedGL(t, GLCNN)
	q := f.w.Test[0]
	sel := gl.SelectedSegments(q.Vec, q.Tau)
	var want float64
	for i, on := range sel {
		if on {
			want += gl.Locals[i].EstimateSearch(q.Vec, q.Tau)
		}
	}
	if got := gl.EstimateSearch(q.Vec, q.Tau); math.Abs(got-want) > 1e-9*(1+want) {
		t.Fatalf("estimate %v != sum of selected locals %v", got, want)
	}
}

func TestLocalPlusSelectsAllSurvivingSegments(t *testing.T) {
	f := getFixture(t)
	gl := trainedGL(t, LocalPlus)
	// Local+ has no global model: it evaluates every segment except those
	// the triangle-inequality bound proves empty.
	q := f.w.Test[0]
	sel := gl.SelectedSegments(q.Vec, q.Tau)
	for i, on := range sel {
		if on != !gl.provablyEmpty(q.Vec, q.Tau, i, nil) {
			t.Fatalf("segment %d: selected=%v, provablyEmpty=%v", i, on, gl.provablyEmpty(q.Vec, q.Tau, i, nil))
		}
	}
}

func TestGlobalLocalTrianglePrune(t *testing.T) {
	f := getFixture(t)
	gl := trainedGL(t, GLCNN)
	// Invariant: a selected segment is never provably empty.
	for _, q := range f.w.Test {
		sel := gl.SelectedSegments(q.Vec, q.Tau)
		for i, on := range sel {
			if on && gl.provablyEmpty(q.Vec, q.Tau, i, nil) {
				t.Fatalf("segment %d selected despite provable emptiness", i)
			}
		}
	}
	// A real test query keeps at least one selected segment.
	tq := f.w.Test[0]
	sel := gl.SelectedSegments(tq.Vec, tq.Tau)
	any := false
	for _, on := range sel {
		any = any || on
	}
	if !any {
		t.Fatal("in-distribution query must select at least one segment")
	}
}

func TestTrianglePruneZeroEstimateOnFarQuery(t *testing.T) {
	// Controlled L2 geometry: two tight clusters near the origin; a query
	// at distance 1000 with tau 1 is provably empty everywhere, so the
	// estimate must be exactly zero and no segment may be selected.
	rng := rand.New(rand.NewSource(31))
	var data [][]float64
	for i := 0; i < 200; i++ {
		base := 0.0
		if i%2 == 1 {
			base = 5
		}
		data = append(data, []float64{base + rng.NormFloat64()*0.1, base + rng.NormFloat64()*0.1})
	}
	gl, err := NewGlobalLocal("far", data, 0 /* L1 */, 10, GLConfig{Variant: LocalPlus, Segments: 2, QuerySegments: 2, Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{1000, 1000}
	sel := gl.SelectedSegments(q, 1)
	for i, on := range sel {
		if on {
			t.Fatalf("segment %d selected for a provably empty query", i)
		}
	}
	if est := gl.EstimateSearch(q, 1); est != 0 {
		t.Fatalf("provably-zero query estimated %v", est)
	}
}

func TestTrianglePruneNeverDropsTruePositives(t *testing.T) {
	f := getFixture(t)
	gl := trainedGL(t, GLCNN)
	// Soundness: a segment with nonzero true cardinality can never be
	// provably empty.
	for _, q := range f.w.Test {
		for i, c := range q.SegCards {
			if c > 0 && gl.provablyEmpty(q.Vec, q.Tau, i, nil) {
				t.Fatalf("triangle bound pruned a segment with %v true matches", c)
			}
		}
	}
}

func TestGlobalLocalJoinPooledCloseToSumSearch(t *testing.T) {
	f := getFixture(t)
	gl := trainedGL(t, GLCNN)
	// Fine-tune on small join workloads.
	sets, err := workload.BuildJoin(f.ds, gl.Seg, workload.JoinConfig{Sets: 12, MinSize: 3, MaxSize: 10, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	js := make([]JoinSegSample, len(sets))
	for i, s := range sets {
		js[i] = JoinSegSample{Qs: s.Vecs, Tau: s.Tau, PerQuerySegCards: s.PerQuerySegCards}
	}
	ft := DefaultTrainConfig(11)
	ft.Epochs = 3
	if err := gl.FineTuneJoin(js, ft); err != nil {
		t.Fatal(err)
	}
	// The pooled estimate should be within an order of magnitude of truth
	// on the training sets (loose sanity, not an accuracy benchmark).
	var qerrs []float64
	for _, s := range sets {
		qerrs = append(qerrs, metrics.QError(gl.EstimateJoin(s.Vecs, s.Tau), s.Card))
	}
	if med := metrics.Summarize(qerrs).Median; med > 15 {
		t.Fatalf("join median q-error %v too high", med)
	}
}

func TestGlobalLocalEmptyJoin(t *testing.T) {
	gl := trainedGL(t, GLCNN)
	if got := gl.EstimateJoin(nil, 0.1); got != 0 {
		t.Fatalf("empty join set must estimate 0, got %v", got)
	}
}

func TestGlobalLocalSerializationRoundTrip(t *testing.T) {
	f := getFixture(t)
	gl := trainedGL(t, GLMLP)
	data, err := gl.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := &GlobalLocal{}
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	q := f.w.Test[1]
	a := gl.EstimateSearch(q.Vec, q.Tau)
	b := restored.EstimateSearch(q.Vec, q.Tau)
	if a != b {
		t.Fatalf("round trip changed estimate: %v vs %v", a, b)
	}
	if restored.SizeBytes() != gl.SizeBytes() {
		t.Fatalf("size mismatch %d vs %d", restored.SizeBytes(), gl.SizeBytes())
	}
}

func TestInsertPointsRoutesToNearestSegment(t *testing.T) {
	f := getFixture(t)
	gl := trainedGL(t, GLCNN)
	before := len(gl.Seg.Assignments)
	v := f.ds.Vectors[0]
	assign := gl.InsertPoints([][]float64{v})
	if len(assign) != 1 {
		t.Fatal("one assignment expected")
	}
	if assign[0] != gl.Seg.NearestSegment(v) {
		t.Fatal("routed to wrong segment")
	}
	if len(gl.Seg.Assignments) != before+1 {
		t.Fatal("assignment list not extended")
	}
}

func TestIncrementalTrainOnlyAffected(t *testing.T) {
	f := getFixture(t)
	gl := trainedGL(t, GLCNN)
	train := append([]workload.Query(nil), f.w.Train[:60]...)
	workload.AttachSegmentLabels(f.ds, gl.Seg, train, 0)
	samples := make([]SegSample, len(train))
	for i, q := range train {
		samples[i] = SegSample{Q: q.Vec, Tau: q.Tau, SegCards: q.SegCards}
	}
	cfg := DefaultTrainConfig(12)
	cfg.Epochs = 2
	if err := gl.IncrementalTrain(samples, map[int]bool{0: true}, cfg, DefaultGlobalTrainConfig(13)); err != nil {
		t.Fatal(err)
	}
	// Model still produces sane estimates afterwards.
	if med := medianQError(gl.EstimateSearch, f.w.Test); med > 30 {
		t.Fatalf("post-incremental median q-error %v", med)
	}
}

func TestVariantString(t *testing.T) {
	if LocalPlus.String() != "Local+" || GLMLP.String() != "GL-MLP" || GLCNN.String() != "GL-CNN" || GLPlus.String() != "GL+" {
		t.Fatal("variant names wrong")
	}
}

func TestTrainErrors(t *testing.T) {
	f := getFixture(t)
	rng := rand.New(rand.NewSource(20))
	m, err := NewMLPModel("MLP", rng, f.ds.Dim, nil, f.ds.Metric, f.ds.TauMax, DefaultArch())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Train(nil, TrainConfig{}); err == nil {
		t.Fatal("expected error on empty training set")
	}
	gl := trainedGL(t, GLCNN)
	bad := []SegSample{{Q: f.w.Train[0].Vec, Tau: 0.1, SegCards: []float64{1}}}
	if err := gl.Train(bad, TrainConfig{}, GlobalTrainConfig{}); err == nil {
		t.Fatal("expected error on wrong segment label width")
	}
}

func TestNewGlobalLocalErrors(t *testing.T) {
	if _, err := NewGlobalLocal("x", nil, 0, 1, GLConfig{}); err == nil {
		t.Fatal("expected error on empty data")
	}
}

func TestConvConfigValidate(t *testing.T) {
	good := ConvConfig{Channels: 4, Kernel: 2, Stride: 1, PoolSize: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := ConvConfig{Channels: 0, Kernel: 2, Stride: 1, PoolSize: 1}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error")
	}
	if good.String() == "" {
		t.Fatal("empty string")
	}
}

func TestConcatSplitRoundTrip(t *testing.T) {
	a := queryBatch(nil, [][]float64{{1, 2}, {3, 4}}, 2)
	b := queryBatch(nil, [][]float64{{5}, {6}}, 1)
	cat := concatCols(nil, a, b)
	parts := splitCols(cat, 2, 1)
	if parts[0].At(1, 1) != 4 || parts[1].At(0, 0) != 5 {
		t.Fatal("concat/split mismatch")
	}
}

func TestSumRowsBroadcastRows(t *testing.T) {
	m := queryBatch(nil, [][]float64{{1, 2}, {3, 4}, {5, 6}}, 2)
	s := sumRows(nil, m)
	if s.At(0, 0) != 9 || s.At(0, 1) != 12 {
		t.Fatalf("sumRows %v", s.Data)
	}
	b := broadcastRows(s, 3)
	if b.Rows != 3 || b.At(2, 1) != 12 {
		t.Fatal("broadcastRows wrong")
	}
}
