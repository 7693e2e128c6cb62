package cardest

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"sync"
	"testing"
)

type fixture struct {
	ds          *Dataset
	train, test []Query
}

var (
	fixOnce sync.Once
	fix     fixture
	fixErr  error
)

func getFixture(t *testing.T) fixture {
	t.Helper()
	fixOnce.Do(func() {
		ds, err := GenerateProfile("imagenet", 1500, 10, 81)
		if err != nil {
			fixErr = err
			return
		}
		train, test, err := BuildWorkload(ds, WorkloadOptions{TrainPoints: 60, TestPoints: 15, ThresholdsPerPoint: 5, Seed: 82})
		if err != nil {
			fixErr = err
			return
		}
		fix = fixture{ds: ds, train: train, test: test}
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fix
}

func TestGenerateProfileAndAccessors(t *testing.T) {
	f := getFixture(t)
	if f.ds.Name() != "ImageNET" || f.ds.Size() != 1500 || f.ds.Dim() != 64 {
		t.Fatalf("accessors: %s %d %d", f.ds.Name(), f.ds.Size(), f.ds.Dim())
	}
	if f.ds.Metric() != "Hamming" || f.ds.TauMax() <= 0 {
		t.Fatalf("metric/taumax: %s %v", f.ds.Metric(), f.ds.TauMax())
	}
	if f.ds.Distance(f.ds.Vectors()[0], f.ds.Vectors()[0]) != 0 {
		t.Fatal("self distance nonzero")
	}
}

func TestGenerateProfileUnknown(t *testing.T) {
	if _, err := GenerateProfile("nope", 10, 2, 1); err == nil {
		t.Fatal("expected error")
	}
}

func TestNewDatasetValidation(t *testing.T) {
	if _, err := NewDataset("x", nil, "l2", 1); err == nil {
		t.Fatal("expected error on empty vectors")
	}
	if _, err := NewDataset("x", [][]float64{{1, 2}}, "nope", 1); err == nil {
		t.Fatal("expected error on bad metric")
	}
	ds, err := NewDataset("x", [][]float64{{1, 2}, {3, 4}}, "l2", 5)
	if err != nil || ds.Size() != 2 {
		t.Fatalf("NewDataset: %v", err)
	}
}

func TestWorkloadLabelsExact(t *testing.T) {
	f := getFixture(t)
	for _, q := range f.test[:5] {
		if q.Card != TrueCard(f.ds, q.Vec, q.Tau) {
			t.Fatal("label mismatch")
		}
	}
}

func TestTrainAllMethods(t *testing.T) {
	f := getFixture(t)
	for _, method := range []string{"mlp", "qes", "cardnet", "sampling", "kernel", "local+", "gl-cnn"} {
		est, err := Train(f.ds, f.train, TrainOptions{Method: method, Segments: 5, Epochs: 8, Seed: 83})
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		for _, q := range f.test[:3] {
			v := est.EstimateSearch(q.Vec, q.Tau)
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: bad estimate %v", method, v)
			}
		}
		if est.SizeBytes() <= 0 {
			t.Fatalf("%s: size", method)
		}
	}
}

func TestTrainUnknownMethod(t *testing.T) {
	f := getFixture(t)
	if _, err := Train(f.ds, f.train, TrainOptions{Method: "magic"}); err == nil {
		t.Fatal("expected error")
	}
}

func TestTrainNeedsQueries(t *testing.T) {
	f := getFixture(t)
	if _, err := Train(f.ds, nil, TrainOptions{Method: "mlp"}); err == nil {
		t.Fatal("expected error")
	}
	// Sampling works without labeled queries.
	if _, err := Train(f.ds, nil, TrainOptions{Method: "sampling"}); err != nil {
		t.Fatal(err)
	}
}

func TestGlobalLocalJoinAndFineTune(t *testing.T) {
	f := getFixture(t)
	est, err := Train(f.ds, f.train, TrainOptions{Method: "gl-cnn", Segments: 5, Epochs: 8, Seed: 84})
	if err != nil {
		t.Fatal(err)
	}
	gl := est.(*GlobalLocalEstimator)
	if gl.Segments() != 5 {
		t.Fatalf("segments %d", gl.Segments())
	}
	sets, err := BuildJoinWorkload(f.ds, JoinOptions{Sets: 6, MinSize: 3, MaxSize: 8, Seed: 85})
	if err != nil {
		t.Fatal(err)
	}
	if err := gl.FineTuneJoin(sets, 2, 86); err != nil {
		t.Fatal(err)
	}
	for _, s := range sets[:2] {
		v := gl.EstimateJoin(s.Vecs, s.Tau)
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("join estimate %v", v)
		}
	}
}

func TestIncrementalUpdateFlow(t *testing.T) {
	f := getFixture(t)
	est, err := Train(f.ds, f.train, TrainOptions{Method: "gl-cnn", Segments: 5, Epochs: 6, Seed: 87})
	if err != nil {
		t.Fatal(err)
	}
	gl := est.(*GlobalLocalEstimator)
	newVecs := [][]float64{append([]float64(nil), f.ds.Vectors()[0]...)}
	if err := f.ds.Append(newVecs); err != nil {
		t.Fatal(err)
	}
	assign := gl.Insert(newVecs)
	if len(assign) != 1 {
		t.Fatal("assignment missing")
	}
	if err := gl.Retrain(f.train[:50], assign, 1, 88); err != nil {
		t.Fatal(err)
	}
	if v := gl.EstimateSearch(f.test[0].Vec, f.test[0].Tau); v < 0 || math.IsNaN(v) {
		t.Fatalf("post-update estimate %v", v)
	}
}

func TestAppendValidatesDim(t *testing.T) {
	f := getFixture(t)
	if err := f.ds.Append([][]float64{{1, 2}}); err == nil {
		t.Fatal("expected error on wrong dim")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	f := getFixture(t)
	dir := t.TempDir()
	for _, method := range []string{"qes", "cardnet", "gl-cnn"} {
		est, err := Train(f.ds, f.train, TrainOptions{Method: method, Segments: 4, Epochs: 5, Seed: 89})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, method+".model")
		if err := Save(est, path); err != nil {
			t.Fatalf("%s: save: %v", method, err)
		}
		loaded, err := Load(path, f.ds)
		if err != nil {
			t.Fatalf("%s: load: %v", method, err)
		}
		q := f.test[0]
		if a, b := est.EstimateSearch(q.Vec, q.Tau), loaded.EstimateSearch(q.Vec, q.Tau); a != b {
			t.Fatalf("%s: estimate changed after round trip: %v vs %v", method, a, b)
		}
	}
}

func TestSaveSamplingRejected(t *testing.T) {
	f := getFixture(t)
	est, err := Train(f.ds, nil, TrainOptions{Method: "sampling"})
	if err != nil {
		t.Fatal(err)
	}
	if err := Save(est, filepath.Join(t.TempDir(), "s.model")); err == nil {
		t.Fatal("expected error: sampling is not serializable")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load("/nonexistent/path.model", nil); err == nil {
		t.Fatal("expected error")
	}
}

func TestExactIndexAgainstTruth(t *testing.T) {
	f := getFixture(t)
	idx, err := NewExactIndex(f.ds, 8, 90)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range f.test[:5] {
		if got := idx.Count(q.Vec, q.Tau); float64(got) != q.Card {
			t.Fatalf("exact count %d, label %v", got, q.Card)
		}
	}
	qs := [][]float64{f.test[0].Vec, f.test[1].Vec}
	want := float64(idx.Count(qs[0], 0.2) + idx.Count(qs[1], 0.2))
	if got := idx.JoinCount(qs, 0.2); float64(got) != want {
		t.Fatalf("join count %d want %v", got, want)
	}
	if idx.SizeBytes() <= 0 {
		t.Fatal("index size")
	}
	hits := idx.Search(f.test[0].Vec, f.test[0].Tau)
	if float64(len(hits)) != f.test[0].Card {
		t.Fatalf("search hits %d want %v", len(hits), f.test[0].Card)
	}
}

func TestEstimateJoinSumForBasic(t *testing.T) {
	f := getFixture(t)
	est, err := Train(f.ds, f.train, TrainOptions{Method: "qes", Epochs: 5, Seed: 91})
	if err != nil {
		t.Fatal(err)
	}
	qs := [][]float64{f.test[0].Vec, f.test[1].Vec}
	tau := f.test[0].Tau
	want := est.EstimateSearch(qs[0], tau) + est.EstimateSearch(qs[1], tau)
	if got := est.EstimateJoin(qs, tau); math.Abs(got-want) > 1e-9*(1+want) {
		t.Fatalf("join %v want %v", got, want)
	}
}

func TestEvaluateSummaries(t *testing.T) {
	f := getFixture(t)
	est, err := Train(f.ds, nil, TrainOptions{Method: "sampling", SampleRatio: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	// A 100% sample is exact: all Q-errors are 1.
	s := Evaluate(est, f.test)
	if s.Mean != 1 || s.Max != 1 || s.N != len(f.test) {
		t.Fatalf("exact estimator must have q-error 1 everywhere: %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty string")
	}
	sets, err := BuildJoinWorkload(f.ds, JoinOptions{Sets: 3, MinSize: 2, MaxSize: 5, Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	js := EvaluateJoin(est, sets)
	if js.Mean != 1 || js.N != 3 {
		t.Fatalf("join evaluation of exact estimator: %+v", js)
	}
}

func TestQErrorMAPEExposed(t *testing.T) {
	if QError(10, 5) != 2 || MAPE(8, 10) != 0.2 {
		t.Fatal("metric wrappers broken")
	}
}

func TestLabelQueries(t *testing.T) {
	f := getFixture(t)
	vecs := [][]float64{f.ds.Vectors()[0], f.ds.Vectors()[1]}
	taus := []float64{0.1, 0.2}
	qs, err := LabelQueries(f.ds, vecs, taus)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		if q.Card != TrueCard(f.ds, vecs[i], taus[i]) {
			t.Fatal("label mismatch")
		}
	}
	if _, err := LabelQueries(f.ds, vecs, taus[:1]); err == nil {
		t.Fatal("expected error on length mismatch")
	}
	if _, err := LabelQueries(f.ds, [][]float64{{1}}, []float64{0.1}); err == nil {
		t.Fatal("expected error on dim mismatch")
	}
}

func TestDatasetStatsString(t *testing.T) {
	f := getFixture(t)
	if s := f.ds.Stats(1); s == "" {
		t.Fatal("empty stats")
	}
}

// TestHardenedRejectsWrongDimension checks the hardened paths' input
// check: a query whose dimension is not the model's is ErrInvalidInput,
// before admission and without a fallback answer.
func TestHardenedRejectsWrongDimension(t *testing.T) {
	f := getFixture(t)
	train := func(seed int64) Estimator {
		e, err := Train(f.ds, nil, TrainOptions{Method: "sampling", SampleRatio: 0.2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	r := Harden(train(1), ServeOptions{Fallback: train(2)})
	q, tau := f.test[0].Vec, f.test[0].Tau
	if _, err := r.EstimateSearchCtx(context.Background(), q, tau); err != nil {
		t.Fatalf("right dimension: %v", err)
	}
	if _, err := r.EstimateSearchCtx(context.Background(), q[1:], tau); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("short query: err %v, want ErrInvalidInput", err)
	}
	out, err := r.EstimateSearchBatchCtx(context.Background(), [][]float64{q, append(q[:len(q):len(q)], 0)}, []float64{tau, tau})
	if !errors.Is(err, ErrInvalidInput) || out != nil {
		t.Fatalf("batch with a long query: %v, %v; want ErrInvalidInput and no estimates", out, err)
	}
}
