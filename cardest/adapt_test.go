package cardest

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"simquery/internal/model"
	"simquery/internal/probe"
	"simquery/internal/retrain"
)

// adaptBase trains one small GlobalLocal once per test binary and keeps its
// serialized form; each test reconstructs a private dataset (generation is
// deterministic) and a private model clone, because adaptation tests mutate
// both and must not share state with each other or with other suites.
var (
	adaptOnce sync.Once
	adaptErr  error
	adaptBlob []byte
	adaptTest []Query
)

const (
	adaptN        = 900
	adaptClusters = 8
	adaptSeed     = 281
)

func newAdaptFixture(t *testing.T) (*Dataset, *GlobalLocalEstimator, []Query) {
	t.Helper()
	adaptOnce.Do(func() {
		ds, err := GenerateProfile("imagenet", adaptN, adaptClusters, adaptSeed)
		if err != nil {
			adaptErr = err
			return
		}
		train, test, err := BuildWorkload(ds, WorkloadOptions{TrainPoints: 50, TestPoints: 12, ThresholdsPerPoint: 4, Seed: 282})
		if err != nil {
			adaptErr = err
			return
		}
		est, err := Train(ds, train, TrainOptions{Method: "gl-mlp", Segments: 4, Epochs: 5, Seed: 283})
		if err != nil {
			adaptErr = err
			return
		}
		adaptBlob, adaptErr = est.(*GlobalLocalEstimator).gl.MarshalBinary()
		adaptTest = test
	})
	if adaptErr != nil {
		t.Fatal(adaptErr)
	}
	ds, err := GenerateProfile("imagenet", adaptN, adaptClusters, adaptSeed)
	if err != nil {
		t.Fatal(err)
	}
	gl := &model.GlobalLocal{}
	if err := gl.UnmarshalBinary(adaptBlob); err != nil {
		t.Fatal(err)
	}
	gl.Reassign(ds.Vectors())
	return ds, &GlobalLocalEstimator{gl: gl, ds: ds}, adaptTest
}

// jitter returns a near-copy of v (the insert generator used across the
// adaptation suite).
func jitter(v []float64, rng *rand.Rand) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x + rng.NormFloat64()*0.01
	}
	return out
}

func newAdapterFixture(t *testing.T, opts ServeOptions) (*Dataset, *Reloadable, *Adapter, []Query) {
	t.Helper()
	ds, est, test := newAdaptFixture(t)
	rel, a := ServeAdaptive(est, ds, opts)
	return ds, rel, a, test
}

func TestAdapterMutateValidatesAllOrNothing(t *testing.T) {
	ds, _, a, _ := newAdapterFixture(t, ServeOptions{})
	size := ds.Size()
	gen := ModelGeneration()

	if _, err := a.Mutate([][]float64{{1, 2}}, nil); err == nil {
		t.Fatal("wrong-dim insert accepted")
	}
	if _, err := a.Mutate([][]float64{jitter(ds.Vectors()[0], rand.New(rand.NewSource(1)))}, []int{ds.Size() + 7}); err == nil {
		t.Fatal("out-of-range delete accepted")
	}
	if ds.Size() != size || a.LogLen() != 0 || a.PendingDeltas() != 0 {
		t.Fatalf("failed batch leaked state: size %d log %d pending %d", ds.Size(), a.LogLen(), a.PendingDeltas())
	}
	if ModelGeneration() != gen {
		t.Fatal("failed batch bumped the model generation")
	}
}

func TestAdapterMutateAppliesBatch(t *testing.T) {
	ds, _, a, _ := newAdapterFixture(t, ServeOptions{})
	rng := rand.New(rand.NewSource(2))
	size := ds.Size()
	gen := ModelGeneration()

	ins := [][]float64{jitter(ds.Vectors()[0], rng), jitter(ds.Vectors()[1], rng), jitter(ds.Vectors()[2], rng)}
	res, err := a.Mutate(ins, []int{5, 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 3 || res.Deleted != 2 {
		t.Fatalf("result %+v, want 3 inserted / 2 deleted", res)
	}
	if res.LiveSize != size+1 || ds.Size() != size+1 {
		t.Fatalf("live size %d/%d, want %d", res.LiveSize, ds.Size(), size+1)
	}
	if res.Pending != 5 || a.PendingDeltas() != 5 {
		t.Fatalf("pending %d/%d, want 5", res.Pending, a.PendingDeltas())
	}
	if a.LogLen() != 5 {
		t.Fatalf("log length %d, want 5", a.LogLen())
	}
	if res.Generation <= gen {
		t.Fatalf("generation %d did not advance past %d", res.Generation, gen)
	}
	if a.LiveSize() != size+1 {
		t.Fatalf("LiveSize() = %d, want %d", a.LiveSize(), size+1)
	}
}

func TestAdapterMutateBoundsProperty(t *testing.T) {
	ds, rel, a, test := newAdapterFixture(t, ServeOptions{})
	rng := rand.New(rand.NewSource(3))

	for burst := 0; burst < 15; burst++ {
		var ins [][]float64
		for i := 0; i < rng.Intn(4); i++ {
			ins = append(ins, jitter(ds.Vectors()[rng.Intn(ds.Size())], rng))
		}
		var del []int
		if n := rng.Intn(3); n > 0 && ds.Size() > n {
			seen := map[int]bool{}
			for len(del) < n {
				if i := rng.Intn(ds.Size()); !seen[i] {
					seen[i] = true
					del = append(del, i)
				}
			}
		}
		if len(ins) == 0 && len(del) == 0 {
			continue
		}
		if _, err := a.Mutate(ins, del); err != nil {
			t.Fatal(err)
		}
		mut := a.primary().(Mutable)
		live := mut.LiveCount()
		if int(live) != ds.Size() {
			t.Fatalf("burst %d: LiveCount %v != dataset size %d", burst, live, ds.Size())
		}
		for i, q := range test {
			est := rel.Estimator().EstimateSearch(q.Vec, q.Tau)
			if est < 0 || est > live+1e-9 {
				t.Fatalf("burst %d query %d: estimate %v outside [0, %v]", burst, i, est, live)
			}
		}
	}
}

// TestAdapterMonotoneWithDeltas: the τ-monotone guarantee must survive the
// delta correction — the per-segment scaling is τ-independent, so wrapping
// a delta'd estimator in Monotone still yields non-decreasing estimates.
func TestAdapterMonotoneWithDeltas(t *testing.T) {
	ds, _, a, test := newAdapterFixture(t, ServeOptions{})
	rng := rand.New(rand.NewSource(4))
	var ins [][]float64
	for i := 0; i < 20; i++ {
		ins = append(ins, jitter(ds.Vectors()[rng.Intn(ds.Size())], rng))
	}
	if _, err := a.Mutate(ins, []int{1, 3, 5, 7}); err != nil {
		t.Fatal(err)
	}

	mon, err := Monotone(a.primary(), ds.TauMax(), 33)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range test[:5] {
		prev := -1.0
		for i := 1; i <= 16; i++ {
			tau := ds.TauMax() * float64(i) / 16
			est := mon.EstimateSearch(q.Vec, tau)
			if est < prev-1e-9 {
				t.Fatalf("monotone violated with deltas armed: τ=%v est %v < prev %v", tau, est, prev)
			}
			prev = est
		}
	}
}

// TestMonotoneEnvelopeTracksMutations pins the envelope cache to the model
// generation: an envelope filled before a mutation batch must not answer
// after it, so the wrapped estimate moves with the delta-corrected model.
func TestMonotoneEnvelopeTracksMutations(t *testing.T) {
	ds, _, a, test := newAdapterFixture(t, ServeOptions{})
	mon, err := Monotone(a.primary(), ds.TauMax(), 16)
	if err != nil {
		t.Fatal(err)
	}
	q, tau := test[0], ds.TauMax()
	before := mon.EstimateSearch(q.Vec, tau)
	if before <= 0 {
		t.Fatalf("pre-mutation envelope %v at τ_max; the check below would be vacuous", before)
	}
	rng := rand.New(rand.NewSource(5))
	ins := make([][]float64, 200)
	for i := range ins {
		ins[i] = jitter(q.Vec, rng)
	}
	if _, err := a.Mutate(ins, nil); err != nil {
		t.Fatal(err)
	}
	after := mon.EstimateSearch(q.Vec, tau)
	if after == before {
		t.Fatalf("envelope unchanged across a 200-insert batch next to q: %v", after)
	}
	fresh, err := Monotone(a.primary(), ds.TauMax(), 16)
	if err != nil {
		t.Fatal(err)
	}
	if want := fresh.EstimateSearch(q.Vec, tau); after != want {
		t.Fatalf("post-mutation envelope %v, a fresh wrapper answers %v", after, want)
	}
}

type fixedEst struct{ v float64 }

func (f *fixedEst) Name() string                                    { return "fixed" }
func (f *fixedEst) EstimateSearch(q []float64, tau float64) float64 { return f.v }
func (f *fixedEst) EstimateSearchBatch(qs [][]float64, taus []float64) []float64 {
	out := make([]float64, len(qs))
	for i := range out {
		out[i] = f.v
	}
	return out
}
func (f *fixedEst) EstimateJoin(qs [][]float64, tau float64) float64 { return f.v * float64(len(qs)) }
func (f *fixedEst) SizeBytes() int                                   { return 0 }

func TestUniformDeltaCorrection(t *testing.T) {
	u := NewUniformDelta(&fixedEst{v: 40}, 100)

	// Identity fast path: no pending net delta → bitwise passthrough.
	if got := u.EstimateSearch(nil, 1); got != 40 {
		t.Fatalf("identity: %v != 40", got)
	}
	u.NoteInsert(nil)
	u.NoteDelete(nil)
	if u.PendingDeltas() != 2 {
		t.Fatalf("pending %d, want 2", u.PendingDeltas())
	}
	if got := u.EstimateSearch(nil, 1); got != 40 {
		t.Fatalf("zero-net: %v != 40", got)
	}

	// +50 net: scale by 150/100.
	for i := 0; i < 50; i++ {
		u.NoteInsert(nil)
	}
	if got := u.EstimateSearch(nil, 1); got != 60 {
		t.Fatalf("scaled: %v != 60", got)
	}
	if got := u.EstimateSearchBatch([][]float64{nil, nil}, []float64{1, 2}); got[0] != 60 || got[1] != 60 {
		t.Fatalf("batch scaled: %v", got)
	}
	// Join ceiling is |Q|·liveN, not liveN.
	if got := u.EstimateJoin([][]float64{nil, nil, nil}, 1); got != 40*3*1.5 {
		t.Fatalf("join scaled: %v", got)
	}
	if u.LiveCount() != 150 {
		t.Fatalf("live %v, want 150", u.LiveCount())
	}

	// Clamp: estimate can never exceed the live population.
	big := NewUniformDelta(&fixedEst{v: 1000}, 100)
	big.NoteDelete(nil)
	if got := big.EstimateSearch(nil, 1); got != 99 {
		t.Fatalf("clamp: %v != 99", got)
	}

	// Drained below zero: floor at 0.
	drained := NewUniformDelta(&fixedEst{v: 10}, 3)
	for i := 0; i < 10; i++ {
		drained.NoteDelete(nil)
	}
	if drained.LiveCount() != 0 {
		t.Fatalf("drained live %v, want 0", drained.LiveCount())
	}
	if got := drained.EstimateSearch(nil, 1); got != 0 {
		t.Fatalf("drained estimate %v, want 0", got)
	}
	if u.Name() != "fixed" || u.SizeBytes() != 0 {
		t.Fatal("passthrough metadata broken")
	}
}

func TestSnapshotLabelerTracksMutations(t *testing.T) {
	ds, _, a, _ := newAdapterFixture(t, ServeOptions{})
	lab := NewSnapshotLabeler(ds, 16, 5)
	lab.snapshot = a.snapshotVectors
	a.opts.Labeler = lab

	q := append([]float64(nil), ds.Vectors()[0]...)
	before, err := lab.Label(q, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if lab.Rebuilds() != 1 {
		t.Fatalf("rebuilds %d, want 1 (lazy first build)", lab.Rebuilds())
	}
	// Unchanged snapshot: no rebuild on repeat labels.
	if _, err := lab.Label(q, 1e-9); err != nil {
		t.Fatal(err)
	}
	if lab.Rebuilds() != 1 {
		t.Fatalf("rebuilds %d after repeat label, want 1", lab.Rebuilds())
	}

	// Insert 5 exact duplicates of q: the next label sees the new truth.
	dups := [][]float64{}
	for i := 0; i < 5; i++ {
		dups = append(dups, append([]float64(nil), q...))
	}
	if _, err := a.Mutate(dups, nil); err != nil {
		t.Fatal(err)
	}
	after, err := lab.Label(q, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if lab.Rebuilds() != 2 {
		t.Fatalf("rebuilds %d after mutation, want 2", lab.Rebuilds())
	}
	if after != before+5 {
		t.Fatalf("label after 5 duplicate inserts = %v, want %v", after, before+5)
	}
}

func TestRetrainSynchronousResetsDeltas(t *testing.T) {
	ds, rel, a, test := newAdapterFixture(t, ServeOptions{
		Adapt: &AdaptOptions{Retrain: retrain.Config{Epochs: 2, SamplePoints: 12, ThresholdsPerPoint: 2, Seed: 6}},
	})
	rng := rand.New(rand.NewSource(7))
	var ins [][]float64
	for i := 0; i < 25; i++ {
		ins = append(ins, jitter(ds.Vectors()[rng.Intn(ds.Size())], rng))
	}
	if _, err := a.Mutate(ins, []int{2, 4, 6}); err != nil {
		t.Fatal(err)
	}
	if a.PendingDeltas() != 28 || a.LogLen() != 28 {
		t.Fatalf("pre-retrain pending/log = %d/%d, want 28/28", a.PendingDeltas(), a.LogLen())
	}
	gen := ModelGeneration()
	old := rel.Estimator()

	if err := a.Retrain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if a.Retrains() != 1 || a.LastRetrainError() != nil {
		t.Fatalf("retrains %d err %v", a.Retrains(), a.LastRetrainError())
	}
	if a.PendingDeltas() != 0 {
		t.Fatalf("pending after retrain = %d, want 0 (fresh tracking)", a.PendingDeltas())
	}
	if a.LogLen() != 0 {
		t.Fatalf("log after retrain = %d, want 0 (truncated)", a.LogLen())
	}
	if ModelGeneration() <= gen {
		t.Fatal("retrain swap did not bump the model generation")
	}
	if rel.Estimator() == old {
		t.Fatal("retrain did not swap in a new hardened generation")
	}
	// The swapped-in model still serves sane estimates over the live data.
	mut := a.primary().(Mutable)
	if int(mut.LiveCount()) != ds.Size() {
		t.Fatalf("post-retrain LiveCount %v != size %d", mut.LiveCount(), ds.Size())
	}
	for _, q := range test[:5] {
		est := rel.Estimator().EstimateSearch(q.Vec, q.Tau)
		if est < 0 || est > float64(ds.Size()) {
			t.Fatalf("post-retrain estimate %v outside [0, %d]", est, ds.Size())
		}
	}
}

func TestRetrainBusyAndNotRetrainable(t *testing.T) {
	_, _, a, _ := newAdapterFixture(t, ServeOptions{})
	a.retraining.Store(true)
	if err := a.Retrain(context.Background()); !errors.Is(err, ErrRetrainBusy) {
		t.Fatalf("err = %v, want ErrRetrainBusy", err)
	}
	a.retraining.Store(false)

	ds, _, _ := newAdaptFixture(t)
	samp, err := Train(ds, nil, TrainOptions{Method: "sampling", Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	rel := NewReloadable(Harden(samp, ServeOptions{}))
	sa := NewAdapter(ds, rel, ServeOptions{})
	if err := sa.Retrain(context.Background()); !errors.Is(err, ErrNotRetrainable) {
		t.Fatalf("err = %v, want ErrNotRetrainable", err)
	}
	if sa.LastRetrainError() == nil {
		t.Fatal("failed retrain not recorded")
	}
}

// TestHandleDriftLaunchesOneRetrain: overlapping drift events collapse into
// a single background run.
func TestHandleDriftLaunchesOneRetrain(t *testing.T) {
	ds, _, a, _ := newAdapterFixture(t, ServeOptions{
		Adapt: &AdaptOptions{Retrain: retrain.Config{Epochs: 1, SamplePoints: 8, ThresholdsPerPoint: 2, Seed: 9}},
	})
	rng := rand.New(rand.NewSource(10))
	if _, err := a.Mutate([][]float64{jitter(ds.Vectors()[0], rng)}, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		a.HandleDrift(probe.DriftEvent{Family: "gl-mlp"})
	}
	a.WaitIdle()
	if got := a.Retrains(); got != 1 {
		t.Fatalf("retrains = %d, want 1 (overlapping events dropped)", got)
	}
	if err := a.LastRetrainError(); err != nil {
		t.Fatalf("background retrain failed: %v", err)
	}
}

// medianQErrorVs computes the median q-error of est against exact truth.
func medianQErrorVs(t *testing.T, est Estimator, queries []Query, label func(q []float64, tau float64) (float64, error)) float64 {
	t.Helper()
	var errs []float64
	for _, q := range queries {
		truth, err := label(q.Vec, q.Tau)
		if err != nil {
			t.Fatal(err)
		}
		errs = append(errs, QError(est.EstimateSearch(q.Vec, q.Tau), truth))
	}
	sort.Float64s(errs)
	return errs[len(errs)/2]
}

// TestAdaptationEndToEnd is the PR's acceptance proof: a scripted
// insert/delete burst degrades live accuracy, the drift monitor fires, the
// background retrain repairs the model to within the from-scratch envelope,
// and every stage is visible in /metrics.
func TestAdaptationEndToEnd(t *testing.T) {
	ts, err := ServeTelemetry("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	ds, est, test := newAdaptFixture(t)
	lab := NewSnapshotLabeler(ds, 16, 301)
	probes := probe.New(lab.Label, probe.Config{
		Workers: 1,
		Alpha:   0.3,
		TauMax:  ds.TauMax(),
		Drift:   probe.DriftConfig{Threshold: 0.6, MinProbes: 8},
	})
	defer probes.Close()
	opts := ServeOptions{
		Probe: probes,
		Adapt: &AdaptOptions{
			AutoRetrain: true,
			Labeler:     lab,
			Retrain:     retrain.Config{Epochs: 10, SamplePoints: 80, ThresholdsPerPoint: 5, Seed: 302},
		},
	}
	rel, adapter := ServeAdaptive(est, ds, opts)

	// The burst grafts a differently-seeded cluster structure onto the
	// dataset (400 inserts) and deletes 150 of the original points — a real
	// distribution shift, not noise the delta correction can absorb.
	shift, err := GenerateProfile("imagenet", 400, adaptClusters, 999)
	if err != nil {
		t.Fatal(err)
	}

	// Accuracy is scored on mixed traffic — the original test queries plus
	// queries from the shifted region — because that is what the serving
	// tier sees after the burst: old clients keep querying, new clients
	// query the data they just inserted.
	eval := append([]Query(nil), test...)
	for i := 0; i < 12; i++ {
		eval = append(eval, Query{Vec: shift.Vectors()[i*3], Tau: ds.TauMax() / 4})
		eval = append(eval, Query{Vec: shift.Vectors()[i*3+1], Tau: ds.TauMax() / 2})
	}

	// Baseline and degradation are measured against the raw primary (no
	// probe offers): the drift monitor must see only post-burst traffic, so
	// the test controls exactly when detection can start.
	baseline := medianQErrorVs(t, adapter.primary(), eval, lab.Label)

	rng := rand.New(rand.NewSource(303))
	del := rng.Perm(ds.Size())[:150]
	res, err := adapter.Mutate(shift.VectorsCopy(), del)
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 400 || res.Deleted != 150 {
		t.Fatalf("burst result %+v", res)
	}

	degraded := medianQErrorVs(t, adapter.primary(), eval, lab.Label)
	t.Logf("median q-error: baseline %.3f → post-burst %.3f", baseline, degraded)
	if degraded <= baseline {
		t.Fatalf("burst did not degrade accuracy: %.3f ≤ %.3f", degraded, baseline)
	}

	// Serve post-burst traffic from the shifted region through the hardened
	// path until the drift monitor fires and the background retrain
	// completes. Every estimate is offered to the probe pipeline
	// (SampleEvery 1) and labeled against the post-mutation snapshot, so
	// the model's blindness to the new region shows up as live q-error.
	tau := ds.TauMax() / 2
	deadline := time.Now().Add(60 * time.Second)
	for adapter.Retrains() == 0 && time.Now().Before(deadline) {
		for _, q := range shift.Vectors()[:16] {
			rel.Estimator().EstimateSearch(q, tau)
		}
		time.Sleep(10 * time.Millisecond)
	}
	adapter.WaitIdle()
	if adapter.Retrains() == 0 {
		t.Fatal("drift monitor never triggered a retrain")
	}
	if err := adapter.LastRetrainError(); err != nil {
		t.Fatalf("background retrain failed: %v", err)
	}

	restored := medianQErrorVs(t, adapter.primary(), eval, lab.Label)

	// From-scratch envelope: retrain the same architecture on the mutated
	// dataset with a freshly labeled workload.
	scratchTrain, _, err := BuildWorkload(ds, WorkloadOptions{TrainPoints: 50, TestPoints: 5, ThresholdsPerPoint: 4, Seed: 304})
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := Train(ds, scratchTrain, TrainOptions{Method: "gl-mlp", Segments: 4, Epochs: 5, Seed: 305})
	if err != nil {
		t.Fatal(err)
	}
	scratchMed := medianQErrorVs(t, scratch, eval, lab.Label)
	t.Logf("median q-error: restored %.3f vs from-scratch %.3f (degraded %.3f)", restored, scratchMed, degraded)
	if restored > 1.1*scratchMed {
		t.Fatalf("retrain did not restore accuracy: restored %.3f > 1.1 × from-scratch %.3f", restored, scratchMed)
	}
	if restored >= degraded {
		t.Fatalf("retrain did not improve on the degraded model: %.3f ≥ %.3f", restored, degraded)
	}

	// Every adaptation stage must be visible in /metrics.
	resp, err := http.Get("http://" + ts.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		`simquery_mutations_total{op="insert"} 400`,
		`simquery_mutations_total{op="delete"} 150`,
		"simquery_live_dataset_size 1150",
		"simquery_pending_deltas 0",
		`simquery_drift_events_total{family=`,
		`simquery_retrains_total{outcome="ok"}`,
		"simquery_retrain_seconds_count",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}
