package cardest

import (
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// table2Methods is the paper's Table 2 estimator lineup, in render order.
var table2Methods = []string{
	"gl+", "local+", "gl-cnn", "gl-mlp", "qes", "mlp", "cardnet", "sampling", "kernel",
}

// table2Fixture bundles the Table-2 suite's private dataset, workload, and
// the nine trained estimators. It deliberately does NOT reuse getFixture:
// other tests Insert into that shared dataset, which would make golden
// values depend on test execution order.
type table2Fixture struct {
	ds    *Dataset
	train []Query
	test  []Query
	ests  map[string]Estimator
}

var (
	table2Once sync.Once
	table2     table2Fixture
	table2Err  error
)

// table2Estimators trains all nine Table-2 estimators once per test run on
// a private fixed-seed fixture, so the golden and property suites reuse
// one deterministic set of models.
func table2Estimators(t *testing.T) table2Fixture {
	t.Helper()
	table2Once.Do(func() {
		ds, err := GenerateProfile("imagenet", 1500, 10, 181)
		if err != nil {
			table2Err = err
			return
		}
		train, test, err := BuildWorkload(ds, WorkloadOptions{TrainPoints: 60, TestPoints: 15, ThresholdsPerPoint: 5, Seed: 182})
		if err != nil {
			table2Err = err
			return
		}
		ests := make(map[string]Estimator, len(table2Methods))
		for i, method := range table2Methods {
			est, err := Train(ds, train, TrainOptions{
				Method:   method,
				Segments: 4,
				Epochs:   5,
				Seed:     900 + int64(i),
			})
			if err != nil {
				table2Err = err
				return
			}
			ests[method] = est
		}
		table2 = table2Fixture{ds: ds, train: train, test: test, ests: ests}
	})
	if table2Err != nil {
		t.Fatal(table2Err)
	}
	return table2
}

// TestHardenServesPrimaryVerbatim pins the hardened wrapper's no-fault
// contract on every Table-2 method: with no fallback, cache or fault armed,
// Harden answers exactly the primary's estimate.
func TestHardenServesPrimaryVerbatim(t *testing.T) {
	fx := table2Estimators(t)
	for _, method := range table2Methods {
		e := fx.ests[method]
		r := Harden(e, ServeOptions{})
		for _, q := range fx.test {
			if got, want := r.EstimateSearch(q.Vec, q.Tau), e.EstimateSearch(q.Vec, q.Tau); got != want {
				t.Fatalf("%s: hardened %v vs primary %v at τ=%v", method, got, want, q.Tau)
			}
		}
	}
}

// The tests below keep the names they had when serving offered lowered
// f32/int8 tiers; with one f64 path left they pin the f64 serving surface
// those tiers sat on.

// TestPrecisionSurvivesSaveLoad checks the checkpoint path: every
// checkpointed Table-2 model, saved and loaded back, serves the original
// primary's estimate bitwise through Harden on the whole test workload.
func TestPrecisionSurvivesSaveLoad(t *testing.T) {
	fx := table2Estimators(t)
	dir := t.TempDir()
	for _, method := range table2Methods {
		if method == "sampling" || method == "kernel" {
			continue // rebuilt from data, never checkpointed
		}
		e := fx.ests[method]
		path := filepath.Join(dir, method+".model")
		if err := Save(e, path); err != nil {
			t.Fatalf("%s: save: %v", method, err)
		}
		loaded, err := Load(path, fx.ds)
		if err != nil {
			t.Fatalf("%s: load: %v", method, err)
		}
		r := Harden(loaded, ServeOptions{})
		for _, q := range fx.test {
			if got, want := r.EstimateSearch(q.Vec, q.Tau), e.EstimateSearch(q.Vec, q.Tau); got != want {
				t.Fatalf("%s: reloaded hardened %v vs primary %v at τ=%v", method, got, want, q.Tau)
			}
		}
	}
}

// TestPrecisionFallbackForBaselines pins the batch contract for the
// baselines: whatever batch path a method has (native or a per-query
// loop), the hardened batch answers each query with the primary's
// single-query estimate.
func TestPrecisionFallbackForBaselines(t *testing.T) {
	fx := table2Estimators(t)
	qs := make([][]float64, len(fx.test))
	taus := make([]float64, len(fx.test))
	for i, q := range fx.test {
		qs[i], taus[i] = q.Vec, q.Tau
	}
	for _, method := range []string{"sampling", "kernel", "cardnet"} {
		e := fx.ests[method]
		got, err := Harden(e, ServeOptions{}).EstimateSearchBatchCtx(t.Context(), qs, taus)
		if err != nil {
			t.Fatalf("%s: batch: %v", method, err)
		}
		if len(got) != len(qs) {
			t.Fatalf("%s: %d estimates for %d queries", method, len(got), len(qs))
		}
		for i := range qs {
			if want := e.EstimateSearch(qs[i], taus[i]); got[i] != want {
				t.Fatalf("%s query %d: batch %v vs single %v", method, i, got[i], want)
			}
		}
	}
}

// TestPrecisionInfoSurface checks that Harden is transparent to the
// planner: on every Table-2 method the hardened Info reports the primary's
// name, family, τ range, batch capability and footprint, tagged "robust".
func TestPrecisionInfoSurface(t *testing.T) {
	fx := table2Estimators(t)
	for _, method := range table2Methods {
		e := fx.ests[method]
		want := Describe(e)
		got := Harden(e, ServeOptions{}).Info()
		if got.Name != want.Name || got.Family != want.Family || got.TauMin != want.TauMin ||
			got.TauMax != want.TauMax || got.BatchNative != want.BatchNative || got.SizeBytes != want.SizeBytes {
			t.Fatalf("%s: hardened Info %+v, primary Info %+v", method, got, want)
		}
		if len(got.Wrappers) == 0 || got.Wrappers[0] != "robust" || got.CacheServed {
			t.Fatalf("%s: hardened wrappers %v (cache-served %v), want [robust ...] uncached",
				method, got.Wrappers, got.CacheServed)
		}
	}
}

// TestPrecisionCacheHitParity is the estimate-cache gate on a repeated
// request stream: a hit answers exactly what the miss that filled it
// answered, the second pass over the stream never misses, and two runs on
// fresh caches see the same hit/miss counts.
func TestPrecisionCacheHitParity(t *testing.T) {
	fx := table2Estimators(t)
	e := fx.ests["mlp"]
	run := func() (first []float64, hits, misses int64) {
		// One entry per test query, so nothing is evicted between passes.
		cache, err := NewEstimateCache(len(fx.test), 8, fx.ds.TauMax(), time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		r := Harden(e, ServeOptions{Cache: cache})
		for _, q := range fx.test {
			if cache.InBand(q.Tau) {
				first = append(first, r.EstimateSearch(q.Vec, q.Tau))
			}
		}
		afterFirst := cache.Stats().Misses
		i := 0
		for _, q := range fx.test {
			if !cache.InBand(q.Tau) {
				continue
			}
			if v := r.EstimateSearch(q.Vec, q.Tau); v != first[i] {
				t.Fatalf("query %d: hit %v vs miss %v", i, v, first[i])
			}
			i++
		}
		st := cache.Stats()
		if st.Misses != afterFirst {
			t.Fatalf("second pass missed %d times", st.Misses-afterFirst)
		}
		return first, st.Hits, st.Misses
	}
	first, h1, m1 := run()
	if len(first) == 0 || h1 == 0 {
		t.Fatalf("%d in-band queries, %d hits; the parity check is vacuous", len(first), h1)
	}
	again, h2, m2 := run()
	if h1 != h2 || m1 != m2 {
		t.Fatalf("hit/miss counts changed across runs: %d/%d vs %d/%d", h1, m1, h2, m2)
	}
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("query %d: %v vs %v across runs", i, first[i], again[i])
		}
	}
}
