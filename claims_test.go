// Integration tests for the paper's headline qualitative claims, at the
// same reduced scale as the benchmarks. Absolute numbers differ from the
// paper's testbed; these assertions pin down the *shape*: who wins, and in
// which direction the trade-offs point.
package main

import (
	"testing"
	"time"

	"simquery/internal/exper"
	"simquery/internal/metrics"
)

// rowOf fetches one method's summary from an accuracy table.
func rowOf(t *testing.T, res exper.AccuracyResult, method string) metrics.Summary {
	t.Helper()
	for _, r := range res.Rows {
		if r.Method == method {
			return r.Summary
		}
	}
	t.Fatalf("method %s missing from table", method)
	return metrics.Summary{}
}

// Claim (Exp-2/Exp-5): the data-segmentation models beat small-sample
// baselines on mean Q-error by a wide margin.
func TestClaimSegmentedModelsBeatSmallSamples(t *testing.T) {
	_, s, _ := sharedSuite(t)
	res := exper.Table4(s)
	samp1 := rowOf(t, res, "Sampling (1%)").Mean
	for _, m := range []string{"GL+", "Local+", "GL-CNN"} {
		if got := rowOf(t, res, m).Mean; got >= samp1 {
			t.Fatalf("%s mean %.3g should beat Sampling (1%%) %.3g", m, got, samp1)
		}
	}
}

// Claim (Exp-1): the kernel baseline cannot match the learned
// data-segmentation estimators.
func TestClaimKernelWorseThanSegmented(t *testing.T) {
	_, s, _ := sharedSuite(t)
	res := exper.Table4(s)
	kernel := rowOf(t, res, "Kernel-based").Mean
	best := rowOf(t, res, "GL+").Mean
	if lp := rowOf(t, res, "Local+").Mean; lp < best {
		best = lp
	}
	if best >= kernel {
		t.Fatalf("best segmented %.3g should beat kernel %.3g", best, kernel)
	}
}

// bestOf3Latencies measures Table 6 three times and keeps each method's
// minimum, so a transient load burst on the host can't flip an ordering
// assertion.
func bestOf3Latencies(t *testing.T, s *exper.Suite) map[string]time.Duration {
	t.Helper()
	lat := map[string]time.Duration{}
	for i := 0; i < 3; i++ {
		res, err := exper.Table6(s, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Rows {
			if cur, ok := lat[r.Method]; !ok || r.PerCall < cur {
				lat[r.Method] = r.PerCall
			}
		}
	}
	return lat
}

// Claim (Exp-9): learned estimates are much faster than exact SimSelect and
// the 10% sampling baseline.
func TestClaimLearnedFasterThanExactAndSampling(t *testing.T) {
	if raceEnabled {
		t.Skip("latency ordering is distorted by race instrumentation")
	}
	_, s, _ := sharedSuite(t)
	lat := bestOf3Latencies(t, s)
	if lat["GL+"] >= lat["SimSelect"] {
		t.Fatalf("GL+ %v should be faster than SimSelect %v", lat["GL+"], lat["SimSelect"])
	}
	if lat["GL+"] >= lat["Sampling (10%)"] {
		t.Fatalf("GL+ %v should be faster than 10%% sampling %v", lat["GL+"], lat["Sampling (10%)"])
	}
}

// Claim (Exp-9): the global selection makes GL+ faster than evaluating
// every local model (Local+).
func TestClaimGlobalSelectionFasterThanAllLocals(t *testing.T) {
	if raceEnabled {
		t.Skip("latency ordering is distorted by race instrumentation")
	}
	_, s, _ := sharedSuite(t)
	lat := bestOf3Latencies(t, s)
	if lat["GL+"] >= lat["Local+"] {
		t.Fatalf("GL+ %v should be faster than Local+ %v", lat["GL+"], lat["Local+"])
	}
}

// Claim (Table 5): the QES model is far smaller than a 10% sample.
func TestClaimModelSmallerThanSamples(t *testing.T) {
	_, s, _ := sharedSuite(t)
	res := exper.Table5(s)
	sizes := map[string]int{}
	for _, r := range res.Rows {
		sizes[r.Method] = r.Bytes
	}
	if sizes["QES"] >= sizes["Sampling (10%)"] {
		t.Fatalf("QES %d B should be smaller than the 10%% sample %d B", sizes["QES"], sizes["Sampling (10%)"])
	}
}

// Claim (Exp-13): pooled join estimation (one output-module run per local)
// is faster than estimating each query separately.
func TestClaimPooledJoinFasterThanPerQuery(t *testing.T) {
	_, _, js := sharedSuite(t)
	// Warm-up pass: first-call allocation noise otherwise dominates the
	// sub-millisecond measurements.
	if _, err := exper.Figure13(js, 120, 1); err != nil {
		t.Fatal(err)
	}
	// Best of three runs per method, as bestOf3Latencies does for Table 6:
	// set-up garbage collected inside one timed window can't flip the
	// ordering.
	lat := map[string]time.Duration{}
	for i := 0; i < 3; i++ {
		rows, err := exper.Figure13(js, 120, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if cur, ok := lat[r.Method]; !ok || r.PerSet < cur {
				lat[r.Method] = r.PerSet
			}
		}
	}
	if lat["GLJoin+"] >= lat["GL+"] {
		t.Fatalf("pooled GLJoin+ %v should be faster than per-query GL+ %v", lat["GLJoin+"], lat["GL+"])
	}
}

// Claim (Exp-6): the penalty term keeps the global model's missing rate at
// least as low as without it.
func TestClaimPenaltyDoesNotHurtMissingRate(t *testing.T) {
	env, _, _ := sharedSuite(t)
	res, err := exper.Figure9(env)
	if err != nil {
		t.Fatal(err)
	}
	// At reduced scale the two can tie; the penalty must not be worse by
	// more than noise.
	if res.WithPenalty > res.WithoutPenalty+0.05 {
		t.Fatalf("penalty hurt missing rate: %.4f vs %.4f", res.WithPenalty, res.WithoutPenalty)
	}
}
