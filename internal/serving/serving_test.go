package serving

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"simquery/cardest"
)

// fixtureT is the shared tiny dataset + workload for serving tests, built
// once per binary — dataset generation and exact labeling dominate test
// time, the serving tier under test does not care how the vectors were made.
type fixtureT struct {
	ds      *cardest.Dataset
	train   []cardest.Query
	queries [][]float64
	taus    []float64
}

var (
	fixOnce sync.Once
	fix     fixtureT
	fixErr  error
)

func getFixture(t testing.TB) *fixtureT {
	t.Helper()
	fixOnce.Do(func() {
		ds, err := cardest.GenerateProfile("imagenet", 600, 6, 11)
		if err != nil {
			fixErr = err
			return
		}
		train, test, err := cardest.BuildWorkload(ds, cardest.WorkloadOptions{
			TrainPoints: 12, TestPoints: 16, ThresholdsPerPoint: 3, Seed: 12,
		})
		if err != nil {
			fixErr = err
			return
		}
		fix.ds, fix.train = ds, train
		for _, q := range test {
			fix.queries = append(fix.queries, q.Vec)
			fix.taus = append(fix.taus, q.Tau)
		}
	})
	if fixErr != nil {
		t.Fatalf("fixture: %v", fixErr)
	}
	return &fix
}

// newSampling trains the cheap sampling baseline — no labeled workload
// needed, fast enough to train per test.
func newSampling(t testing.TB, seed int64) cardest.Estimator {
	t.Helper()
	f := getFixture(t)
	est, err := cardest.Train(f.ds, nil, cardest.TrainOptions{Method: "sampling", SampleRatio: 0.3, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// newHardened wraps a fresh sampling primary per opts; the fallback, when
// unset, is a second sampling model so degraded paths stay answerable.
func newHardened(t testing.TB, seed int64, opts cardest.ServeOptions) *cardest.RobustEstimator {
	t.Helper()
	if opts.Fallback == nil {
		opts.Fallback = newSampling(t, seed+1000)
	}
	return cardest.Harden(newSampling(t, seed), opts)
}

// startReplica boots a replica on a loopback ephemeral port and tears it
// down with the test.
func startReplica(t *testing.T, est *cardest.RobustEstimator, cfg ReplicaConfig) *Replica {
	t.Helper()
	r := NewReplica(est, cfg)
	if err := r.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })
	return r
}

// postEstimate sends one wire request and decodes whichever body came back.
func postEstimate(t *testing.T, baseURL string, body EstimateRequest) (status int, hdr http.Header, ok EstimateResponse, fail ErrorResponse) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/estimate", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST /estimate: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &ok); err != nil {
			t.Fatalf("decode 200 body %q: %v", data, err)
		}
	} else if len(data) > 0 {
		_ = json.Unmarshal(data, &fail)
	}
	return resp.StatusCode, resp.Header, ok, fail
}

// slowEstimator delays every estimate — the saturation/stall stand-in for
// overload and hedging tests. It is deliberately context-blind: the
// hardened wrapper's best-effort deadline check after the call is exactly
// the production shape for non-cooperative estimators.
type slowEstimator struct {
	cardest.Estimator
	delay time.Duration
}

func (s *slowEstimator) EstimateSearch(q []float64, tau float64) float64 {
	time.Sleep(s.delay)
	return s.Estimator.EstimateSearch(q, tau)
}

func (s *slowEstimator) EstimateSearchBatch(qs [][]float64, taus []float64) []float64 {
	time.Sleep(s.delay)
	return s.Estimator.EstimateSearchBatch(qs, taus)
}
