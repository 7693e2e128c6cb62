package serving

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"simquery/cardest"
)

func TestReplicaEstimateHappyPath(t *testing.T) {
	f := getFixture(t)
	rep := startReplica(t, newHardened(t, 21, cardest.ServeOptions{}), ReplicaConfig{Name: "alpha"})

	status, _, resp, _ := postEstimate(t, rep.URL(), EstimateRequest{
		Queries: f.queries[:3], Taus: f.taus[:3],
	})
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200", status)
	}
	if len(resp.Estimates) != 3 {
		t.Fatalf("%d estimates, want 3", len(resp.Estimates))
	}
	for i, v := range resp.Estimates {
		if v < 0 {
			t.Errorf("estimate %d = %v, want >= 0", i, v)
		}
	}
	if resp.Replica != "alpha" {
		t.Errorf("replica name %q, want alpha", resp.Replica)
	}
	if resp.Degraded {
		t.Error("healthy request reported degraded")
	}
	if rep.Served() != 1 {
		t.Errorf("Served() = %d, want 1", rep.Served())
	}
}

func TestReplicaRejectsMalformedRequests(t *testing.T) {
	rep := startReplica(t, newHardened(t, 22, cardest.ServeOptions{}), ReplicaConfig{})

	resp, err := http.Post(rep.URL()+"/estimate", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: status %d, want 400", resp.StatusCode)
	}

	status, _, _, fail := postEstimate(t, rep.URL(), EstimateRequest{
		Queries: [][]float64{{1, 2}}, Taus: []float64{0.1, 0.2},
	})
	if status != http.StatusBadRequest {
		t.Fatalf("mismatched taus: status %d, want 400", status)
	}
	if fail.Error == "" {
		t.Fatal("400 carried no error body")
	}

	// Wrong method on a valid route.
	getResp, err := http.Get(rep.URL() + "/estimate")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /estimate: status %d, want 405", getResp.StatusCode)
	}
}

// TestReplicaCapsBatchSize checks the per-request query cap at the edge:
// MaxBatchQueries queries are served, one more is a 400 before the model
// runs.
func TestReplicaCapsBatchSize(t *testing.T) {
	f := getFixture(t)
	rep := startReplica(t, newHardened(t, 22, cardest.ServeOptions{}), ReplicaConfig{DefaultDeadline: time.Minute})
	batch := func(n int) EstimateRequest {
		req := EstimateRequest{Queries: make([][]float64, n), Taus: make([]float64, n)}
		for i := range req.Queries {
			req.Queries[i], req.Taus[i] = f.queries[0], f.taus[0]
		}
		return req
	}
	if status, _, resp, _ := postEstimate(t, rep.URL(), batch(MaxBatchQueries)); status != http.StatusOK || len(resp.Estimates) != MaxBatchQueries {
		t.Fatalf("batch at the cap: status %d with %d estimates, want 200 with %d", status, len(resp.Estimates), MaxBatchQueries)
	}
	status, _, _, fail := postEstimate(t, rep.URL(), batch(MaxBatchQueries+1))
	if status != http.StatusBadRequest || fail.Error == "" {
		t.Fatalf("batch over the cap: status %d (%q), want 400 with an error body", status, fail.Error)
	}
}

// TestReplicaRejectsOversizedBody streams a body one byte past
// MaxBodyBytes: the replica answers 413 without buffering the rest.
func TestReplicaRejectsOversizedBody(t *testing.T) {
	rep := startReplica(t, newHardened(t, 22, cardest.ServeOptions{}), ReplicaConfig{})
	prefix := `{"queries":[[`
	pad := strings.NewReader(strings.Repeat("0,", (MaxBodyBytes-len(prefix))/2+1))
	resp, err := http.Post(rep.URL()+"/estimate", "application/json", io.MultiReader(strings.NewReader(prefix), pad))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
}

// TestReplicaRejectsTrailingData pins the one-value body rule: bytes after
// the request object are a 400, trailing whitespace is not.
func TestReplicaRejectsTrailingData(t *testing.T) {
	f := getFixture(t)
	rep := startReplica(t, newHardened(t, 22, cardest.ServeOptions{}), ReplicaConfig{})
	valid, err := json.Marshal(EstimateRequest{Queries: f.queries[:1], Taus: f.taus[:1]})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		suffix string
		status int
	}{
		{" \n\t", http.StatusOK},
		{"{}", http.StatusBadRequest},
		{" x", http.StatusBadRequest},
		{`{"queries":[[1]],"taus":[0.1]}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(rep.URL()+"/estimate", "application/json", bytes.NewReader(append(valid[:len(valid):len(valid)], tc.suffix...)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("body + %q: status %d, want %d", tc.suffix, resp.StatusCode, tc.status)
		}
	}
}

// TestReplicaRejectsOversizedValidBody sends a complete request object
// padded with whitespace past MaxBodyBytes: the whole body counts, so it is
// a 413 even though the object itself is small.
func TestReplicaRejectsOversizedValidBody(t *testing.T) {
	f := getFixture(t)
	rep := startReplica(t, newHardened(t, 22, cardest.ServeOptions{}), ReplicaConfig{})
	valid, err := json.Marshal(EstimateRequest{Queries: f.queries[:1], Taus: f.taus[:1]})
	if err != nil {
		t.Fatal(err)
	}
	body := io.MultiReader(bytes.NewReader(valid), strings.NewReader(strings.Repeat(" ", MaxBodyBytes)))
	resp, err := http.Post(rep.URL()+"/estimate", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("padded body: status %d, want 413", resp.StatusCode)
	}
}

// TestReplicaRejectsWrongDimension checks that a query of the wrong
// dimension is the client's 400, not a recovered panic's 500 or a
// fallback answer.
func TestReplicaRejectsWrongDimension(t *testing.T) {
	f := getFixture(t)
	rep := startReplica(t, newHardened(t, 22, cardest.ServeOptions{}), ReplicaConfig{})
	short := f.queries[0][:len(f.queries[0])-1]
	status, _, _, fail := postEstimate(t, rep.URL(), EstimateRequest{
		Queries: [][]float64{f.queries[0], short}, Taus: f.taus[:2],
	})
	if status != http.StatusBadRequest || !strings.Contains(fail.Error, "query 1 has dim") {
		t.Fatalf("wrong-dimension query: status %d (%q), want 400 naming query 1", status, fail.Error)
	}
}

func TestReplicaHealthAndReadiness(t *testing.T) {
	rep := startReplica(t, newHardened(t, 23, cardest.ServeOptions{}), ReplicaConfig{})
	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(rep.URL() + ep)
		if err != nil {
			t.Fatalf("GET %s: %v", ep, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d, want 200", ep, resp.StatusCode)
		}
	}
	// No Loader configured: reload is not routed.
	resp, err := http.Post(rep.URL()+"/reload", "application/json", bytes.NewReader([]byte(`{}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /reload without Loader: status %d, want 404", resp.StatusCode)
	}
}

// TestReplicaShedsWith429 drives a one-slot replica past saturation and
// checks the overload contract: 429 plus both Retry-After headers, and the
// shed request never produces a wrong answer.
func TestReplicaShedsWith429(t *testing.T) {
	f := getFixture(t)
	slow := &slowEstimator{Estimator: newSampling(t, 24), delay: 150 * time.Millisecond}
	est := cardest.Harden(slow, cardest.ServeOptions{MaxInFlight: 1})
	rep := startReplica(t, est, ReplicaConfig{RetryAfter: 80 * time.Millisecond})

	hold := make(chan struct{})
	go func() {
		defer close(hold)
		postEstimate(t, rep.URL(), EstimateRequest{Queries: f.queries[:1], Taus: f.taus[:1]})
	}()
	time.Sleep(30 * time.Millisecond) // let the holder occupy the slot

	status, hdr, _, fail := postEstimate(t, rep.URL(), EstimateRequest{Queries: f.queries[1:2], Taus: f.taus[1:2]})
	<-hold
	if status != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", status)
	}
	if fail.Error == "" {
		t.Error("429 carried no error body")
	}
	if got := hdr.Get(RetryAfterMsHeader); got != "80" {
		t.Errorf("%s = %q, want 80", RetryAfterMsHeader, got)
	}
	if got := hdr.Get(RetryAfterHeader); got == "" {
		t.Error("429 missing Retry-After")
	} else if _, err := strconv.Atoi(got); err != nil {
		t.Errorf("Retry-After %q is not whole seconds", got)
	}
}

func TestReplicaDeadlineIs504(t *testing.T) {
	f := getFixture(t)
	slow := &slowEstimator{Estimator: newSampling(t, 25), delay: 120 * time.Millisecond}
	rep := startReplica(t, cardest.Harden(slow, cardest.ServeOptions{}), ReplicaConfig{})

	status, _, _, fail := postEstimate(t, rep.URL(), EstimateRequest{
		Queries: f.queries[:1], Taus: f.taus[:1], DeadlineMs: 20,
	})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", status)
	}
	if fail.Error == "" {
		t.Error("504 carried no error body")
	}
}

// saveQESModel trains and checkpoints a serializable model for reload tests,
// returning the path — the production reload path (cardest.Load bumps
// ModelGeneration, so the swap publishes a fresh stamp).
func saveQESModel(t *testing.T, seed int64) string {
	t.Helper()
	f := getFixture(t)
	est, err := cardest.Train(f.ds, f.train, cardest.TrainOptions{Method: "qes", Epochs: 4, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := cardest.Save(est, path); err != nil {
		t.Fatal(err)
	}
	return path
}

func postReload(t *testing.T, baseURL, path string) (int, reloadResponse) {
	t.Helper()
	body, _ := json.Marshal(reloadRequest{Path: path})
	resp, err := http.Post(baseURL+"/reload", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /reload: %v", err)
	}
	defer resp.Body.Close()
	var rr reloadResponse
	_ = json.NewDecoder(resp.Body).Decode(&rr)
	return resp.StatusCode, rr
}

func TestReplicaReloadSwapsGeneration(t *testing.T) {
	f := getFixture(t)
	path := saveQESModel(t, 26)
	loader := func(p string) (*cardest.RobustEstimator, error) {
		e, err := cardest.Load(p, f.ds)
		if err != nil {
			return nil, err
		}
		return cardest.Harden(e, cardest.ServeOptions{}), nil
	}
	rep := startReplica(t, newHardened(t, 27, cardest.ServeOptions{}), ReplicaConfig{Loader: loader})

	_, _, before, _ := postEstimate(t, rep.URL(), EstimateRequest{Queries: f.queries[:1], Taus: f.taus[:1]})

	status, rr := postReload(t, rep.URL(), path)
	if status != http.StatusOK {
		t.Fatalf("reload status %d, want 200", status)
	}
	if !rr.Drained {
		t.Error("idle replica failed to drain the old generation")
	}
	if rr.Generation <= before.Generation {
		t.Fatalf("reload generation %d not newer than %d", rr.Generation, before.Generation)
	}
	if rep.Reloads() != 1 {
		t.Errorf("Reloads() = %d, want 1", rep.Reloads())
	}

	status2, _, after, _ := postEstimate(t, rep.URL(), EstimateRequest{Queries: f.queries[:1], Taus: f.taus[:1]})
	if status2 != http.StatusOK {
		t.Fatalf("post-reload estimate status %d, want 200", status2)
	}
	if after.Generation != rr.Generation {
		t.Errorf("post-reload answer from generation %d, want %d", after.Generation, rr.Generation)
	}
}

func TestReplicaReloadFailureKeepsServing(t *testing.T) {
	f := getFixture(t)
	loader := func(p string) (*cardest.RobustEstimator, error) {
		return nil, fmt.Errorf("no checkpoint at %s", p)
	}
	rep := startReplica(t, newHardened(t, 28, cardest.ServeOptions{}), ReplicaConfig{Loader: loader})

	_, _, before, _ := postEstimate(t, rep.URL(), EstimateRequest{Queries: f.queries[:1], Taus: f.taus[:1]})
	status, _ := postReload(t, rep.URL(), "/nonexistent")
	if status != http.StatusInternalServerError {
		t.Fatalf("failed reload status %d, want 500", status)
	}
	status2, _, after, _ := postEstimate(t, rep.URL(), EstimateRequest{Queries: f.queries[:1], Taus: f.taus[:1]})
	if status2 != http.StatusOK {
		t.Fatalf("estimate after failed reload: status %d, want 200", status2)
	}
	if after.Generation != before.Generation {
		t.Errorf("failed reload changed the serving generation %d → %d", before.Generation, after.Generation)
	}
	if rep.Reloads() != 0 {
		t.Errorf("failed reload counted: Reloads() = %d, want 0", rep.Reloads())
	}
}

func TestReplicaStartTwiceFails(t *testing.T) {
	rep := startReplica(t, newHardened(t, 29, cardest.ServeOptions{}), ReplicaConfig{})
	if err := rep.Start("127.0.0.1:0"); err == nil {
		t.Fatal("second Start succeeded")
	}
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rep.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestReplicaConcurrentEstimates exercises the pin/release path under
// parallel load — a smoke test that the handler holds no lock across the
// model call.
func TestReplicaConcurrentEstimates(t *testing.T) {
	f := getFixture(t)
	rep := startReplica(t, newHardened(t, 30, cardest.ServeOptions{}), ReplicaConfig{})
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := i % len(f.queries)
			status, _, resp, _ := postEstimate(t, rep.URL(), EstimateRequest{
				Queries: f.queries[k : k+1], Taus: f.taus[k : k+1],
			})
			if status != http.StatusOK || len(resp.Estimates) != 1 {
				errs <- fmt.Sprintf("req %d: status %d, %d estimates", i, status, len(resp.Estimates))
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
