package serving

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"simquery/cardest"
	"simquery/internal/estcache"
)

// stubReplica is an httptest-backed /estimate endpoint with a scriptable
// handler — router unit tests isolate dispatch behavior from the real
// replica and model stack.
func stubReplica(t *testing.T, handler func(w http.ResponseWriter, req EstimateRequest)) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /estimate", func(w http.ResponseWriter, r *http.Request) {
		var body EstimateRequest
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		handler(w, body)
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// okHandler answers every query with est and the given identity.
func okHandler(name string, gen uint64, est float64) func(http.ResponseWriter, EstimateRequest) {
	return func(w http.ResponseWriter, req EstimateRequest) {
		out := make([]float64, len(req.Queries))
		for i := range out {
			out[i] = est
		}
		writeJSON(w, http.StatusOK, EstimateResponse{Estimates: out, Generation: gen, Replica: name})
	}
}

// noProbe disables the background prober so tests control breaker state
// transitions themselves.
func testRouter(t *testing.T, urls []string, opts RouterOptions) *Router {
	t.Helper()
	if opts.ProbeInterval == 0 {
		opts.ProbeInterval = -1
	}
	r, err := NewRouter(urls, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

var (
	testQuery = []float64{0.25, 0.5, 0.75}
	testTau   = 0.3
)

func TestRouterHappyPath(t *testing.T) {
	a := stubReplica(t, okHandler("a", 7, 42))
	b := stubReplica(t, okHandler("b", 7, 42))
	r := testRouter(t, []string{a.URL, b.URL}, RouterOptions{DisableHedge: true})

	res, err := r.Estimate(context.Background(), [][]float64{testQuery}, []float64{testTau})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Estimates) != 1 || res.Estimates[0] != 42 {
		t.Fatalf("estimates %v, want [42]", res.Estimates)
	}
	if res.Degraded || res.Fallback || res.Retried || res.Hedged {
		t.Fatalf("clean dispatch flagged %+v", res)
	}
	if res.Generation != 7 {
		t.Errorf("generation %d, want 7", res.Generation)
	}
	st := r.Stats()
	if st.Requests != 1 || st.OK != 1 || st.Errors != 0 {
		t.Errorf("stats %+v, want 1 request, 1 ok", st)
	}
}

func TestRouterValidatesBatch(t *testing.T) {
	a := stubReplica(t, okHandler("a", 1, 1))
	r := testRouter(t, []string{a.URL}, RouterOptions{DisableHedge: true})
	if _, err := r.Estimate(context.Background(), nil, nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := r.Estimate(context.Background(), [][]float64{testQuery}, []float64{0.1, 0.2}); err == nil {
		t.Fatal("mismatched taus accepted")
	}
}

func TestRouterNeedsReplicas(t *testing.T) {
	if _, err := NewRouter(nil, RouterOptions{}); err == nil {
		t.Fatal("empty replica set accepted")
	}
}

func TestRouterShardAffinityIsDeterministic(t *testing.T) {
	a := stubReplica(t, okHandler("a", 1, 1))
	b := stubReplica(t, okHandler("b", 1, 1))
	r := testRouter(t, []string{a.URL, b.URL}, RouterOptions{DisableHedge: true})

	want := r.shardOf(testQuery)
	for i := 0; i < 10; i++ {
		if got := r.shardOf(testQuery); got != want {
			t.Fatalf("shardOf varied: %d then %d", want, got)
		}
	}
	if want < 0 || want >= 2 {
		t.Fatalf("shard %d out of range", want)
	}
	// The shard key is the cache fingerprint: a sub-quantum perturbation
	// maps to the same replica (warm cache affinity).
	jittered := []float64{testQuery[0] + 1e-12, testQuery[1], testQuery[2]}
	h1, _ := estcache.Fingerprint(testQuery)
	j1, _ := estcache.Fingerprint(jittered)
	if h1 == j1 && r.shardOf(jittered) != want {
		t.Fatal("same fingerprint routed to a different shard")
	}
}

// TestRouterRetriesDeadReplica points the preferred shard at a dead port
// and checks the dispatch ladder recovers on a sibling, flagging the retry.
func TestRouterRetriesDeadReplica(t *testing.T) {
	live := stubReplica(t, okHandler("live", 3, 9))
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // connection refused from now on

	// Order the replica list so the test query's preferred shard is the
	// dead one — the first attempt must fail.
	urls := []string{dead.URL, live.URL}
	h1, _ := estcache.Fingerprint(testQuery)
	if h1%2 == 1 {
		urls = []string{live.URL, dead.URL}
	}
	r := testRouter(t, urls, RouterOptions{
		DisableHedge: true,
		BackoffBase:  time.Millisecond, BackoffMax: 2 * time.Millisecond,
	})

	res, err := r.Estimate(context.Background(), [][]float64{testQuery}, []float64{testTau})
	if err != nil {
		t.Fatalf("dispatch failed despite a live sibling: %v", err)
	}
	if !res.Retried {
		t.Error("result not flagged Retried")
	}
	if res.Replica != "live" {
		t.Errorf("answered by %q, want live", res.Replica)
	}
	if st := r.Stats(); st.Retries < 1 {
		t.Errorf("stats %+v, want >= 1 retry", st)
	}
}

// TestRouterShedCoolsReplicaWithoutTrippingBreaker pins the 429 contract:
// the advertised window parks the replica, the breaker stays closed (an
// overloaded replica is healthy), and traffic moves to the sibling.
func TestRouterShedCoolsReplicaWithoutTrippingBreaker(t *testing.T) {
	var shedCalls atomic.Int64
	shedding := stubReplica(t, func(w http.ResponseWriter, req EstimateRequest) {
		shedCalls.Add(1)
		w.Header().Set(RetryAfterMsHeader, strconv.Itoa(200))
		w.Header().Set(RetryAfterHeader, "1")
		writeJSON(w, http.StatusTooManyRequests, ErrorResponse{Error: "shed"})
	})
	calm := stubReplica(t, okHandler("calm", 1, 5))

	urls := []string{shedding.URL, calm.URL}
	shedIdx := 0
	h1, _ := estcache.Fingerprint(testQuery)
	if h1%2 == 1 {
		urls = []string{calm.URL, shedding.URL}
		shedIdx = 1
	}
	r := testRouter(t, urls, RouterOptions{DisableHedge: true})

	res, err := r.Estimate(context.Background(), [][]float64{testQuery}, []float64{testTau})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replica != "calm" {
		t.Errorf("answered by %q, want calm", res.Replica)
	}
	if st := r.Stats(); st.Shed != 1 {
		t.Errorf("Shed = %d, want 1", st.Shed)
	}
	if got := r.reps[shedIdx].breaker.State(); got != CircuitClosed {
		t.Errorf("shedding replica's circuit %v, want closed", got)
	}
	if !r.reps[shedIdx].cooling(time.Now()) {
		t.Error("shedding replica not cooling despite the advertised window")
	}
	// Inside the window the shedding replica must not be re-attempted.
	before := shedCalls.Load()
	if _, err := r.Estimate(context.Background(), [][]float64{testQuery}, []float64{testTau}); err != nil {
		t.Fatal(err)
	}
	if shedCalls.Load() != before {
		t.Error("router re-attempted a cooling replica inside its window")
	}
}

func TestRouterBreakerOpensOnRepeated5xx(t *testing.T) {
	bad := stubReplica(t, func(w http.ResponseWriter, _ EstimateRequest) {
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: "broken"})
	})
	r := testRouter(t, []string{bad.URL}, RouterOptions{
		DisableHedge:     true,
		BreakerThreshold: 2,
		BackoffBase:      time.Millisecond, BackoffMax: 2 * time.Millisecond,
	})
	if _, err := r.Estimate(context.Background(), [][]float64{testQuery}, []float64{testTau}); err == nil {
		t.Fatal("dispatch to an always-500 replica succeeded")
	}
	if got := r.reps[0].breaker.State(); got != CircuitOpen {
		t.Fatalf("circuit %v after repeated 5xx, want open", got)
	}
	if st := r.Stats(); st.Errors != 1 {
		t.Errorf("Errors = %d, want 1", st.Errors)
	}
}

// TestRouterOversizedBatchIsClientError is the repro of a batch every
// replica refuses: 1025 queries through 2 replicas with a sampling
// fallback. It must be a client error before dispatch, not a fallback
// answer, and no circuit may count it.
func TestRouterOversizedBatchIsClientError(t *testing.T) {
	f := getFixture(t)
	a := startReplica(t, newHardened(t, 24, cardest.ServeOptions{}), ReplicaConfig{Name: "a"})
	b := startReplica(t, newHardened(t, 25, cardest.ServeOptions{}), ReplicaConfig{Name: "b"})
	r := testRouter(t, []string{a.URL(), b.URL()}, RouterOptions{
		Fallback:    newSampling(t, 26),
		BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond,
	})
	qs := make([][]float64, MaxBatchQueries+1)
	taus := make([]float64, len(qs))
	for i := range qs {
		qs[i], taus[i] = f.queries[i%len(f.queries)], f.taus[i%len(f.taus)]
	}
	res, err := r.Estimate(context.Background(), qs, taus)
	var ce *ClientError
	if !errors.As(err, &ce) || res != nil {
		t.Fatalf("1025-query batch: result %v, err %v; want a *ClientError", res, err)
	}
	if st := r.Stats(); st.Retries != 0 || st.Fallback != 0 || st.Errors != 1 || st.Requests != 1 {
		t.Errorf("stats %+v, want Retries:0 Fallback:0 Errors:1", st)
	}
	for name, state := range r.Replicas() {
		if state != CircuitClosed {
			t.Errorf("circuit %s is %v, want closed", name, state)
		}
	}
	if a.Served()+b.Served() != 0 {
		t.Errorf("replicas served %d requests, want 0 (rejected before dispatch)", a.Served()+b.Served())
	}
}

// TestRouterReplica4xxIsClientError checks that a replica's 4xx verdict
// (other than 429) ends the request at once: no breaker failure, no retry,
// no hedge, no fallback.
func TestRouterReplica4xxIsClientError(t *testing.T) {
	for _, status := range []int{http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge} {
		var calls atomic.Int64
		refuse := func(w http.ResponseWriter, _ EstimateRequest) {
			calls.Add(1)
			writeJSON(w, status, ErrorResponse{Error: "refused"})
		}
		a, b := stubReplica(t, refuse), stubReplica(t, refuse)
		r := testRouter(t, []string{a.URL, b.URL}, RouterOptions{
			Fallback:         newSampling(t, 27),
			BreakerThreshold: 1,
			HedgeFloor:       time.Millisecond,
			BackoffBase:      time.Millisecond, BackoffMax: 2 * time.Millisecond,
		})
		_, err := r.Estimate(context.Background(), [][]float64{testQuery}, []float64{testTau})
		var ce *ClientError
		if !errors.As(err, &ce) || ce.Status != status || ce.Replica == "" {
			t.Fatalf("status %d: err %v, want a *ClientError with that status", status, err)
		}
		if st := r.Stats(); st.Retries != 0 || st.Fallback != 0 || st.Errors != 1 {
			t.Errorf("status %d: stats %+v, want Retries:0 Fallback:0 Errors:1", status, st)
		}
		if n := calls.Load(); n != 1 && !(n == 2 && r.Stats().Hedges == 1) {
			t.Errorf("status %d: %d replica calls, want 1 (or 2 with a hedge in flight)", status, n)
		}
		for name, state := range r.Replicas() {
			if state != CircuitClosed {
				t.Errorf("status %d: circuit %s is %v, want closed", status, name, state)
			}
		}
	}
}

// TestRouterNonFiniteQueryIsClientError checks that a batch JSON cannot
// carry (a NaN coordinate) is the caller's error, sent nowhere.
func TestRouterNonFiniteQueryIsClientError(t *testing.T) {
	var calls atomic.Int64
	a := stubReplica(t, func(w http.ResponseWriter, req EstimateRequest) {
		calls.Add(1)
		okHandler("a", 1, 1)(w, req)
	})
	r := testRouter(t, []string{a.URL}, RouterOptions{DisableHedge: true, Fallback: newSampling(t, 28)})
	_, err := r.Estimate(context.Background(), [][]float64{{0.25, math.NaN(), 0.75}}, []float64{testTau})
	var ce *ClientError
	if !errors.As(err, &ce) {
		t.Fatalf("NaN query: err %v, want a *ClientError", err)
	}
	if st := r.Stats(); calls.Load() != 0 || st.Fallback != 0 || st.Errors != 1 || r.reps[0].breaker.State() != CircuitClosed {
		t.Errorf("NaN query: %d replica calls, stats %+v, circuit %v; want none sent, 1 error, closed", calls.Load(), st, r.reps[0].breaker.State())
	}
}

// TestRouterTotalLossFallsBackLocally is the bottom rung: every replica
// dead, a local sampling tier answers, the client sees no error.
func TestRouterTotalLossFallsBackLocally(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	f := getFixture(t)
	r := testRouter(t, []string{dead.URL}, RouterOptions{
		DisableHedge: true,
		Fallback:     newSampling(t, 31),
		BackoffBase:  time.Millisecond, BackoffMax: 2 * time.Millisecond,
	})

	res, err := r.Estimate(context.Background(), f.queries[:2], f.taus[:2])
	if err != nil {
		t.Fatalf("total loss with a fallback errored: %v", err)
	}
	if !res.Fallback || !res.Degraded {
		t.Fatalf("result %+v, want Fallback+Degraded", res)
	}
	if len(res.Estimates) != 2 {
		t.Fatalf("%d estimates, want 2", len(res.Estimates))
	}
	st := r.Stats()
	if st.Fallback != 1 || st.Errors != 0 {
		t.Errorf("stats %+v, want 1 fallback, 0 errors", st)
	}
}

func TestRouterTotalLossWithoutFallbackErrors(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	r := testRouter(t, []string{dead.URL}, RouterOptions{
		DisableHedge: true,
		BackoffBase:  time.Millisecond, BackoffMax: 2 * time.Millisecond,
	})
	if _, err := r.Estimate(context.Background(), [][]float64{testQuery}, []float64{testTau}); err == nil {
		t.Fatal("total loss without a fallback did not error")
	}
	if st := r.Stats(); st.Errors != 1 {
		t.Errorf("Errors = %d, want 1", st.Errors)
	}
}

// TestRouterHedgesStalledReplica stalls the preferred replica well past the
// hedge delay and checks the sibling's answer wins.
func TestRouterHedgesStalledReplica(t *testing.T) {
	slow := stubReplica(t, func(w http.ResponseWriter, req EstimateRequest) {
		time.Sleep(400 * time.Millisecond)
		okHandler("slow", 1, 1)(w, req)
	})
	fast := stubReplica(t, okHandler("fast", 1, 2))

	urls := []string{slow.URL, fast.URL}
	h1, _ := estcache.Fingerprint(testQuery)
	if h1%2 == 1 {
		urls = []string{fast.URL, slow.URL}
	}
	r := testRouter(t, urls, RouterOptions{
		HedgeFloor: 15 * time.Millisecond,
		Deadline:   2 * time.Second,
	})

	start := time.Now()
	res, err := r.Estimate(context.Background(), [][]float64{testQuery}, []float64{testTau})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replica != "fast" {
		t.Fatalf("answered by %q, want the hedged sibling", res.Replica)
	}
	if !res.Hedged {
		t.Error("result not flagged Hedged")
	}
	if elapsed := time.Since(start); elapsed > 300*time.Millisecond {
		t.Errorf("hedged answer took %v — waited out the stall instead", elapsed)
	}
	if st := r.Stats(); st.Hedges != 1 {
		t.Errorf("Hedges = %d, want 1", st.Hedges)
	}
}

// TestRouterProbeClosesRecoveredCircuit kills a replica, lets the breaker
// open, restarts it, and checks the background prober closes the circuit
// without burning a client request.
func TestRouterProbeClosesRecoveredCircuit(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	srv := httptest.NewUnstartedServer(mux)
	r := testRouter(t, []string{"http://" + srv.Listener.Addr().String()}, RouterOptions{
		DisableHedge:  true,
		ProbeInterval: 20 * time.Millisecond,
	})
	// Down: probes trip the breaker open without any client traffic.
	deadline := time.Now().Add(2 * time.Second)
	for r.reps[0].breaker.State() != CircuitOpen {
		if time.Now().After(deadline) {
			t.Fatal("prober never opened the circuit of a down replica")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Up: probes close it again.
	srv.Start()
	t.Cleanup(srv.Close)
	deadline = time.Now().Add(2 * time.Second)
	for r.reps[0].breaker.State() != CircuitClosed {
		if time.Now().After(deadline) {
			t.Fatal("prober never closed the circuit after recovery")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// BenchmarkRouterEstimate times one single-query Estimate through the
// router to two loopback stub replicas with hedging armed (the delay never
// elapses): the dispatch overhead around one HTTP round trip.
func BenchmarkRouterEstimate(b *testing.B) {
	mux := http.NewServeMux()
	resp, _ := EstimateResponse{Estimates: []float64{42}, Generation: 1, Replica: "s"}.AppendJSON(nil)
	resp = append(resp, '\n')
	mux.HandleFunc("POST /estimate", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(resp)
	})
	a, c := httptest.NewServer(mux), httptest.NewServer(mux)
	defer a.Close()
	defer c.Close()
	r, err := NewRouter([]string{a.URL, c.URL}, RouterOptions{ProbeInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	qs, taus := [][]float64{testQuery}, []float64{testTau}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.Estimate(context.Background(), qs, taus); err != nil {
			b.Fatal(err)
		}
	}
}
