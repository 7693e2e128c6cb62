package serving

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"simquery/cardest"
	"simquery/internal/faultinject"
	"simquery/internal/faulttol"
	"simquery/internal/reqtrace"
	"simquery/internal/telemetry"
)

// Replica input bounds, enforced before the model sees a request. They sit
// far above what in-repo callers send (simload's -batch defaults to 1 and
// perfbench batches 64 queries in process); a full 1024-query batch of
// 256-dimensional vectors is about 5 MiB of JSON, inside the body cap.
const (
	// MaxBodyBytes caps the /estimate, /mutate and /reload request bodies;
	// a longer body is rejected with 413 before it is fully read.
	MaxBodyBytes = 8 << 20
	// MaxBatchQueries caps the queries of one /estimate batch; a larger
	// batch is rejected with 400.
	MaxBatchQueries = 1024
	// readHeaderTimeout bounds how long a connection may take to send its
	// request headers, so idle or trickling clients cannot pin a replica.
	readHeaderTimeout = 10 * time.Second
)

// LoadFunc builds a freshly hardened estimator for POST /reload — in
// production cardest.Load on the checkpoint path followed by cardest.Harden
// with the replica's serving options (cmd/simserve wires exactly that);
// tests inject their own. It runs outside the request hot path and may be
// slow; the old generation keeps serving until the swap.
type LoadFunc func(path string) (*cardest.RobustEstimator, error)

// ReplicaConfig configures NewReplica. The zero value serves with a 1s
// default deadline and a 50ms advertised overload backoff.
type ReplicaConfig struct {
	// Name identifies the replica in responses, metrics, and logs.
	Name string
	// DefaultDeadline bounds requests that carry no deadline_ms of their
	// own (0 = 1s).
	DefaultDeadline time.Duration
	// RetryAfter is the backoff window advertised on 429 responses
	// (0 = 50ms).
	RetryAfter time.Duration
	// Loader serves POST /reload; nil disables reload (404).
	Loader LoadFunc
	// DrainTimeout bounds the post-swap wait for the old generation's
	// in-flight requests (0 = 5s). The swap itself is never delayed — the
	// wait only orders the reload response after the drain.
	DrainTimeout time.Duration
}

// Replica is one serving process: an HTTP server answering batch estimates
// from an atomically swappable hardened estimator. Endpoints:
//
//	POST /estimate  batch estimates (EstimateRequest → EstimateResponse)
//	GET  /healthz   liveness: 200 while the process accepts connections
//	GET  /readyz    readiness: 200 once a model generation is published
//	POST /reload    zero-downtime model swap ({"path": ...} → generation)
//
// All methods are safe for concurrent use.
type Replica struct {
	cfg ReplicaConfig
	rel *cardest.Reloadable

	lis      net.Listener
	srv      *http.Server
	mu       sync.Mutex // guards Start/Close/Kill transitions
	started  bool
	closed   bool
	killed   atomic.Bool
	inflight sync.WaitGroup

	reloads atomic.Int64
	served  atomic.Int64

	// adapter, when attached, serves POST /mutate and marks delta-corrected
	// answers with FlagAdapted. Late-bound: the adapter is built over this
	// replica's Reloadable after construction.
	adapter atomic.Pointer[cardest.Adapter]
}

// NewReplica builds a replica serving est (already hardened; the wrapper's
// gate, deadline, cache, and fallback apply per generation).
func NewReplica(est *cardest.RobustEstimator, cfg ReplicaConfig) *Replica {
	if cfg.Name == "" {
		cfg.Name = "replica"
	}
	if cfg.DefaultDeadline <= 0 {
		cfg.DefaultDeadline = time.Second
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 50 * time.Millisecond
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	return &Replica{cfg: cfg, rel: cardest.NewReloadable(est)}
}

// Reloadable exposes the replica's generation holder (tests and embedding
// servers swap through it directly).
func (r *Replica) Reloadable() *cardest.Reloadable { return r.rel }

// AttachAdapter wires an adaptation coordinator (built over this replica's
// Reloadable) into the serving surface: POST /mutate applies mutation
// batches through it, and estimates served while mutations are pending
// carry FlagAdapted plus adapted:true in the response. Safe to call before
// or after Start; a nil adapter detaches.
func (r *Replica) AttachAdapter(a *cardest.Adapter) { r.adapter.Store(a) }

// Adapter returns the attached adaptation coordinator (nil when detached).
func (r *Replica) Adapter() *cardest.Adapter { return r.adapter.Load() }

// Name returns the replica's configured name.
func (r *Replica) Name() string { return r.cfg.Name }

// Served reports the number of /estimate requests answered (any status).
func (r *Replica) Served() int64 { return r.served.Load() }

// Reloads reports completed model swaps.
func (r *Replica) Reloads() int64 { return r.reloads.Load() }

// Start binds addr (e.g. "127.0.0.1:0") synchronously — a bad address
// fails here — and serves until Close or Kill.
func (r *Replica) Start(addr string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.started {
		return fmt.Errorf("serving: replica %s already started", r.cfg.Name)
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serving: replica %s listen %s: %w", r.cfg.Name, addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /estimate", r.handleEstimate)
	mux.HandleFunc("GET /healthz", r.handleHealthz)
	mux.HandleFunc("GET /readyz", r.handleReadyz)
	if r.cfg.Loader != nil {
		mux.HandleFunc("POST /reload", r.handleReload)
	}
	mux.HandleFunc("POST /mutate", r.handleMutate)
	r.lis = lis
	r.srv = &http.Server{Handler: mux, ReadHeaderTimeout: readHeaderTimeout}
	r.started = true
	go func() { _ = r.srv.Serve(lis) }()
	return nil
}

// Addr returns the bound address (useful with ":0").
func (r *Replica) Addr() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.lis == nil {
		return ""
	}
	return r.lis.Addr().String()
}

// URL returns the replica's base URL.
func (r *Replica) URL() string { return "http://" + r.Addr() }

// Close shuts the replica down, closing the listener and in-flight
// connections. Idempotent.
func (r *Replica) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.started || r.closed {
		return nil
	}
	r.closed = true
	return r.srv.Close()
}

// Kill simulates a crash: the listener and every in-flight connection
// close immediately, with no drain — clients see resets now and connection
// refused afterwards. The chaos suite triggers it through the
// serving.replica.kill injection point.
func (r *Replica) Kill() {
	r.killed.Store(true)
	_ = r.Close()
}

// Killed reports whether Kill ran.
func (r *Replica) Killed() bool { return r.killed.Load() }

// handleHealthz is liveness: the process is up and accepting connections.
func (r *Replica) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is readiness: a model generation is published and the
// replica is not mid-death. Reloads do not flip readiness — the old
// generation serves until the swap, the new one after it.
func (r *Replica) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if r.killed.Load() || r.rel.Estimator() == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ready")
}

// injectFaults runs the serving-tier injection points at the top of the
// estimate handler. It reports whether the request should be aborted
// without a response (connection reset); a triggered kill also shuts the
// replica down asynchronously.
func (r *Replica) injectFaults() (abort bool) {
	if !faultinject.Armed() {
		return false
	}
	faultinject.ReplicaStall.Fire() // sleep-only plans: slow, not failed
	if err := faulttol.Capture(func() error { faultinject.ReplicaKill.Fire(); return nil }); err != nil {
		go r.Kill()
		return true
	}
	if err := faulttol.Capture(func() error { faultinject.ConnReset.Fire(); return nil }); err != nil {
		return true
	}
	return false
}

// handleEstimate answers one batch estimate through the hardened path of
// the pinned model generation. Typed errors map onto HTTP statuses per
// WriteError; degraded answers are 200 with degraded:true.
func (r *Replica) handleEstimate(w http.ResponseWriter, req *http.Request) {
	if r.injectFaults() {
		// Abort with no status line: the client reads a reset/EOF. net/http
		// recognizes ErrAbortHandler and suppresses the stack trace.
		panic(http.ErrAbortHandler)
	}
	r.inflight.Add(1)
	defer r.inflight.Done()
	defer r.served.Add(1)

	var body EstimateRequest
	if err := decodeBody(w, req, &body); err != nil {
		r.countOutcome("error")
		writeJSON(w, bodyErrorStatus(err), ErrorResponse{Error: "serving: bad request body: " + err.Error()})
		return
	}
	if err := body.Validate(); err != nil {
		r.countOutcome("error")
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	deadline := r.cfg.DefaultDeadline
	if body.DeadlineMs > 0 {
		// Saturate instead of overflowing into a negative, already-spent
		// budget.
		deadline = time.Duration(min(body.DeadlineMs, math.MaxInt64/int64(time.Millisecond))) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(req.Context(), deadline)
	defer cancel()

	est, gen, release := r.rel.Acquire()
	defer release()

	// A trace observes the hardened path's outcome flags (degraded, shed)
	// even when flight recording is off; when it is on, the sampled trace
	// lands in /debug/traces as usual.
	ctx, tr := reqtrace.StartRequest(ctx, est.Name(), body.Taus[0])
	if tr == nil {
		tr = reqtrace.NewDetached(est.Name(), body.Taus[0])
		ctx = reqtrace.NewContext(ctx, tr)
	}
	out, err := est.EstimateSearchBatchCtx(ctx, body.Queries, body.Taus)
	tr.SetOutcome(sum(out), err)
	if gen != r.rel.Generation() {
		tr.SetFlag(reqtrace.FlagReloaded)
	}
	adapted := false
	if a := r.adapter.Load(); a != nil && a.PendingDeltas() > 0 {
		adapted = true
		tr.SetFlag(reqtrace.FlagAdapted)
	}
	tr.Finish()
	if err != nil {
		switch {
		case errors.Is(err, cardest.ErrOverloaded):
			r.countOutcome("shed")
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			r.countOutcome("deadline")
		default:
			r.countOutcome("error")
		}
		WriteError(w, err, r.cfg.RetryAfter)
		return
	}
	degraded := tr.Flags()&reqtrace.FlagDegraded != 0
	if degraded {
		r.countOutcome("degraded")
	} else {
		r.countOutcome("ok")
	}
	resp := EstimateResponse{
		Estimates:  out,
		Degraded:   degraded,
		Adapted:    adapted,
		Generation: gen,
		Replica:    r.cfg.Name,
	}
	// The hardened path answers finite estimates only, so the encoder's
	// non-finite error cannot fire here; the trailing newline keeps the
	// bytes json.Encoder wrote.
	raw, err := resp.AppendJSON(make([]byte, 0, 64+24*len(out)))
	if err != nil {
		WriteError(w, err, r.cfg.RetryAfter)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(append(raw, '\n'))
}

// handleMutate applies one dataset mutation batch through the attached
// adapter: estimates served from this moment on are delta-corrected, every
// cached estimate is invalidated by the generation bump, and the probe
// snapshot goes stale so drift is scored against post-mutation truth.
func (r *Replica) handleMutate(w http.ResponseWriter, req *http.Request) {
	a := r.adapter.Load()
	if a == nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "serving: adaptation disabled on this replica"})
		return
	}
	r.inflight.Add(1)
	defer r.inflight.Done()
	var body MutateRequest
	if err := decodeBody(w, req, &body); err != nil {
		writeJSON(w, bodyErrorStatus(err), ErrorResponse{Error: "serving: bad mutate body: " + err.Error()})
		return
	}
	if err := body.Validate(); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	res, err := a.Mutate(body.Inserts, body.Deletes)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, MutateResponse{
		Inserted:   res.Inserted,
		Deleted:    res.Deleted,
		Pending:    res.Pending,
		LiveSize:   res.LiveSize,
		Generation: res.Generation,
		Replica:    r.cfg.Name,
	})
}

// reloadRequest is the POST /reload body.
type reloadRequest struct {
	Path string `json:"path"`
}

// reloadResponse is the POST /reload success body.
type reloadResponse struct {
	Generation uint64 `json:"generation"`
	Drained    bool   `json:"drained"`
}

// handleReload swaps in a freshly loaded estimator with zero downtime: the
// new generation is published atomically, in-flight requests finish against
// the one they pinned, and the response waits (bounded) for the old
// generation to drain. A load failure leaves the current generation
// serving untouched.
func (r *Replica) handleReload(w http.ResponseWriter, req *http.Request) {
	var body reloadRequest
	if err := decodeBody(w, req, &body); err != nil {
		writeJSON(w, bodyErrorStatus(err), ErrorResponse{Error: "serving: bad reload body: " + err.Error()})
		return
	}
	next, err := r.cfg.Loader(body.Path)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: "serving: reload: " + err.Error()})
		return
	}
	gen, old := r.rel.Swap(next)
	ctx, cancel := context.WithTimeout(req.Context(), r.cfg.DrainTimeout)
	defer cancel()
	drained := old.Wait(ctx) == nil
	r.reloads.Add(1)
	telemetry.Default().Count(telemetry.MetricServingReloads, 1)
	writeJSON(w, http.StatusOK, reloadResponse{Generation: gen, Drained: drained})
}

// decodeBody reads a request body of at most MaxBodyBytes and decodes it
// into v. The body must be one JSON value: trailing bytes other than
// whitespace are an error.
func decodeBody(w http.ResponseWriter, req *http.Request, v any) error {
	data, err := io.ReadAll(http.MaxBytesReader(w, req.Body, MaxBodyBytes))
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// bodyErrorStatus maps a decodeBody error onto its status: 413 when the
// body ran past MaxBodyBytes, 400 for any other malformed body.
func bodyErrorStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// countOutcome records one served request by outcome.
func (r *Replica) countOutcome(outcome string) {
	if rec := telemetry.Default(); rec.Enabled() {
		rec.CountLabeled(telemetry.MetricReplicaRequests, telemetry.LabelOutcome, outcome, 1)
	}
}

// sum folds a batch for the trace's scalar outcome slot.
func sum(vs []float64) float64 {
	var s float64
	for _, v := range vs {
		s += v
	}
	return s
}
