package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"simquery/cardest"
	"simquery/internal/estcache"
	"simquery/internal/faulttol"
	"simquery/internal/reqtrace"
	"simquery/internal/telemetry"
)

// RouterOptions configures NewRouter. The zero value dispatches with a 1s
// deadline, 3 attempts, 2ms–100ms jittered backoff, p99-derived hedging
// with a 20ms cold-start floor, a 3-failure/500ms-cooldown breaker, and a
// 250ms health prober.
type RouterOptions struct {
	// Deadline bounds each logical request end to end, across every retry
	// and hedge (0 = 1s). Requests arriving with their own context deadline
	// keep it.
	Deadline time.Duration
	// MaxAttempts bounds dispatch attempts per request, the first included
	// (0 = 3).
	MaxAttempts int
	// BackoffBase/BackoffMax bound the jittered exponential retry backoff
	// (0 = 2ms/100ms).
	BackoffBase, BackoffMax time.Duration
	// HedgeFloor is the hedge delay used until enough latency samples exist
	// to derive a p99, and the lower bound afterwards (0 = 20ms).
	HedgeFloor time.Duration
	// DisableHedge turns hedged dispatch off (retry/backoff still apply).
	DisableHedge bool
	// BreakerThreshold and BreakerCooldown configure the per-replica
	// circuit breaker (0 = 3 consecutive failures, 500ms cooldown).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// ProbeInterval is the background health-probe period; probes close
	// open circuits when a replica recovers (/readyz) and trip breakers on
	// dead replicas without burning a request (< 0 disables, 0 = 250ms).
	ProbeInterval time.Duration
	// Fallback, when set, answers requests locally after every replica
	// attempt fails — the paper's cheap sampling tier as the last rung of
	// the ladder. With a fallback, total replica loss degrades; without
	// one, it errors.
	Fallback cardest.Estimator
	// Seed makes backoff jitter replayable in chaos runs.
	Seed int64
}

// withDefaults fills zero values.
func (o RouterOptions) withDefaults() RouterOptions {
	if o.Deadline <= 0 {
		o.Deadline = time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.HedgeFloor <= 0 {
		o.HedgeFloor = 20 * time.Millisecond
	}
	if o.ProbeInterval == 0 {
		o.ProbeInterval = 250 * time.Millisecond
	}
	return o
}

// replicaClient is the router's per-replica state: transport, circuit
// breaker, and the overload cooling window advertised by 429 responses.
type replicaClient struct {
	name        string
	base        string
	estimateURL string // base + "/estimate", built once
	hc          *http.Client
	breaker     *Breaker
	coolUntil   atomic.Int64 // UnixNano until which 429 backoff applies
}

// cooling reports whether the replica is inside an advertised overload
// window.
func (rc *replicaClient) cooling(now time.Time) bool {
	return now.UnixNano() < rc.coolUntil.Load()
}

// success records a healthy response and publishes the circuit gauge.
func (rc *replicaClient) success() {
	rc.breaker.Success()
	rc.publishState()
}

// failure records a transport-level failure and publishes the circuit
// gauge.
func (rc *replicaClient) failure() {
	rc.breaker.Failure()
	rc.publishState()
}

func (rc *replicaClient) publishState() {
	if rec := telemetry.Default(); rec.Enabled() {
		rec.SetGaugeLabeled(telemetry.MetricServingCircuitState,
			telemetry.LabelReplica, rc.name, float64(rc.breaker.State()))
	}
}

// RouterStats is a snapshot of the router's dispatch counters.
type RouterStats struct {
	// Requests counts logical Estimate calls; OK, Degraded, Fallback, and
	// Errors partition their outcomes (Degraded = replica answered from its
	// fallback tier; Fallback = the router's local tier answered).
	Requests, OK, Degraded, Fallback, Errors int64
	// Retries counts re-dispatches, Hedges hedge copies launched, Shed 429
	// responses received from replicas.
	Retries, Hedges, Shed int64
}

// Router is the client-side dispatch layer over a replica set. All methods
// are safe for concurrent use.
type Router struct {
	reps    []*replicaClient
	opts    RouterOptions
	lat     *latencyTracker
	backoff *Backoff

	requests, ok, degraded, fellBack, failed atomic.Int64
	retries, hedges, shed                    atomic.Int64

	probeStop chan struct{}
	probeWG   sync.WaitGroup
	closeOnce sync.Once
}

// NewRouter builds a router over the replica base URLs (e.g.
// "http://127.0.0.1:8451") and starts the background health prober.
func NewRouter(replicaURLs []string, opts RouterOptions) (*Router, error) {
	if len(replicaURLs) == 0 {
		return nil, errors.New("serving: router needs at least one replica")
	}
	opts = opts.withDefaults()
	r := &Router{
		opts:      opts,
		lat:       newLatencyTracker(128),
		backoff:   NewBackoff(opts.BackoffBase, opts.BackoffMax, opts.Seed),
		probeStop: make(chan struct{}),
	}
	for i, u := range replicaURLs {
		r.reps = append(r.reps, &replicaClient{
			name:        fmt.Sprintf("r%d", i),
			base:        u,
			estimateURL: u + "/estimate",
			hc:          &http.Client{},
			breaker:     NewBreaker(opts.BreakerThreshold, opts.BreakerCooldown),
		})
	}
	if opts.ProbeInterval > 0 {
		r.probeWG.Add(1)
		go r.probeLoop()
	}
	return r, nil
}

// Close stops the health prober. In-flight Estimates finish normally.
func (r *Router) Close() {
	r.closeOnce.Do(func() { close(r.probeStop) })
	r.probeWG.Wait()
}

// Stats snapshots the dispatch counters.
func (r *Router) Stats() RouterStats {
	return RouterStats{
		Requests: r.requests.Load(), OK: r.ok.Load(), Degraded: r.degraded.Load(),
		Fallback: r.fellBack.Load(), Errors: r.failed.Load(),
		Retries: r.retries.Load(), Hedges: r.hedges.Load(), Shed: r.shed.Load(),
	}
}

// Replicas reports the replica names and circuit states (diagnostics).
func (r *Router) Replicas() map[string]CircuitState {
	out := make(map[string]CircuitState, len(r.reps))
	for _, rc := range r.reps {
		out[rc.name] = rc.breaker.State()
	}
	return out
}

// Result is one answered request.
type Result struct {
	Estimates []float64
	// Degraded: some estimate came from a fallback tier (the replica's or,
	// with Fallback below, the router's).
	Degraded bool
	// Fallback: the router's local tier answered after every replica
	// attempt failed.
	Fallback bool
	// Retried/Hedged: the dispatch path re-sent or hedged the request.
	Retried, Hedged bool
	// Generation and Replica identify the answering model (zero/"" for
	// router-fallback answers).
	Generation uint64
	Replica    string
}

// shardOf maps a query vector onto a preferred replica: the same
// fingerprint hash that keys the estimate cache, so repeated and jittered
// re-sends of a query land on the replica whose cache and locals are warm
// for it — the segment/local-model space sharded by query locality.
func (r *Router) shardOf(q []float64) int {
	h1, _ := estcache.Fingerprint(q)
	return int(h1 % uint64(len(r.reps)))
}

// ClientError reports a request that no replica will answer because the
// request itself is malformed: a replica's 4xx other than 429, or the
// router's own check of the batch before dispatch (Replica is then empty).
// The router returns it at once, with no breaker failure, retry, hedge or
// fallback: every sibling would refuse the same bytes.
type ClientError struct {
	// Status is the HTTP status the replica answered, or 400 for the
	// router's own check.
	Status int
	// Replica names the refusing replica; "" for the router's check.
	Replica string
	// Msg is the replica's error body or the validation error.
	Msg string
}

func (e *ClientError) Error() string {
	if e.Replica == "" {
		return e.Msg
	}
	return fmt.Sprintf("serving: replica %s refused the request with %d: %s", e.Replica, e.Status, e.Msg)
}

// Estimate answers one batch through the dispatch ladder: preferred-shard
// replica first, hedged after the p99-derived delay, retried with jittered
// backoff against siblings on failure, honoring 429 cooling windows, and
// degrading to the local fallback tier when every replica attempt fails.
// A batch the replicas would refuse (EstimateRequest.Validate) and a
// replica's 4xx verdict are a *ClientError instead.
func (r *Router) Estimate(ctx context.Context, qs [][]float64, taus []float64) (*Result, error) {
	r.requests.Add(1)
	start := time.Now()
	var (
		res *Result
		err error
	)
	req := EstimateRequest{Queries: qs, Taus: taus}
	if verr := req.Validate(); verr != nil {
		err = &ClientError{Status: http.StatusBadRequest, Msg: verr.Error()}
	} else {
		res, err = r.estimate(ctx, qs, taus)
	}
	rec := telemetry.Default()
	if rec.Enabled() {
		rec.ObserveDuration(telemetry.MetricServingLatency, time.Since(start))
	}
	switch {
	case err != nil:
		r.failed.Add(1)
		rec.CountLabeled(telemetry.MetricServingRequests, telemetry.LabelOutcome, "error", 1)
	case res.Fallback:
		r.fellBack.Add(1)
		rec.CountLabeled(telemetry.MetricServingRequests, telemetry.LabelOutcome, "fallback", 1)
	case res.Degraded:
		r.degraded.Add(1)
		rec.CountLabeled(telemetry.MetricServingRequests, telemetry.LabelOutcome, "degraded", 1)
	default:
		r.ok.Add(1)
		rec.CountLabeled(telemetry.MetricServingRequests, telemetry.LabelOutcome, "ok", 1)
	}
	return res, err
}

// estimate dispatches a validated batch under the router's deadline and
// the request trace.
func (r *Router) estimate(ctx context.Context, qs [][]float64, taus []float64) (*Result, error) {
	if _, has := ctx.Deadline(); !has {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.opts.Deadline)
		defer cancel()
	}
	ctx, tr, owned := reqtrace.Ensure(ctx, "router", taus[0])
	res, err := r.dispatch(ctx, tr, qs, taus)
	if owned {
		if res != nil {
			tr.SetOutcome(sum(res.Estimates), err)
		} else {
			tr.SetOutcome(0, err)
		}
		tr.Finish()
	}
	return res, err
}

// dispatch is the Estimate body with the trace in hand.
func (r *Router) dispatch(ctx context.Context, tr *reqtrace.Trace, qs [][]float64, taus []float64) (*Result, error) {
	shard := r.shardOf(qs[0])
	var (
		lastErr    error
		retried    bool
		hedged     bool
		lastFailed *replicaClient
	)
	for attempt := 0; attempt < r.opts.MaxAttempts; attempt++ {
		if ctx.Err() != nil {
			lastErr = ctx.Err()
			break
		}
		// Prefer a replica other than the one that just failed — its breaker
		// may need more consecutive failures to open than we have attempts.
		// With no other choice (single replica, rest cooling), re-try it.
		rc := r.pick(shard, lastFailed)
		if rc == nil && lastFailed != nil {
			rc = r.pick(shard, nil)
		}
		if rc == nil {
			// Every replica is open or cooling: no point burning attempts.
			lastErr = errors.New("serving: no replica available (all circuits open or cooling)")
			break
		}
		if attempt > 0 {
			retried = true
			tr.SetFlag(reqtrace.FlagRetried)
			r.retries.Add(1)
			telemetry.Default().Count(telemetry.MetricServingRetries, 1)
		}
		// Each attempt carries the budget left at its start.
		body, err := EstimateRequest{Queries: qs, Taus: taus, DeadlineMs: remainingMs(ctx)}.AppendJSON(make([]byte, 0, wireSize(qs)))
		if err != nil {
			// A NaN or ±Inf in the batch: JSON cannot carry it.
			return nil, &ClientError{Status: http.StatusBadRequest, Msg: "serving: " + err.Error()}
		}
		out, didHedge := r.sendHedged(ctx, tr, rc, shard, body, hedged)
		hedged = hedged || didHedge
		if out.healthy() {
			out.rc.success()
			r.lat.Observe(out.rtt)
			return &Result{
				Estimates:  out.resp.Estimates,
				Degraded:   out.resp.Degraded,
				Retried:    retried,
				Hedged:     hedged,
				Generation: out.resp.Generation,
				Replica:    out.resp.Replica,
			}, nil
		}
		lastErr = r.recordAttemptFailure(out)
		if out.refused() {
			return nil, lastErr
		}
		lastFailed = out.rc
		// Back off before the next attempt — unless the failure already
		// consumed wall time advertising its own window (429 cooling is
		// per-replica; siblings are tried immediately).
		if out.status != http.StatusTooManyRequests && attempt+1 < r.opts.MaxAttempts {
			if !sleepCtx(ctx, r.backoff.Delay(attempt)) {
				lastErr = ctx.Err()
				break
			}
		}
	}
	return r.degradeLocal(ctx, tr, qs, taus, retried, hedged, lastErr)
}

// recordAttemptFailure updates breaker/cooling state for one failed
// attempt and returns the error to remember.
func (r *Router) recordAttemptFailure(out sendOut) error {
	switch {
	case out.status == http.StatusTooManyRequests:
		// A shedding replica is healthy — honor its advertised window
		// instead of tripping the breaker.
		r.shed.Add(1)
		telemetry.Default().Count(telemetry.MetricServingShedByReplica, 1)
		cool := out.retryAfter
		if cool <= 0 {
			cool = 10 * time.Millisecond
		}
		out.rc.coolUntil.Store(time.Now().Add(cool).UnixNano())
		return fmt.Errorf("serving: replica %s shed the request (retry after %v)", out.rc.name, cool)
	case out.canceled:
		// Our own deadline/hedge cancellation — not the replica's fault.
		return out.err
	case out.refused():
		// The replica is up and judged the request malformed: it answered,
		// so its circuit records a success.
		out.rc.success()
		return &ClientError{Status: out.status, Replica: out.rc.name, Msg: out.body}
	default:
		out.rc.failure()
		if out.err != nil {
			return out.err
		}
		return fmt.Errorf("serving: replica %s answered %d: %s", out.rc.name, out.status, out.body)
	}
}

// degradeLocal is the bottom rung: answer from the router's local fallback
// tier (panic-captured, finiteness-guarded) or surface the last error.
func (r *Router) degradeLocal(ctx context.Context, tr *reqtrace.Trace, qs [][]float64, taus []float64, retried, hedged bool, lastErr error) (*Result, error) {
	if r.opts.Fallback == nil {
		return nil, lastErr
	}
	if ctx.Err() != nil && errors.Is(lastErr, context.DeadlineExceeded) {
		// The budget is gone; a local answer now would still be late.
		return nil, lastErr
	}
	var out []float64
	err := faulttol.Capture(func() error {
		out = r.opts.Fallback.EstimateSearchBatch(qs, taus)
		return nil
	})
	if err != nil || len(out) != len(qs) {
		return nil, lastErr
	}
	for _, v := range out {
		if !faulttol.Finite(v) {
			return nil, lastErr
		}
	}
	tr.SetFlag(reqtrace.FlagDegraded)
	telemetry.Default().Count(telemetry.MetricServingFallbacks, 1)
	return &Result{Estimates: out, Degraded: true, Fallback: true, Retried: retried, Hedged: hedged}, nil
}

// pick returns the first dispatchable replica in shard-affinity order:
// start at the preferred shard, walk the ring, skip excluded/cooling
// replicas and closed circuits' rejects. Returns nil when none qualifies.
func (r *Router) pick(shard int, exclude *replicaClient) *replicaClient {
	now := time.Now()
	for i := 0; i < len(r.reps); i++ {
		rc := r.reps[(shard+i)%len(r.reps)]
		if rc == exclude || rc.cooling(now) {
			continue
		}
		if !rc.breaker.Allow() {
			continue
		}
		return rc
	}
	return nil
}

// sendOut is one attempt's outcome.
type sendOut struct {
	rc         *replicaClient
	resp       *EstimateResponse
	status     int
	retryAfter time.Duration
	body       string
	err        error
	canceled   bool
	rtt        time.Duration
}

// healthy reports a 200 with a decoded answer.
func (o *sendOut) healthy() bool { return o.err == nil && o.status == http.StatusOK }

// refused reports a 4xx verdict on the request itself (429 is overload,
// not a verdict): no sibling would answer it either.
func (o *sendOut) refused() bool {
	return o.err == nil && o.status >= 400 && o.status < 500 && o.status != http.StatusTooManyRequests
}

// sendHedged dispatches one attempt to rc on the caller's goroutine and,
// unless hedging is disabled or already spent for this request, arms a
// timer that sends a single hedge copy to a sibling after the p99-derived
// delay. The first healthy answer wins and the loser is canceled: a
// winning hedge cancels the primary's request, and returning cancels the
// hedge's. A request answered before the delay costs no goroutine.
// Reports whether a hedge was launched.
func (r *Router) sendHedged(ctx context.Context, tr *reqtrace.Trace, rc *replicaClient, shard int, body []byte, hedgeSpent bool) (sendOut, bool) {
	if r.opts.DisableHedge || hedgeSpent {
		return r.send(ctx, rc, body), false
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	// The timer and this goroutine settle under mu whether a hedge runs:
	// the timer picks a sibling (which may take a half-open circuit's one
	// probe) only while the primary is still in flight.
	var (
		mu                     sync.Mutex
		primaryDone, hedgeSent bool
	)
	hedge := make(chan sendOut, 1)
	timer := time.AfterFunc(r.hedgeDelay(), func() {
		mu.Lock()
		var sib *replicaClient
		if !primaryDone {
			sib = r.pick(shard, rc)
		}
		hedgeSent = sib != nil
		mu.Unlock()
		if sib == nil {
			return
		}
		r.hedges.Add(1)
		telemetry.Default().Count(telemetry.MetricServingHedges, 1)
		out := r.send(actx, sib, body)
		if out.healthy() {
			cancel() // the primary lost the race
		}
		hedge <- out
	})
	out := r.send(actx, rc, body)
	timer.Stop()
	mu.Lock()
	primaryDone = true
	sent := hedgeSent
	mu.Unlock()
	if !sent {
		return out, false
	}
	tr.SetFlag(reqtrace.FlagHedged)
	if out.healthy() || out.refused() {
		return out, true
	}
	// The primary failed while the hedge runs: take the hedge if it is
	// healthy. A real failure wins over a cancellation artifact.
	h := <-hedge
	if h.healthy() || (out.canceled && !h.canceled) {
		return h, true
	}
	return out, true
}

// hedgeDelay derives the hedge trigger from observed latencies: the p99 of
// recent successful requests, floored at HedgeFloor while cold or noisy.
func (r *Router) hedgeDelay() time.Duration {
	if p := r.lat.P99(); p > r.opts.HedgeFloor {
		return p
	}
	return r.opts.HedgeFloor
}

// send performs one HTTP attempt against rc.
func (r *Router) send(ctx context.Context, rc *replicaClient, body []byte) sendOut {
	out := sendOut{rc: rc}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rc.estimateURL, bytes.NewReader(body))
	if err != nil {
		out.err = err
		return out
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rc.hc.Do(req)
	if err != nil {
		out.err = err
		out.canceled = ctx.Err() != nil
		return out
	}
	defer resp.Body.Close()
	out.status = resp.StatusCode
	out.rtt = time.Since(start)
	switch resp.StatusCode {
	case http.StatusOK:
		var er EstimateResponse
		raw, err := io.ReadAll(resp.Body)
		if err == nil {
			err = json.Unmarshal(raw, &er)
		}
		if err != nil {
			out.status = 0
			out.err = fmt.Errorf("serving: replica %s: bad response body: %w", rc.name, err)
			return out
		}
		out.resp = &er
	case http.StatusTooManyRequests:
		out.retryAfter = retryAfterOf(resp.Header)
		drainBody(resp.Body, &out)
	default:
		drainBody(resp.Body, &out)
	}
	return out
}

// drainBody captures a bounded error body for diagnostics.
func drainBody(rd io.Reader, out *sendOut) {
	b, _ := io.ReadAll(io.LimitReader(rd, 512))
	out.body = string(bytes.TrimSpace(b))
}

// wireSize guesses the encoded size of a request for qs: about 20 bytes
// per number, so one allocation usually holds it.
func wireSize(qs [][]float64) int {
	n := 64 + 21*len(qs)
	for _, q := range qs {
		n += 20 * len(q)
	}
	return n
}

// remainingMs converts the context's remaining budget to the wire's
// deadline_ms (0 = replica default).
func remainingMs(ctx context.Context) int64 {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	ms := time.Until(dl).Milliseconds()
	if ms < 1 {
		ms = 1
	}
	return ms
}

// probeLoop polls replica health on a fixed period: /readyz recovery
// closes open circuits without burning a request; a dead replica's failed
// probes trip its breaker so traffic stops flowing into resets.
func (r *Router) probeLoop() {
	defer r.probeWG.Done()
	t := time.NewTicker(r.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-r.probeStop:
			return
		case <-t.C:
			for _, rc := range r.reps {
				r.probeOne(rc)
			}
		}
	}
}

// probeOne checks one replica's /readyz with a short budget.
func (r *Router) probeOne(rc *replicaClient) {
	ctx, cancel := context.WithTimeout(context.Background(), r.opts.ProbeInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rc.base+"/readyz", nil)
	if err != nil {
		return
	}
	resp, err := rc.hc.Do(req)
	if err != nil {
		rc.failure()
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		rc.success()
	} else {
		rc.failure()
	}
}
