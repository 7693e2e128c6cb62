package cardest

import (
	"context"
	"errors"
	"fmt"
	"time"

	"simquery/internal/estcache"
	"simquery/internal/faultinject"
	"simquery/internal/faulttol"
	"simquery/internal/probe"
	"simquery/internal/reqtrace"
	"simquery/internal/telemetry"
)

// ErrOverloaded is returned by the hardened estimate paths when the
// admission gate's in-flight limit is reached; the request was rejected
// before any model work (load shedding, counted in
// simquery_shed_requests_total).
var ErrOverloaded = faulttol.ErrOverloaded

// ErrInvalidInput reports a query the model cannot answer as asked: its
// dimension differs from the one the model was trained on. It is the
// caller's error, so the hardened paths return it before admission and
// never degrade it to the fallback.
var ErrInvalidInput = errors.New("cardest: invalid input")

// dimensioned is implemented by the estimators Train and Load build: the
// query dimension they answer for.
type dimensioned interface{ queryDim() int }

// ContextEstimator is implemented by estimators whose estimate paths
// cooperate with a request context (cancellation checks between
// sub-batches) and isolate per-segment panics. GlobalLocalEstimator
// implements it; RobustEstimator prefers it when present and otherwise
// falls back to panic-captured plain calls with context checks at the
// boundaries.
type ContextEstimator interface {
	EstimateSearchCtx(ctx context.Context, q []float64, tau float64) (float64, error)
	EstimateSearchBatchCtx(ctx context.Context, qs [][]float64, taus []float64) ([]float64, error)
}

// ServeOptions configures Harden. The zero value is a transparent wrapper:
// no deadline, no admission limit, no fallback — but still panic-isolated
// and NaN-guarded.
type ServeOptions struct {
	// Deadline bounds each request that arrives without its own context
	// deadline (0 = none).
	Deadline time.Duration
	// MaxInFlight bounds concurrent estimates; excess requests fail fast
	// with ErrOverloaded (0 = unlimited).
	MaxInFlight int
	// Fallback, when set, answers requests whose primary estimate panics
	// or comes back non-finite — the paper's cheap always-available
	// baselines (sampling is the canonical choice) as a degradation
	// ladder. Each degraded answer is counted in
	// simquery_degraded_estimates_total.
	Fallback Estimator
	// Cache, when set, answers repeated and near-repeated single-query
	// estimates from τ-anchored entries by monotone interpolation
	// (internal/estcache; build one with NewEstimateCache). Hits are served
	// before admission — a cached answer costs no model work, so it is not
	// shed and not deadline-bounded. Misses with in-band τ fill the entry
	// through the primary's batch path under singleflight; out-of-band τ
	// bypasses the cache entirely. Only healthy primary estimates are
	// cached: fill errors, panics, and non-finite anchor values fall back
	// to the uncached hardened path, so degraded answers never populate
	// the cache. The cache is stamped with ModelGeneration on every
	// lookup, so Save/Load invalidate it wholesale.
	Cache *estcache.Cache
	// Probe, when set, receives every successfully served search estimate
	// for sampled exact labeling (internal/probe): the live q-error and
	// drift instrumentation. Offering is an atomic add for unsampled
	// requests and never blocks the request path.
	Probe *probe.Pipeline
	// Adapt enables online adaptation when serving through ServeAdaptive:
	// mutation batches correct estimates immediately via per-segment delta
	// counters, and probe-detected drift triggers a background retrain of
	// the affected local models, swapped in with zero downtime (DESIGN.md
	// §16). Ignored by plain Harden — the knobs live on the Adapter.
	Adapt *AdaptOptions
}

// RobustEstimator is the fault-tolerant serving wrapper produced by
// Harden: admission control, per-request deadlines, panic isolation,
// numeric-health guards, and automatic degradation to a fallback
// estimator. All methods are safe for concurrent use (the wrapped
// estimators already are; the gate is atomic).
//
// The no-fault overhead per request is O(1): one atomic add/sub for the
// gate, one branch for the fault-injection guard, and two float
// classifications per output value.
type RobustEstimator struct {
	primary  Estimator
	fallback Estimator
	gate     *faulttol.Gate
	deadline time.Duration
	cache    *estcache.Cache
	probe    *probe.Pipeline
	dim      int // the primary's query dimension; 0 = not declared
}

// Harden wraps a trained estimator in the fault-tolerant serving path.
func Harden(e Estimator, opts ServeOptions) *RobustEstimator {
	dim := 0
	if d, ok := e.(dimensioned); ok {
		dim = d.queryDim()
	}
	return &RobustEstimator{
		dim:      dim,
		primary:  e,
		fallback: opts.Fallback,
		gate:     faulttol.NewGate(opts.MaxInFlight),
		deadline: opts.Deadline,
		cache:    opts.Cache,
		probe:    opts.Probe,
	}
}

// Cache returns the attached estimate cache (nil when caching is off).
func (r *RobustEstimator) Cache() *estcache.Cache { return r.cache }

// RobustEstimator also satisfies the plain Estimator interface so it can
// slot in anywhere a trained estimator is expected (Save unwraps it). The
// plain methods run the hardened path under context.Background(); having
// no error channel, they answer 0 (zero-filled for batches) when a request
// is shed or faults with no fallback registered — prefer the Ctx variants
// in serving code that wants the typed errors.
var _ Estimator = (*RobustEstimator)(nil)

// Name reports the primary estimator's method name.
func (r *RobustEstimator) Name() string { return r.primary.Name() }

// EstimateSearch implements Estimator via EstimateSearchCtx (see the
// interface note above for error handling).
func (r *RobustEstimator) EstimateSearch(q []float64, tau float64) float64 {
	v, _ := r.EstimateSearchCtx(context.Background(), q, tau)
	return v
}

// EstimateSearchBatch implements Estimator via EstimateSearchBatchCtx.
func (r *RobustEstimator) EstimateSearchBatch(qs [][]float64, taus []float64) []float64 {
	out, err := r.EstimateSearchBatchCtx(context.Background(), qs, taus)
	if err != nil {
		return make([]float64, len(qs))
	}
	return out
}

// EstimateJoin implements Estimator via EstimateJoinCtx.
func (r *RobustEstimator) EstimateJoin(qs [][]float64, tau float64) float64 {
	v, _ := r.EstimateJoinCtx(context.Background(), qs, tau)
	return v
}

// SizeBytes reports the primary estimator's footprint (the fallback, when
// set, is accounted by its own SizeBytes).
func (r *RobustEstimator) SizeBytes() int { return r.primary.SizeBytes() }

// Primary returns the wrapped estimator.
func (r *RobustEstimator) Primary() Estimator { return r.primary }

// admit claims an admission slot and applies the configured deadline,
// returning the possibly-derived context, a cleanup function, and
// ErrOverloaded on shed. The cleanup must be called iff err is nil.
func (r *RobustEstimator) admit(ctx context.Context) (context.Context, func(), error) {
	if !r.gate.TryAcquire() {
		telemetry.Default().Count(telemetry.MetricShedRequests, 1)
		return ctx, nil, ErrOverloaded
	}
	cancel := context.CancelFunc(nil)
	if r.deadline > 0 {
		if _, has := ctx.Deadline(); !has {
			ctx, cancel = context.WithTimeout(ctx, r.deadline)
		}
	}
	return ctx, func() {
		if cancel != nil {
			cancel()
		}
		r.gate.Release()
	}, nil
}

// ctxFailure reports whether err is a cancellation/deadline error — those
// are returned to the caller as-is, with no fallback attempt (a timed-out
// request has no budget left for a second estimator).
func ctxFailure(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// cacheFlag maps an estcache lookup outcome onto the trace flag taxonomy.
// Both miss shapes — this caller ran the fill, or it shared a concurrent
// flight's — count as FlagCacheMiss: either way the answer cost model work.
func cacheFlag(o estcache.Outcome) reqtrace.Flags {
	switch o {
	case estcache.OutcomeHit:
		return reqtrace.FlagCacheHit
	case estcache.OutcomeInterpolated:
		return reqtrace.FlagCacheInterpolated
	default:
		return reqtrace.FlagCacheMiss
	}
}

// markPanic sets FlagPanicRecovered when err carries a captured panic
// (directly or wrapped in a *model.SegmentError). Error path only — the
// errors.As walk never runs on healthy requests.
func markPanic(tr *reqtrace.Trace, err error) {
	if tr == nil {
		return
	}
	var pe *faulttol.PanicError
	if errors.As(err, &pe) {
		tr.SetFlag(reqtrace.FlagPanicRecovered)
	}
}

// EstimateSearchCtx answers one search estimate through the hardened path:
// cache-served when a fresh entry covers (q, τ), shed when over the
// in-flight limit, bounded by the per-request deadline, panic-isolated,
// NaN/Inf-guarded, and degraded to the fallback estimator when the primary
// faults. When flight recording is enabled the request is sampled here (or
// joins the trace its caller started), and every successfully served
// estimate is offered to the probe pipeline for exact labeling.
func (r *RobustEstimator) EstimateSearchCtx(ctx context.Context, q []float64, tau float64) (est float64, err error) {
	ctx, tr, owned := reqtrace.Ensure(ctx, r.primary.Name(), tau)
	if owned {
		defer func() {
			tr.SetOutcome(est, err)
			tr.Finish()
		}()
	}
	est, err = r.searchHardened(ctx, tr, q, tau)
	if err == nil {
		r.probe.Offer(q, tau, r.primary.Name(), est)
	}
	return est, err
}

// checkDim rejects query i with ErrInvalidInput when its dimension is not
// the primary's (no check when the primary declares none).
func (r *RobustEstimator) checkDim(i int, q []float64) error {
	if r.dim > 0 && len(q) != r.dim {
		return fmt.Errorf("%w: query %d has dim %d, want %d", ErrInvalidInput, i, len(q), r.dim)
	}
	return nil
}

// searchHardened is the EstimateSearchCtx body with the request trace in
// hand (nil when unsampled; every recording call is nil-safe).
func (r *RobustEstimator) searchHardened(ctx context.Context, tr *reqtrace.Trace, q []float64, tau float64) (float64, error) {
	if err := r.checkDim(0, q); err != nil {
		return 0, err
	}
	if r.cache != nil {
		if !r.cache.InBand(tau) {
			tr.SetFlag(reqtrace.FlagCacheBypass)
		} else {
			r.cache.SetGeneration(ModelGeneration())
			st := tr.StartStage(reqtrace.StageCacheLookup)
			v, outcome, err := r.cache.GetOrFillOutcome(q, tau, func(anchors []float64) ([]float64, error) {
				ft := tr.StartStage(reqtrace.StageCacheFill)
				defer ft.End()
				return r.fillAnchors(ctx, q, anchors)
			})
			st.End()
			if err == nil {
				tr.SetFlag(cacheFlag(outcome))
				return v, nil
			}
			if errors.Is(err, ErrOverloaded) {
				tr.SetFlag(reqtrace.FlagShed)
				return 0, err
			}
			if ctxFailure(err) && ctx.Err() != nil {
				return 0, err
			}
			// The fill faulted (panic, non-finite anchor, or a singleflight
			// peer's context died while ours is live): serve this request
			// through the uncached hardened path, leaving the cache unfilled.
			markPanic(tr, err)
		}
	}
	ctx, done, err := r.admit(ctx)
	if err != nil {
		tr.SetFlag(reqtrace.FlagShed)
		return 0, err
	}
	defer done()
	v, err := r.searchPrimary(ctx, q, tau)
	if err == nil {
		if faultinject.Armed() {
			v = faultinject.Output.Value(v)
		}
		err = faulttol.CheckFinite(v)
	}
	if err == nil {
		return v, nil
	}
	markPanic(tr, err)
	if ctxFailure(err) || r.fallback == nil {
		return 0, err
	}
	st := tr.StartStage(reqtrace.StageFallback)
	v, ferr := r.degradeSearch(q, tau, err)
	st.End()
	if ferr == nil {
		tr.SetFlag(reqtrace.FlagDegraded)
	}
	return v, ferr
}

// fillAnchors computes one healthy estimate per cache anchor for q through
// the admitted, panic-isolated primary batch path. Any fault — shed,
// deadline, panic, or a non-finite anchor value — is an error, so degraded
// or unhealthy values never populate the cache.
func (r *RobustEstimator) fillAnchors(ctx context.Context, q []float64, anchors []float64) ([]float64, error) {
	ctx, done, err := r.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer done()
	qs := make([][]float64, len(anchors))
	for i := range qs {
		qs[i] = q
	}
	out, err := r.searchBatchPrimary(ctx, qs, anchors)
	if err != nil {
		return nil, err
	}
	if faultinject.Armed() {
		for i := range out {
			out[i] = faultinject.Output.Value(out[i])
		}
	}
	for _, v := range out {
		if !faulttol.Finite(v) {
			return nil, faulttol.ErrNonFinite
		}
	}
	return out, nil
}

// searchPrimary runs the primary's single estimate, via its cooperative
// context path when it has one.
func (r *RobustEstimator) searchPrimary(ctx context.Context, q []float64, tau float64) (float64, error) {
	if ce, ok := r.primary.(ContextEstimator); ok {
		return ce.EstimateSearchCtx(ctx, q, tau)
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	var v float64
	err := faulttol.Capture(func() error {
		v = r.primary.EstimateSearch(q, tau)
		return nil
	})
	if err == nil {
		err = ctx.Err() // best-effort deadline for non-cooperative estimators
	}
	return v, err
}

// degradeSearch answers one estimate from the fallback after primErr. The
// fallback is panic-captured and NaN-guarded too; if it also faults, the
// primary's error is returned.
func (r *RobustEstimator) degradeSearch(q []float64, tau float64, primErr error) (float64, error) {
	var v float64
	err := faulttol.Capture(func() error {
		v = r.fallback.EstimateSearch(q, tau)
		return nil
	})
	if err != nil || !faulttol.Finite(v) {
		return 0, primErr
	}
	telemetry.Default().Count(telemetry.MetricDegradedEstimates, 1)
	return v, nil
}

// EstimateSearchBatchCtx answers a batch of search estimates through the
// hardened path. A primary fault (panic, routing failure) degrades the
// whole batch to the fallback; individual non-finite outputs in an
// otherwise healthy batch are replaced per query. Counted degraded
// estimates equal the number of fallback-served queries.
func (r *RobustEstimator) EstimateSearchBatchCtx(ctx context.Context, qs [][]float64, taus []float64) (out []float64, err error) {
	var tau float64
	if len(taus) > 0 {
		tau = taus[0]
	}
	ctx, tr, owned := reqtrace.Ensure(ctx, r.primary.Name(), tau)
	if tr != nil {
		tr.SetFlag(reqtrace.FlagBatch)
		tr.BatchSize = len(qs)
	}
	if owned {
		defer func() {
			var sum float64
			for _, v := range out {
				sum += v
			}
			tr.SetOutcome(sum, err)
			tr.Finish()
		}()
	}
	out, err = r.searchBatchHardened(ctx, tr, qs, taus)
	if err == nil {
		for i := range out {
			r.probe.Offer(qs[i], taus[i], r.primary.Name(), out[i])
		}
	}
	return out, err
}

// searchBatchHardened is the EstimateSearchBatchCtx body with the request
// trace in hand.
func (r *RobustEstimator) searchBatchHardened(ctx context.Context, tr *reqtrace.Trace, qs [][]float64, taus []float64) ([]float64, error) {
	for i, q := range qs {
		if err := r.checkDim(i, q); err != nil {
			return nil, err
		}
	}
	ctx, done, err := r.admit(ctx)
	if err != nil {
		tr.SetFlag(reqtrace.FlagShed)
		return nil, err
	}
	defer done()
	out, err := r.searchBatchPrimary(ctx, qs, taus)
	if err != nil {
		markPanic(tr, err)
		if ctxFailure(err) || r.fallback == nil {
			return nil, err
		}
		st := tr.StartStage(reqtrace.StageFallback)
		out, ferr := r.degradeBatch(qs, taus, err)
		st.End()
		if ferr == nil {
			tr.SetFlag(reqtrace.FlagDegraded)
		}
		return out, ferr
	}
	if faultinject.Armed() {
		for i := range out {
			out[i] = faultinject.Output.Value(out[i])
		}
	}
	// Numeric-health guard per query: replace non-finite entries from the
	// fallback instead of discarding the healthy majority of the batch.
	for i, v := range out {
		if faulttol.Finite(v) {
			continue
		}
		if r.fallback == nil {
			return nil, faulttol.ErrNonFinite
		}
		st := tr.StartStage(reqtrace.StageFallback)
		fv, ferr := r.degradeSearch(qs[i], taus[i], faulttol.ErrNonFinite)
		st.End()
		if ferr != nil {
			return nil, ferr
		}
		tr.SetFlag(reqtrace.FlagDegraded)
		out[i] = fv
	}
	return out, nil
}

// searchBatchPrimary runs the primary's batched estimate, via its
// cooperative context path when it has one. Cache fills route through here
// too.
func (r *RobustEstimator) searchBatchPrimary(ctx context.Context, qs [][]float64, taus []float64) ([]float64, error) {
	if ce, ok := r.primary.(ContextEstimator); ok {
		return ce.EstimateSearchBatchCtx(ctx, qs, taus)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var out []float64
	err := faulttol.Capture(func() error {
		out = r.primary.EstimateSearchBatch(qs, taus)
		return nil
	})
	if err == nil {
		err = ctx.Err()
	}
	return out, err
}

// degradeBatch answers the whole batch from the fallback after primErr.
func (r *RobustEstimator) degradeBatch(qs [][]float64, taus []float64, primErr error) ([]float64, error) {
	var out []float64
	err := faulttol.Capture(func() error {
		out = r.fallback.EstimateSearchBatch(qs, taus)
		return nil
	})
	if err != nil || len(out) != len(qs) {
		return nil, primErr
	}
	for _, v := range out {
		if !faulttol.Finite(v) {
			return nil, primErr
		}
	}
	telemetry.Default().Count(telemetry.MetricDegradedEstimates, int64(len(qs)))
	return out, nil
}

// EstimateJoinCtx answers one join estimate through the hardened path.
func (r *RobustEstimator) EstimateJoinCtx(ctx context.Context, qs [][]float64, tau float64) (est float64, err error) {
	ctx, tr, owned := reqtrace.Ensure(ctx, r.primary.Name(), tau)
	if tr != nil {
		tr.SetFlag(reqtrace.FlagBatch)
		tr.BatchSize = len(qs)
	}
	if owned {
		defer func() {
			tr.SetOutcome(est, err)
			tr.Finish()
		}()
	}
	return r.joinHardened(ctx, tr, qs, tau)
}

// joinHardened is the EstimateJoinCtx body with the request trace in hand.
func (r *RobustEstimator) joinHardened(ctx context.Context, tr *reqtrace.Trace, qs [][]float64, tau float64) (float64, error) {
	ctx, done, err := r.admit(ctx)
	if err != nil {
		tr.SetFlag(reqtrace.FlagShed)
		return 0, err
	}
	defer done()
	v, err := r.joinPrimary(ctx, qs, tau)
	if err == nil {
		if faultinject.Armed() {
			v = faultinject.Output.Value(v)
		}
		err = faulttol.CheckFinite(v)
	}
	if err == nil {
		return v, nil
	}
	markPanic(tr, err)
	if ctxFailure(err) || r.fallback == nil {
		return 0, err
	}
	st := tr.StartStage(reqtrace.StageFallback)
	var fv float64
	ferr := faulttol.Capture(func() error {
		fv = r.fallback.EstimateJoin(qs, tau)
		return nil
	})
	st.End()
	if ferr != nil || !faulttol.Finite(fv) {
		return 0, err
	}
	tr.SetFlag(reqtrace.FlagDegraded)
	telemetry.Default().Count(telemetry.MetricDegradedEstimates, 1)
	return fv, nil
}

// joinPrimary runs the primary's join estimate, via its cooperative
// context path when it has one.
func (r *RobustEstimator) joinPrimary(ctx context.Context, qs [][]float64, tau float64) (float64, error) {
	type ctxJoiner interface {
		EstimateJoinCtx(ctx context.Context, qs [][]float64, tau float64) (float64, error)
	}
	if cj, ok := r.primary.(ctxJoiner); ok {
		return cj.EstimateJoinCtx(ctx, qs, tau)
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	var v float64
	err := faulttol.Capture(func() error {
		v = r.primary.EstimateJoin(qs, tau)
		return nil
	})
	if err == nil {
		err = ctx.Err()
	}
	return v, err
}
