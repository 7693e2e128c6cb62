package cardest

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"simquery/internal/dataset"
	"simquery/internal/model"
	"simquery/internal/probe"
	"simquery/internal/retrain"
	"simquery/internal/telemetry"
)

// This file is the serving surface of online adaptation (ROADMAP item 4,
// DESIGN.md §16). Three mechanisms compose:
//
//  1. Immediate correction — Mutate routes each inserted/deleted vector to
//     its nearest segment and bumps the model's atomic per-segment delta
//     counters (internal/model/delta.go), so estimates track the live
//     population before any retrain. Every mutation batch is also appended
//     to a binary delta log (internal/dataset/mutlog.go) and bumps the
//     process-wide model generation, which invalidates τ-anchored estimate
//     caches wholesale.
//  2. Detection — the probe pipeline's per-family drift monitor fires a
//     DriftEvent when live |log q-error| crosses its hysteresis threshold;
//     ServeAdaptive wires that event to the Adapter.
//  3. Repair — HandleDrift launches a background retrain: clone the model
//     by serialization, fine-tune the affected locals on delta-augmented
//     samples (internal/retrain), replay mutations that landed mid-retrain
//     onto the clone's delta counters, and swap the re-hardened clone in
//     atomically. Requests in flight drain on the old generation; no
//     client ever sees an error or a stale-generation cache entry.

// ErrRetrainBusy is returned by Retrain when another retrain (background or
// synchronous) is already running — retrains never queue or overlap.
var ErrRetrainBusy = errors.New("cardest: retrain already running")

// ErrNotRetrainable is returned when the serving primary is not a
// GlobalLocalEstimator: only the global-local family supports segment-level
// incremental retraining (§5.3). Delta correction via Mutable still works.
var ErrNotRetrainable = errors.New("cardest: primary does not support incremental retrain")

// Mutable is implemented by estimators that can absorb dataset mutations as
// population deltas without retraining. GlobalLocalEstimator implements it
// with per-segment sampling correction; UniformDelta adapts any other
// estimator with a dataset-wide correction.
type Mutable interface {
	// NoteInsert records one inserted vector and returns the segment it was
	// routed to (-1 when the estimator has no segmentation).
	NoteInsert(vec []float64) int
	// NoteDelete records one deleted vector, routed the same way.
	NoteDelete(vec []float64) int
	// PendingDeltas reports mutations recorded since the last (re)arm —
	// zero means estimates are bit-identical to the trained model.
	PendingDeltas() int64
	// LiveCount reports the delta-adjusted population the estimator
	// currently believes in.
	LiveCount() float64
}

// NoteInsert implements Mutable: the vector is routed to its nearest
// segment (the same rule InsertPoints uses) and the segment's delta counter
// is bumped. Unlike Insert, it never touches the segmentation's member
// lists, so it is safe to call while the model serves concurrent estimates.
func (g *GlobalLocalEstimator) NoteInsert(vec []float64) int {
	seg := g.gl.Seg.NearestSegment(vec)
	g.gl.NoteDelta(seg, 1)
	return seg
}

// NoteDelete implements Mutable for deletions.
func (g *GlobalLocalEstimator) NoteDelete(vec []float64) int {
	seg := g.gl.Seg.NearestSegment(vec)
	g.gl.NoteDelta(seg, -1)
	return seg
}

// PendingDeltas implements Mutable.
func (g *GlobalLocalEstimator) PendingDeltas() int64 { return g.gl.PendingDeltas() }

// LiveCount implements Mutable.
func (g *GlobalLocalEstimator) LiveCount() float64 { return g.gl.LiveCount() }

// ResetDeltas re-arms delta tracking against the model's current
// per-segment populations (post-retrain state).
func (g *GlobalLocalEstimator) ResetDeltas() { g.gl.EnableDeltaTracking() }

// UniformDelta wraps any estimator with the dataset-wide version of the
// sampling correction: estimates scale by liveN/baseN and clamp to
// [0, liveN]. It is the adaptation path for estimators without a
// segmentation (sampling, kernel, MLP, CardNet). When no mutations are
// pending the wrapped estimates pass through bit-identically.
type UniformDelta struct {
	inner Estimator
	baseN float64
	net   atomic.Int64
	ops   atomic.Int64
}

// NewUniformDelta wraps e, which was trained on a dataset of baseN objects.
func NewUniformDelta(e Estimator, baseN int) *UniformDelta {
	return &UniformDelta{inner: e, baseN: float64(baseN)}
}

// NoteInsert implements Mutable (no segmentation: always -1).
func (u *UniformDelta) NoteInsert(vec []float64) int {
	u.net.Add(1)
	u.ops.Add(1)
	return -1
}

// NoteDelete implements Mutable.
func (u *UniformDelta) NoteDelete(vec []float64) int {
	u.net.Add(-1)
	u.ops.Add(1)
	return -1
}

// PendingDeltas implements Mutable.
func (u *UniformDelta) PendingDeltas() int64 { return u.ops.Load() }

// LiveCount implements Mutable.
func (u *UniformDelta) LiveCount() float64 {
	live := u.baseN + float64(u.net.Load())
	if live < 0 {
		return 0
	}
	return live
}

// adjust applies the uniform sampling correction to one estimate.
func (u *UniformDelta) adjust(v float64, ceilingFactor float64) float64 {
	if u.net.Load() == 0 {
		return v
	}
	live := u.LiveCount()
	if u.baseN > 0 {
		v *= live / u.baseN
	}
	if v < 0 {
		return 0
	}
	if cap := live * ceilingFactor; v > cap {
		return cap
	}
	return v
}

// Name implements Estimator.
func (u *UniformDelta) Name() string { return u.inner.Name() }

// SizeBytes implements Estimator.
func (u *UniformDelta) SizeBytes() int { return u.inner.SizeBytes() }

// EstimateSearch implements Estimator with the uniform delta correction.
func (u *UniformDelta) EstimateSearch(q []float64, tau float64) float64 {
	return u.adjust(u.inner.EstimateSearch(q, tau), 1)
}

// EstimateSearchBatch implements Estimator; each entry is corrected.
func (u *UniformDelta) EstimateSearchBatch(qs [][]float64, taus []float64) []float64 {
	out := u.inner.EstimateSearchBatch(qs, taus)
	for i, v := range out {
		out[i] = u.adjust(v, 1)
	}
	return out
}

// EstimateJoin implements Estimator; the clamp ceiling is |Q|·liveN.
func (u *UniformDelta) EstimateJoin(qs [][]float64, tau float64) float64 {
	return u.adjust(u.inner.EstimateJoin(qs, tau), float64(len(qs)))
}

// SnapshotLabeler is an exact labeler (probe.Labeler source) that answers
// from a pivot index built over a stable snapshot of the dataset — never
// over the live vector storage, which Mutate reallocates and swap-moves
// under it. Mutations invalidate the snapshot lazily: the next Label call
// rebuilds the index over a fresh copy, so a probe labeled after a mutation
// batch scores the estimator against the post-mutation truth.
type SnapshotLabeler struct {
	d      *Dataset
	pivots int
	seed   int64

	dirty    atomic.Bool
	rebuilds atomic.Int64

	mu  sync.Mutex
	idx *ExactIndex
	// snapshot, when non-nil, copies the vectors under the Adapter's
	// mutation lock (injected by NewAdapter) so the copy never races a
	// concurrent Append/Remove.
	snapshot func() [][]float64
}

// NewSnapshotLabeler builds a lazy snapshot labeler over d (index built on
// first Label). pivots ≤ 0 defaults to 16.
func NewSnapshotLabeler(d *Dataset, pivots int, seed int64) *SnapshotLabeler {
	if pivots <= 0 {
		pivots = 16
	}
	return &SnapshotLabeler{d: d, pivots: pivots, seed: seed}
}

// Label implements the probe.Labeler contract: exact cardinality of (q, τ)
// against the current snapshot. Safe for concurrent use.
func (s *SnapshotLabeler) Label(q []float64, tau float64) (float64, error) {
	idx, err := s.index()
	if err != nil {
		return 0, err
	}
	return float64(idx.Count(q, tau)), nil
}

// Invalidate marks the snapshot stale (lock-free; called by Mutate while it
// holds the adapter mutation lock, so it must not take s.mu).
func (s *SnapshotLabeler) Invalidate() { s.dirty.Store(true) }

// Rebuilds reports completed snapshot rebuilds (observability for tests).
func (s *SnapshotLabeler) Rebuilds() int64 { return s.rebuilds.Load() }

// index returns the current snapshot index, rebuilding if stale. The dirty
// flag is cleared before the copy: a mutation that lands mid-rebuild
// re-marks it and the next Label rebuilds again.
func (s *SnapshotLabeler) index() (*ExactIndex, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.idx != nil && !s.dirty.Load() {
		return s.idx, nil
	}
	s.dirty.Store(false)
	var vecs [][]float64
	if s.snapshot != nil {
		vecs = s.snapshot()
	} else {
		vecs = s.d.VectorsCopy()
	}
	snap := &Dataset{inner: &dataset.Dataset{
		Name:    s.d.Name() + "/probe-snapshot",
		Metric:  s.d.inner.Metric,
		Dim:     s.d.Dim(),
		Vectors: vecs,
		TauMax:  s.d.TauMax(),
	}}
	idx, err := NewExactIndex(snap, s.pivots, s.seed)
	if err != nil {
		s.dirty.Store(true) // keep stale rather than lose the invalidation
		return nil, err
	}
	s.idx = idx
	s.rebuilds.Add(1)
	return s.idx, nil
}

// AdaptOptions configures online adaptation (ServeOptions.Adapt).
type AdaptOptions struct {
	// Retrain bounds each background retrain run.
	Retrain retrain.Config
	// AutoRetrain launches a background retrain when the probe pipeline's
	// drift monitor fires (wired by ServeAdaptive).
	AutoRetrain bool
	// Labeler, when set, is invalidated on every mutation batch so probes
	// score against post-mutation truth. Pass the same SnapshotLabeler the
	// probe pipeline was built with.
	Labeler *SnapshotLabeler
	// DrainTimeout bounds the post-swap drain wait (default 5s; the old
	// generation keeps serving its pinned requests either way).
	DrainTimeout time.Duration
}

// MutationResult summarizes one applied mutation batch.
type MutationResult struct {
	// Inserted and Deleted count applied vectors.
	Inserted, Deleted int
	// Pending is the primary estimator's un-retrained mutation count after
	// this batch (0 when the primary is not Mutable).
	Pending int64
	// LiveSize is the dataset size after this batch.
	LiveSize int
	// Generation is the model generation after the cache-invalidating bump.
	Generation uint64
}

// Adapter is the mutation and retrain coordinator for one served dataset:
// it applies Insert/Delete batches to the Dataset, keeps the serving
// estimator's delta counters and the delta log in sync, invalidates
// estimate caches and probe snapshots, and — when drift fires — retrains
// affected local models in the background and swaps the result in with
// zero downtime. All methods are safe for concurrent use.
type Adapter struct {
	ds    *Dataset
	rel   *Reloadable
	serve ServeOptions
	opts  AdaptOptions
	log   *dataset.DeltaLog

	mu         sync.Mutex // orders mutations, snapshots, and the swap phase
	retraining atomic.Bool
	// retrainDone is the current (or most recent) background retrain's
	// completion channel. Retrains are single-flight (the retraining CAS),
	// so one slot suffices; a WaitGroup would race Add against Wait here,
	// because drift events launch goroutines at arbitrary times.
	retrainDone atomic.Pointer[chan struct{}]

	retrains atomic.Int64
	lastErr  atomic.Pointer[error]
}

// NewAdapter builds the adaptation coordinator for a hardened, reloadable
// estimator serving d. serve must be the same options the current
// generation was Harden-ed with — a post-retrain swap re-hardens the clone
// with them (same cache, probe, fallback). serve.Adapt supplies the
// adaptation knobs (nil gets defaults).
func NewAdapter(d *Dataset, rel *Reloadable, serve ServeOptions) *Adapter {
	a := &Adapter{ds: d, rel: rel, serve: serve, log: dataset.NewDeltaLog()}
	if serve.Adapt != nil {
		a.opts = *serve.Adapt
	}
	if a.opts.DrainTimeout <= 0 {
		a.opts.DrainTimeout = 5 * time.Second
	}
	if lab := a.opts.Labeler; lab != nil {
		lab.snapshot = a.snapshotVectors
	}
	// Arm delta tracking against the primary's trained populations so the
	// first mutation corrects from the right base.
	if m, ok := a.primary().(interface{ ResetDeltas() }); ok {
		m.ResetDeltas()
	}
	return a
}

// ServeAdaptive assembles the full adaptive serving stack in one call:
// Harden est with opts, publish it as a Reloadable generation, arm delta
// tracking when the primary supports it, and — when opts.Probe is set and
// opts.Adapt.AutoRetrain is on — wire the probe pipeline's drift events to
// background retrains.
func ServeAdaptive(est Estimator, d *Dataset, opts ServeOptions) (*Reloadable, *Adapter) {
	rel := NewReloadable(Harden(est, opts))
	a := NewAdapter(d, rel, opts)
	if opts.Probe != nil && a.opts.AutoRetrain {
		opts.Probe.SetOnDrift(a.HandleDrift)
	}
	return rel, a
}

// snapshotVectors copies the live vectors under the mutation lock.
func (a *Adapter) snapshotVectors() [][]float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ds.VectorsCopy()
}

// primary returns the current generation's primary estimator.
func (a *Adapter) primary() Estimator { return a.rel.Estimator().Primary() }

// Mutate applies one batch of dataset mutations: deletes (by current
// dataset index) are removed first, then inserts are appended. The whole
// batch is validated before any change lands — a bad vector dimension or
// delete index mutates nothing. On success the primary's delta counters
// track the new population immediately, the batch is appended to the delta
// log, the probe snapshot is invalidated, and the model generation is
// bumped so every cached estimate goes stale at once.
func (a *Adapter) Mutate(inserts [][]float64, deletes []int) (*MutationResult, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, v := range inserts {
		if len(v) != a.ds.Dim() {
			return nil, fmt.Errorf("cardest: insert %d has dim %d, want %d", i, len(v), a.ds.Dim())
		}
	}
	// Dataset.Remove validates every index before the first swap-remove, so
	// the batch is still all-or-nothing.
	removed, err := a.ds.Remove(deletes)
	if err != nil {
		return nil, err
	}
	mut, _ := a.primary().(Mutable)
	for _, v := range removed {
		seg := -1
		if mut != nil {
			seg = mut.NoteDelete(v)
		}
		a.log.Append(dataset.Record{Op: dataset.OpDelete, Seg: int32(seg), Vec: v})
	}
	if err := a.ds.Append(inserts); err != nil {
		return nil, err // unreachable after the dim pre-check above
	}
	for _, v := range inserts {
		seg := -1
		if mut != nil {
			seg = mut.NoteInsert(v)
		}
		a.log.Append(dataset.Record{Op: dataset.OpInsert, Seg: int32(seg), Vec: v})
	}
	if a.opts.Labeler != nil {
		a.opts.Labeler.Invalidate()
	}
	bumpModelGeneration()

	res := &MutationResult{
		Inserted:   len(inserts),
		Deleted:    len(removed),
		LiveSize:   a.ds.Size(),
		Generation: ModelGeneration(),
	}
	if mut != nil {
		res.Pending = mut.PendingDeltas()
	}
	if rec := telemetry.Default(); rec.Enabled() {
		if len(inserts) > 0 {
			rec.CountLabeled(telemetry.MetricMutationsTotal, telemetry.LabelOp, "insert", int64(len(inserts)))
		}
		if len(removed) > 0 {
			rec.CountLabeled(telemetry.MetricMutationsTotal, telemetry.LabelOp, "delete", int64(len(removed)))
		}
		rec.SetGauge(telemetry.MetricPendingDeltas, float64(res.Pending))
		rec.SetGauge(telemetry.MetricLiveDatasetSize, float64(res.LiveSize))
	}
	return res, nil
}

// PendingDeltas reports the primary's un-retrained mutation count (0 when
// the primary is not Mutable).
func (a *Adapter) PendingDeltas() int64 {
	if m, ok := a.primary().(Mutable); ok {
		return m.PendingDeltas()
	}
	return 0
}

// LiveSize reports the dataset's current size.
func (a *Adapter) LiveSize() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ds.Size()
}

// LogLen reports the delta log's current record count.
func (a *Adapter) LogLen() int { return a.log.Len() }

// Retraining reports whether a retrain is currently running.
func (a *Adapter) Retraining() bool { return a.retraining.Load() }

// Retrains reports completed retrain attempts (successful or not).
func (a *Adapter) Retrains() int64 { return a.retrains.Load() }

// LastRetrainError returns the most recent retrain's error (nil after a
// success).
func (a *Adapter) LastRetrainError() error {
	if p := a.lastErr.Load(); p != nil {
		return *p
	}
	return nil
}

// HandleDrift is the probe pipeline's drift-event callback: it launches one
// background retrain. Events arriving while a retrain is running are
// dropped — the running retrain already covers them (its swap phase replays
// every mutation that landed mid-run), and the probe's drift state is reset
// after the swap so a still-drifted model re-fires.
func (a *Adapter) HandleDrift(probe.DriftEvent) {
	if !a.retraining.CompareAndSwap(false, true) {
		return
	}
	done := make(chan struct{})
	a.retrainDone.Store(&done)
	go func() {
		defer close(done) // after the retraining flag clears (LIFO)
		defer a.retraining.Store(false)
		a.retrainOnce(context.Background())
	}()
}

// Retrain runs one synchronous retrain (the test and operator entry point;
// HandleDrift is the production path). Returns ErrRetrainBusy when one is
// already running.
func (a *Adapter) Retrain(ctx context.Context) error {
	if !a.retraining.CompareAndSwap(false, true) {
		return ErrRetrainBusy
	}
	defer a.retraining.Store(false)
	return a.retrainOnce(ctx)
}

// WaitIdle blocks until no background retrain is running. A drift event
// that launches a new retrain while WaitIdle drains the previous one is
// waited for too; the brief window between a drift callback's CAS and its
// channel publication is bridged by re-checking the retraining flag.
func (a *Adapter) WaitIdle() {
	for {
		p := a.retrainDone.Load()
		if p != nil {
			<-*p
		}
		if !a.retraining.Load() && a.retrainDone.Load() == p {
			return
		}
		runtime.Gosched()
	}
}

// retrainOnce runs one retrain attempt with outcome accounting.
func (a *Adapter) retrainOnce(ctx context.Context) error {
	start := time.Now()
	err := a.doRetrain(ctx)
	a.retrains.Add(1)
	a.lastErr.Store(&err)
	outcome := "ok"
	if err != nil {
		outcome = "error"
	}
	if rec := telemetry.Default(); rec.Enabled() {
		rec.CountLabeled(telemetry.MetricRetrainsTotal, telemetry.LabelOutcome, outcome, 1)
		rec.Observe(telemetry.MetricRetrainSeconds, time.Since(start).Seconds())
	}
	return err
}

// doRetrain is the swap-ordered retrain body:
//
//	snapshot+mark (under mu) → clone / fine-tune (outside mu, bounded) →
//	replay post-mark log onto the clone + re-harden + bump + swap + drain +
//	truncate + drift reset (under mu)
//
// Holding mu through the swap phase means no mutation can land between the
// replay and the swap, so the clone's delta counters exactly cover every
// mutation not in its training snapshot.
func (a *Adapter) doRetrain(ctx context.Context) error {
	gle, ok := a.primary().(*GlobalLocalEstimator)
	if !ok {
		return ErrNotRetrainable
	}

	a.mu.Lock()
	data := a.ds.VectorsCopy()
	mark := a.log.Len()
	prefix := a.log.Since(0)[:mark]
	a.mu.Unlock()

	affected := map[int]bool{}
	var inserted [][]float64
	for _, r := range prefix {
		if r.Seg >= 0 {
			affected[int(r.Seg)] = true
		}
		if r.Op == dataset.OpInsert {
			inserted = append(inserted, r.Vec)
		}
	}
	if len(affected) == 0 {
		affected = nil // nothing routed: fine-tune everything
	}

	clone, err := cloneGL(gle.gl)
	if err != nil {
		return err
	}
	if _, err := retrain.Run(ctx, retrain.Request{
		Model:       clone,
		Data:        data,
		TauMax:      a.ds.TauMax(),
		Affected:    affected,
		Inserted:    inserted,
		DatasetName: a.ds.Name(),
	}, a.opts.Retrain); err != nil {
		return err
	}

	a.mu.Lock()
	defer a.mu.Unlock()
	// Arm fresh delta tracking against the retrained populations, then
	// replay mutations that landed while the retrain ran — they are in the
	// live dataset but not in the clone's training snapshot.
	clone.EnableDeltaTracking()
	post := a.log.Since(mark)
	for _, r := range post {
		d := 1
		if r.Op == dataset.OpDelete {
			d = -1
		}
		if r.Seg >= 0 {
			clone.NoteDelta(int(r.Seg), d)
		}
	}
	next := Harden(&GlobalLocalEstimator{gl: clone, ds: a.ds}, a.serve)
	bumpModelGeneration()
	_, drain := a.rel.Swap(next)
	dctx, cancel := context.WithTimeout(context.Background(), a.opts.DrainTimeout)
	defer cancel()
	_ = drain.Wait(dctx) // old generation keeps draining safely regardless
	a.log.TruncateTo(mark)
	a.serve.Probe.ResetDrift()
	if rec := telemetry.Default(); rec.Enabled() {
		rec.SetGauge(telemetry.MetricPendingDeltas, float64(clone.PendingDeltas()))
	}
	return nil
}

// cloneGL deep-copies a trained model through its own serialization — the
// same path Save/Load exercise — so the retrainer never shares mutable
// state with the serving generation.
func cloneGL(gl *model.GlobalLocal) (*model.GlobalLocal, error) {
	b, err := gl.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("cardest: clone model: %w", err)
	}
	c := &model.GlobalLocal{}
	if err := c.UnmarshalBinary(b); err != nil {
		return nil, fmt.Errorf("cardest: clone model: %w", err)
	}
	return c, nil
}
