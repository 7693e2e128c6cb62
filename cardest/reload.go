package cardest

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"
)

// reloadGen is one published model generation of a Reloadable: the hardened
// estimator plus an in-flight count so a swap can observe the old
// generation draining.
type reloadGen struct {
	est      *RobustEstimator
	gen      uint64
	inflight atomic.Int64
}

// Reloadable extends the ModelGeneration stamp into a zero-downtime atomic
// reload path: it holds the current hardened estimator behind an
// atomic.Pointer, so serving code can swap in a freshly Load-ed model while
// requests are in flight. Acquire pins the current generation for the
// duration of one request (old generations keep answering until their last
// request releases — they drain, they are never torn down under a caller),
// and Swap publishes a new generation in one pointer store. Because Load
// and Save bump the process-wide ModelGeneration, a swap invalidates
// generation-stamped estimate caches for free: the hardened path stamps its
// cache with ModelGeneration() on every lookup, so no stale-generation
// estimate is ever served mid-reload (DESIGN.md §11, §15).
//
// All methods are safe for concurrent use.
type Reloadable struct {
	cur atomic.Pointer[reloadGen]
}

// NewReloadable publishes est as the first generation, stamped with the
// current ModelGeneration.
func NewReloadable(est *RobustEstimator) *Reloadable {
	r := &Reloadable{}
	r.cur.Store(&reloadGen{est: est, gen: ModelGeneration()})
	return r
}

// Estimator returns the current generation's hardened estimator without
// pinning it — for metadata reads (Describe). Request paths must
// use Acquire so a concurrent Swap can see them drain.
func (r *Reloadable) Estimator() *RobustEstimator { return r.cur.Load().est }

// Generation returns the current generation stamp.
func (r *Reloadable) Generation() uint64 { return r.cur.Load().gen }

// Acquire pins the current generation and returns its estimator, its
// generation stamp, and a release function the caller must invoke when the
// request completes. The pin is an atomic add; the reload-race check
// re-reads the pointer so a request never pins a generation that a
// concurrent Swap already replaced without the swap seeing its in-flight
// count.
func (r *Reloadable) Acquire() (est *RobustEstimator, gen uint64, release func()) {
	for {
		g := r.cur.Load()
		g.inflight.Add(1)
		if r.cur.Load() == g {
			return g.est, g.gen, func() { g.inflight.Add(-1) }
		}
		// Swapped between load and pin: this pin may be invisible to the
		// swapper's drain. Undo and pin the new current generation.
		g.inflight.Add(-1)
	}
}

// Drain observes one superseded generation after a Swap.
type Drain struct{ g *reloadGen }

// InFlight reports the superseded generation's remaining pinned requests.
func (d *Drain) InFlight() int64 { return d.g.inflight.Load() }

// Wait blocks until the superseded generation has no pinned requests
// (polling; requests are short) or ctx ends.
func (d *Drain) Wait(ctx context.Context) error {
	for d.g.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			return fmt.Errorf("cardest: drain generation %d: %w (%d in flight)", d.g.gen, ctx.Err(), d.g.inflight.Load())
		case <-time.After(200 * time.Microsecond):
		}
	}
	return nil
}

// Swap publishes next as the new current generation (stamped with the
// process-wide ModelGeneration at the moment of the swap) and returns a
// Drain for the superseded one. Requests already pinned keep the old
// estimator until they release; new Acquires see only the new generation.
func (r *Reloadable) Swap(next *RobustEstimator) (newGen uint64, old *Drain) {
	g := &reloadGen{est: next, gen: ModelGeneration()}
	prev := r.cur.Swap(g)
	return g.gen, &Drain{g: prev}
}
