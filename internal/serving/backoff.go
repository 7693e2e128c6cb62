package serving

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Backoff computes bounded exponential retry delays with deterministic
// jitter: attempt k (0-based) waits base·2^k scaled by a jitter factor in
// [0.5, 1.5), capped at max. Jitter is a splitmix64 hash of (seed, draw#),
// so a chaos run replays the same delays from its seed while concurrent
// requests still decorrelate (each draw advances the sequence).
type Backoff struct {
	base, max time.Duration
	seed      uint64
	draws     atomic.Uint64
}

// NewBackoff builds a backoff policy (defaults: base 2ms, max 100ms).
func NewBackoff(base, max time.Duration, seed int64) *Backoff {
	if base <= 0 {
		base = 2 * time.Millisecond
	}
	if max <= 0 {
		max = 100 * time.Millisecond
	}
	return &Backoff{base: base, max: max, seed: uint64(seed)}
}

// Delay returns the wait before retry attempt k (0-based: the delay after
// the first failure).
func (b *Backoff) Delay(attempt int) time.Duration {
	d := b.base << uint(attempt)
	if d <= 0 || d > b.max { // <= 0 catches shift overflow
		d = b.max
	}
	jitter := 0.5 + splitmix64(b.seed^b.draws.Add(1))
	out := time.Duration(float64(d) * jitter)
	if out > b.max {
		out = b.max
	}
	return out
}

// splitmix64 maps x to a uniform float64 in [0, 1).
func splitmix64(x uint64) float64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// sleepCtx waits d or until ctx ends, reporting whether the full wait
// completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// latencyTracker keeps a fixed ring of recent successful request latencies
// and derives the hedge delay from their p99 — hedging should fire only
// when a request is already slower than (nearly) everything recently
// served, so the steady-state hedge rate stays ~1%.
type latencyTracker struct {
	mu     sync.Mutex
	ring   []time.Duration
	sorted []time.Duration // P99's sort buffer, the ring's size; guarded by mu
	n      int             // total observations
}

// newLatencyTracker tracks the most recent size observations (default 128).
func newLatencyTracker(size int) *latencyTracker {
	if size <= 0 {
		size = 128
	}
	return &latencyTracker{ring: make([]time.Duration, size), sorted: make([]time.Duration, size)}
}

// Observe records one successful request latency.
func (lt *latencyTracker) Observe(d time.Duration) {
	lt.mu.Lock()
	lt.ring[lt.n%len(lt.ring)] = d
	lt.n++
	lt.mu.Unlock()
}

// P99 returns the 99th percentile of the retained window, or 0 while fewer
// than 16 observations exist (callers fall back to a configured floor — a
// cold tracker has no distribution to derive a delay from).
func (lt *latencyTracker) P99() time.Duration {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	n := lt.n
	if n > len(lt.ring) {
		n = len(lt.ring)
	}
	if lt.n < 16 {
		return 0
	}
	tmp := lt.sorted[:n]
	copy(tmp, lt.ring[:n])
	slices.Sort(tmp)
	return tmp[(n-1)*99/100]
}
