package serving

import (
	"context"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestBackoffBoundsAndGrowth(t *testing.T) {
	b := NewBackoff(2*time.Millisecond, 100*time.Millisecond, 7)
	for attempt := 0; attempt < 12; attempt++ {
		d := b.Delay(attempt)
		lo := time.Duration(float64(2*time.Millisecond<<uint(attempt)) * 0.5)
		if lo > 100*time.Millisecond || attempt > 8 {
			lo = 0 // capped region: only the upper bound holds
		}
		if d < lo || d > 100*time.Millisecond {
			t.Fatalf("attempt %d: delay %v outside [%v, 100ms]", attempt, d, lo)
		}
	}
}

func TestBackoffDeterministicFromSeed(t *testing.T) {
	a := NewBackoff(2*time.Millisecond, 100*time.Millisecond, 42)
	b := NewBackoff(2*time.Millisecond, 100*time.Millisecond, 42)
	for i := 0; i < 20; i++ {
		if da, db := a.Delay(i%5), b.Delay(i%5); da != db {
			t.Fatalf("draw %d: %v != %v — same seed must replay the same delays", i, da, db)
		}
	}
}

func TestBackoffJitterDecorrelates(t *testing.T) {
	b := NewBackoff(10*time.Millisecond, time.Second, 1)
	first := b.Delay(0)
	varied := false
	for i := 0; i < 16; i++ {
		if b.Delay(0) != first {
			varied = true
			break
		}
	}
	if !varied {
		t.Fatal("16 draws of the same attempt produced identical delays — jitter is not advancing")
	}
}

func TestBackoffDefaults(t *testing.T) {
	b := NewBackoff(0, 0, 0)
	if b.base != 2*time.Millisecond || b.max != 100*time.Millisecond {
		t.Fatalf("defaults: base=%v max=%v, want 2ms/100ms", b.base, b.max)
	}
}

func TestSleepCtx(t *testing.T) {
	if !sleepCtx(context.Background(), 0) {
		t.Fatal("zero sleep must report completion")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if sleepCtx(ctx, time.Hour) {
		t.Fatal("canceled context must abort the sleep")
	}
}

func TestLatencyTrackerColdReturnsZero(t *testing.T) {
	lt := newLatencyTracker(64)
	for i := 0; i < 15; i++ {
		lt.Observe(time.Millisecond)
	}
	if p := lt.P99(); p != 0 {
		t.Fatalf("cold tracker (15 obs) returned p99=%v, want 0", p)
	}
	lt.Observe(time.Millisecond)
	if p := lt.P99(); p == 0 {
		t.Fatal("warm tracker (16 obs) returned 0")
	}
}

func TestLatencyTrackerP99(t *testing.T) {
	lt := newLatencyTracker(100)
	for i := 1; i <= 100; i++ {
		lt.Observe(time.Duration(i) * time.Millisecond)
	}
	// Index (n-1)*99/100 of the sorted window: 98 → 99ms for n=100.
	if p := lt.P99(); p != 99*time.Millisecond {
		t.Fatalf("p99 of 1..100ms = %v, want 99ms", p)
	}
	// The ring retains only the newest window: flood with fast samples and
	// the old tail must age out.
	for i := 0; i < 100; i++ {
		lt.Observe(time.Millisecond)
	}
	if p := lt.P99(); p != time.Millisecond {
		t.Fatalf("after flood: p99=%v, want 1ms", p)
	}
}

// TestLatencyTrackerP99MatchesReference checks P99 against a sorted-copy
// reference quantile over a wrapped ring of random latencies, and pins the
// call at zero allocations: it runs on every routed request.
func TestLatencyTrackerP99MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	lt := newLatencyTracker(128)
	var all []time.Duration
	for i := 0; i < 300; i++ {
		d := time.Duration(rng.Int63n(int64(50 * time.Millisecond)))
		lt.Observe(d)
		all = append(all, d)
		if len(all) < 16 {
			continue
		}
		window := append([]time.Duration(nil), all[max(0, len(all)-128):]...)
		sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
		if got, want := lt.P99(), window[(len(window)-1)*99/100]; got != want {
			t.Fatalf("after %d observations: P99 %v, reference %v", len(all), got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = lt.P99() }); n != 0 {
		t.Fatalf("P99 allocates %.1f/op, want 0", n)
	}
}
