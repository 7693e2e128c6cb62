package main

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func TestZipfStreamDeterministicPerSeed(t *testing.T) {
	draw := func(seed int64, c int) []int {
		s := newZipfStream(seed, c, hotOrder(seed, 512))
		out := make([]int, 1000)
		for i := range out {
			out[i] = s.Next()
		}
		return out
	}
	if !reflect.DeepEqual(draw(7, 0), draw(7, 0)) {
		t.Fatal("same seed and client gave different query streams")
	}
	if reflect.DeepEqual(draw(7, 0), draw(8, 0)) || reflect.DeepEqual(draw(7, 0), draw(7, 1)) {
		t.Fatal("different seeds or clients gave the same query stream")
	}
	// The stream is skewed: the hottest query is drawn far more often than
	// a uniform draw (2 in 1000) would.
	hot := hotOrder(7, 512)[0]
	n := 0
	for _, i := range draw(7, 0) {
		if i == hot {
			n++
		}
	}
	if n < 100 {
		t.Fatalf("hottest query drawn %d times in 1000, want a Zipf skew", n)
	}
}

func TestBatchStreamDeterministicAndDistinct(t *testing.T) {
	a, b := newBatchStream(3, 0, 100), newBatchStream(3, 0, 100)
	for range 50 {
		x, y := append([]int(nil), a.Next(64)...), b.Next(64)
		if !reflect.DeepEqual(x, y) {
			t.Fatal("same seed gave different batches")
		}
		seen := map[int]bool{}
		for _, i := range x {
			if seen[i] || i < 0 || i >= 100 {
				t.Fatalf("batch %v repeats or leaves the pool", x)
			}
			seen[i] = true
		}
	}
}

func TestMutationGeneratorDeterministicPerSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := make([][]float64, 50)
	for i := range base {
		base[i] = make([]float64, 16)
		for j := range base[i] {
			base[i][j] = float64(rng.Intn(2))
		}
	}
	orig := make([][]float64, len(base))
	for i, v := range base {
		orig[i] = append([]float64(nil), v...)
	}
	batches := func(seed int64) (out []any) {
		g := newMutGen(seed, base)
		for range 20 {
			ins, dels := g.Next(50)
			out = append(out, ins, dels)
		}
		return out
	}
	if !reflect.DeepEqual(batches(5), batches(5)) {
		t.Fatal("same seed gave different mutation batches")
	}
	if reflect.DeepEqual(batches(5), batches(6)) {
		t.Fatal("different seeds gave the same mutation batches")
	}
	g := newMutGen(5, base)
	for range 100 {
		ins, dels := g.Next(50)
		if len(ins) < 1 || len(ins) > 3 || len(dels) > 2 {
			t.Fatalf("batch has %d inserts and %d deletes, want 1–3 and 0–2", len(ins), len(dels))
		}
		seen := map[int]bool{}
		for _, i := range dels {
			if seen[i] || i < 0 || i >= 50 {
				t.Fatalf("deletes %v repeat or leave [0, 50)", dels)
			}
			seen[i] = true
		}
		for _, v := range ins {
			for _, x := range v {
				if x != 0 && x != 1 {
					t.Fatalf("insert %v is not binary", v)
				}
			}
		}
	}
	if !reflect.DeepEqual(base, orig) {
		t.Fatal("generator modified the base vectors")
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{100000, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {5, 50},
	} {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if beyond := c.n - rank(got, c.n); got > 50 && beyond < 10 {
			t.Errorf("tailPercentile(%d) = %v leaves %d samples beyond it", c.n, got, beyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(append([]float64(nil), xs...), 50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := percentile(append([]float64(nil), xs...), 99); got != 5 {
		t.Errorf("p99 = %v, want 5", got)
	}
	if got := percentile([]float64{7}, 1); got != 7 {
		t.Errorf("p1 of one sample = %v, want 7", got)
	}
}

func TestSelfTimesNeverNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for range 200 {
		var spans []span
		for i := range 1 + rng.Intn(20) {
			start := rng.Int63n(1000)
			spans = append(spans, span{ID: int64(i), Parent: int64(rng.Intn(i+1)) - 1, Start: start, End: start + rng.Int63n(500)})
		}
		for i, v := range selfTimes(spans) {
			if v < 0 {
				t.Fatalf("span %d has negative self time %d in %+v", i, v, spans)
			}
		}
	}
	// Children that fit inside their parent leave the remainder as self time.
	spans := []span{
		{Name: "root", ID: 10, Parent: -1, Start: 0, End: 100},
		{Name: "a", ID: 11, Parent: 10, Start: 0, End: 30},
		{Name: "b", ID: 12, Parent: 10, Start: 40, End: 60},
		{Name: "c", ID: 13, Parent: 12, Start: 40, End: 90}, // overruns b
	}
	if got, want := selfTimes(spans), []int64{50, 30, 0, 50}; !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	med, n := layerSelfMedians(spans)
	if n != 1 || med["root"] != 0.05 || med["b"] != 0 {
		t.Fatalf("layerSelfMedians = %v over %d requests", med, n)
	}
}

func TestFitSharesParentWallClock(t *testing.T) {
	origin := time.Unix(0, 0)
	at := func(ns int64) time.Time { return origin.Add(time.Duration(ns)) }
	r := newRecorder(origin, 0)
	root := r.add("model", -1, at(0), at(1000))
	section := r.add("model.local_eval", root, at(100), at(500)) // 400 ns of wall clock
	from := len(r.spans)
	// Two locals replayed one at a time took 300 ns each, with 200 ns of
	// children each: together more than the section they ran in.
	for _, t0 := range []int64{600, 900} {
		l := r.add("model.local_eval", section, at(t0), at(t0+300))
		r.add("nn.dense", l, at(t0+50), at(t0+250))
	}
	r.fit(from, section)
	self := selfTimes(r.spans)
	var sum int64
	for _, v := range self {
		sum += v
	}
	if sum != 1000 {
		t.Fatalf("self times %v add up to %d, want the root's 1000", self, sum)
	}
	// Scaled by 400/600: the section keeps no self time, and each local
	// and its child keep their 1:2 split of it, to the nanosecond.
	for i, want := range []int64{600, 0, 67, 133, 67, 133} {
		if d := self[i] - want; d < -1 || d > 1 {
			t.Fatalf("self times %v, want %v to within 1 ns", self, want)
		}
	}
	// Children that fit keep their durations.
	r = newRecorder(origin, 0)
	section = r.add("model.local_eval", -1, at(0), at(1000))
	l := r.add("model.local_eval", section, at(2000), at(2300))
	r.fit(int(l), section)
	if got := r.spans[1]; got.Start != 0 || got.End != 300 {
		t.Fatalf("fitting child moved to [%d, %d), want [0, 300)", got.Start, got.End)
	}
}

// TestSmokeRuns runs every workload briefly, untraced and traced, and
// requires every output check to pass.
func TestSmokeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("trains and serves three models")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rec, err := run(w, 1, 1.5, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if _, err := json.Marshal(rec); err != nil {
				t.Errorf("%s traced=%v: record does not encode: %v", w.name, traced, err)
			}
			r := rec.Result
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d first failure %q",
					w.name, traced, r.Correct, r.Attempted, r.Failed, rec.FirstFailure)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(r.Metrics), len(defs))
			}
			if !traced {
				for _, d := range defs {
					if r.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, r.Metrics[d.name].Value)
					}
				}
			}
		}
	}
}
