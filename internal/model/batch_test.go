package model

import (
	"sync"
	"testing"
)

// testBatch pulls the whole test workload into parallel slices.
func testBatch(t *testing.T) ([][]float64, []float64) {
	f := getFixture(t)
	qs := make([][]float64, len(f.w.Test))
	taus := make([]float64, len(f.w.Test))
	for i, q := range f.w.Test {
		qs[i] = q.Vec
		taus[i] = q.Tau
	}
	return qs, taus
}

// TestEstimateSearchBatchExact asserts the batched, grouped, parallel path
// is bitwise identical to the serial per-query path: same routing, same
// per-row network math, same summation order.
func TestEstimateSearchBatchExact(t *testing.T) {
	qs, taus := testBatch(t)
	for _, v := range []Variant{GLPlus, LocalPlus} {
		gl := trainedGL(t, v)
		batch := gl.EstimateSearchBatch(qs, taus)
		if len(batch) != len(qs) {
			t.Fatalf("%s: batch returned %d results for %d queries", v, len(batch), len(qs))
		}
		for i := range qs {
			single := gl.EstimateSearch(qs[i], taus[i])
			if batch[i] != single {
				t.Fatalf("%s query %d: batch %v != serial %v", v, i, batch[i], single)
			}
		}
	}
}

// TestEstimateSearchBatchEmpty checks the zero-query edge case.
func TestEstimateSearchBatchEmpty(t *testing.T) {
	gl := trainedGL(t, GLPlus)
	if got := gl.EstimateSearchBatch(nil, nil); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
}

// TestEstimateSearchConcurrent hammers one trained GL+ from many goroutines
// mixing single and batched estimates, asserting every result is identical
// to the serial baseline. Run under -race this is the end-to-end
// concurrency regression test for the serving engine.
func TestEstimateSearchConcurrent(t *testing.T) {
	gl := trainedGL(t, GLPlus)
	qs, taus := testBatch(t)
	want := make([]float64, len(qs))
	for i := range qs {
		want[i] = gl.EstimateSearch(qs[i], taus[i])
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 10; it++ {
				if g%2 == 0 {
					got := gl.EstimateSearchBatch(qs, taus)
					for i := range want {
						if got[i] != want[i] {
							errs <- "concurrent batch estimate diverged from serial"
							return
						}
					}
				} else {
					for i := range want {
						if got := gl.EstimateSearch(qs[i], taus[i]); got != want[i] {
							errs <- "concurrent single estimate diverged from serial"
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// TestGlobalLocalPrecisionTiers extends the batch contract to the GL-CNN
// and GL-MLP variants: the batch path is bitwise the serial path, a second
// pass is deterministic, and an empty batch is legal. (The name dates from
// the removed f32/int8 serving tiers; the f64 path is the one left.)
func TestGlobalLocalPrecisionTiers(t *testing.T) {
	qs, taus := testBatch(t)
	for _, v := range []Variant{GLCNN, GLMLP} {
		gl := trainedGL(t, v)
		got := gl.EstimateSearchBatch(qs, taus)
		if len(got) != len(qs) {
			t.Fatalf("%s: batch returned %d results for %d queries", v, len(got), len(qs))
		}
		for i := range qs {
			if single := gl.EstimateSearch(qs[i], taus[i]); got[i] != single {
				t.Fatalf("%s query %d: batch %v != serial %v", v, i, got[i], single)
			}
		}
		again := gl.EstimateSearchBatch(qs, taus)
		for i := range got {
			if again[i] != got[i] {
				t.Fatalf("%s query %d not deterministic: %v vs %v", v, i, again[i], got[i])
			}
		}
		if empty := gl.EstimateSearchBatch(nil, nil); len(empty) != 0 {
			t.Fatalf("%s: empty batch returned %d results", v, len(empty))
		}
	}
}
