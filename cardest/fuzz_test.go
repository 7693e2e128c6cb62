package cardest

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// fuzzSeedCheckpoint produces one valid saved model so the fuzzer starts
// from a well-formed trailer and mutates inward (flipping CRC bytes,
// truncating the gob payload, corrupting the magic) rather than spending
// its budget rediscovering the file format.
func fuzzSeedCheckpoint(f *testing.F) []byte {
	f.Helper()
	dir := f.TempDir()
	ds, err := GenerateProfile("imagenet", 200, 10, 11)
	if err != nil {
		f.Fatal(err)
	}
	train, _, err := BuildWorkload(ds, WorkloadOptions{TrainPoints: 10, TestPoints: 2, ThresholdsPerPoint: 3, Seed: 12})
	if err != nil {
		f.Fatal(err)
	}
	est, err := Train(ds, train, TrainOptions{Method: "mlp", Epochs: 2, Seed: 13})
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(dir, "seed.model")
	if err := Save(est, path); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return raw
}

// FuzzLoad drives arbitrary bytes through the checkpoint trailer/CRC
// verification and gob decode in Load. The invariant under fuzz: Load
// never panics, and every rejection is one of the typed sentinel errors
// (so callers can rely on errors.Is for triage).
func FuzzLoad(f *testing.F) {
	seed := fuzzSeedCheckpoint(f)
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte("not a model"))
	// Valid trailer shape, garbage payload.
	if len(seed) > trailerLength {
		f.Add(append([]byte("garbage-payload"), seed[len(seed)-trailerLength:]...))
		// Truncated payload with the original trailer.
		f.Add(append(append([]byte{}, seed[:len(seed)/2]...), seed[len(seed)-trailerLength:]...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.model")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		est, err := Load(path, nil)
		if err != nil {
			if !errors.Is(err, ErrCorruptModel) && !errors.Is(err, ErrBadVersion) {
				t.Fatalf("Load returned an untyped error for corrupt input: %v", err)
			}
			return
		}
		// A successful load must yield a usable estimator.
		if est == nil {
			t.Fatal("Load returned nil estimator with nil error")
		}
		if name := est.Name(); name == "" {
			t.Fatal("loaded estimator has empty name")
		}
	})
}

// FuzzPrecisionServe drives checkpoint bytes through Load and then serves
// the result through Harden at a fuzzed threshold: whatever a (possibly
// corrupted) checkpoint decodes to, hardened serving must never panic, and
// every served estimate must be finite and non-negative. (The name dates
// from the removed f32/int8 serving tiers, which the byte used to pick.)
func FuzzPrecisionServe(f *testing.F) {
	seed := fuzzSeedCheckpoint(f)
	// Query at the seed model's dimensionality so the well-formed seeds
	// reach the serving checks instead of a dim-mismatch rejection.
	ds, err := GenerateProfile("imagenet", 200, 10, 11)
	if err != nil {
		f.Fatal(err)
	}
	dim := ds.Dim()
	f.Add(seed, uint8(0))
	f.Add(seed, uint8(1))
	f.Add(seed, uint8(2))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte("not a model"), uint8(2))
	if len(seed) > trailerLength {
		f.Add(append([]byte("garbage-payload"), seed[len(seed)-trailerLength:]...), uint8(1))
	}

	f.Fuzz(func(t *testing.T, data []byte, tauStep uint8) {
		path := filepath.Join(t.TempDir(), "fuzz.model")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		est, err := Load(path, nil)
		if err != nil {
			return // corrupt checkpoints are FuzzLoad's domain
		}
		r := Harden(est, ServeOptions{})
		q := make([]float64, dim)
		for i := range q {
			q[i] = float64(i%10) / 10
		}
		tau := float64(tauStep) / 4
		v, err := r.EstimateSearchCtx(t.Context(), q, tau)
		if err != nil {
			return // the hardened path may legitimately reject (e.g. a captured dim-mismatch panic)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Fatalf("τ=%v: served invalid estimate %v", tau, v)
		}
		vs, err := r.EstimateSearchBatchCtx(t.Context(), [][]float64{q, q}, []float64{tau, tau})
		if err != nil {
			return
		}
		for _, b := range vs {
			if math.IsNaN(b) || math.IsInf(b, 0) || b < 0 {
				t.Fatalf("τ=%v: batch served invalid estimate %v", tau, b)
			}
		}
	})
}
