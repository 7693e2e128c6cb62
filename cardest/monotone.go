package cardest

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"
)

// MonotoneEstimator wraps any estimator and enforces the paper's third
// desired property — monotonicity in τ (§2) — end to end. The base models
// guarantee a monotone *threshold embedding* (non-negative weights, §5.1)
// but the full network can still produce small non-monotone wiggles; this
// wrapper removes them by evaluating the base estimator on a fixed τ grid
// per query and returning the running maximum up to the requested τ
// (isotonic envelope). Grid evaluations are cached per query vector; the
// cache is dropped whenever ModelGeneration moves (Save, Load, a mutation
// batch, a retrain swap), so an envelope never outlives the model state
// that produced it.
type MonotoneEstimator struct {
	base Estimator
	grid []float64

	mu    sync.Mutex
	gen   uint64               // ModelGeneration the cache was filled under
	cache map[string][]float64 // exact query bits → grid estimates (prefix-max)
}

// Monotone wraps base with an isotonic envelope over gridSize thresholds
// spanning [0, tauMax].
func Monotone(base Estimator, tauMax float64, gridSize int) (*MonotoneEstimator, error) {
	if base == nil {
		return nil, fmt.Errorf("cardest: nil base estimator")
	}
	if tauMax <= 0 {
		return nil, fmt.Errorf("cardest: tauMax must be positive, got %v", tauMax)
	}
	if gridSize < 2 {
		gridSize = 16
	}
	grid := make([]float64, gridSize)
	for i := range grid {
		grid[i] = tauMax * float64(i+1) / float64(gridSize)
	}
	return &MonotoneEstimator{
		base:  base,
		grid:  grid,
		gen:   ModelGeneration(),
		cache: map[string][]float64{},
	}, nil
}

// Name implements Estimator.
func (m *MonotoneEstimator) Name() string { return m.base.Name() + "+mono" }

// SizeBytes implements Estimator (the envelope adds only the grid).
func (m *MonotoneEstimator) SizeBytes() int { return m.base.SizeBytes() + len(m.grid)*8 }

// gridEstimates returns prefix-maxed base estimates on the grid for q.
func (m *MonotoneEstimator) gridEstimates(q []float64) []float64 {
	key := queryKey(q)
	gen := ModelGeneration()
	m.mu.Lock()
	if m.gen != gen {
		m.cache = map[string][]float64{}
		m.gen = gen
	}
	cached, ok := m.cache[key]
	m.mu.Unlock()
	if ok {
		return cached
	}
	ests := make([]float64, len(m.grid))
	running := 0.0
	for i, tau := range m.grid {
		e := m.base.EstimateSearch(q, tau)
		if e > running {
			running = e
		}
		ests[i] = running
	}
	m.mu.Lock()
	if m.gen == gen {
		if len(m.cache) > 4096 {
			m.cache = map[string][]float64{} // simple bound on memory
		}
		m.cache[key] = ests
	}
	m.mu.Unlock()
	return ests
}

// EstimateSearch evaluates the isotonic envelope at τ by linear
// interpolation between grid points — provably non-decreasing in τ for a
// fixed query (the envelope values are prefix-maxed and interpolation
// between non-decreasing knots is monotone).
func (m *MonotoneEstimator) EstimateSearch(q []float64, tau float64) float64 {
	ests := m.gridEstimates(q)
	last := len(m.grid) - 1
	if tau >= m.grid[last] {
		return ests[last]
	}
	if tau <= 0 {
		return 0
	}
	// First index with grid[i] >= tau.
	i := sort.SearchFloat64s(m.grid, tau)
	if m.grid[i] == tau {
		return ests[i]
	}
	lo, hi := 0.0, ests[i]
	loTau := 0.0
	if i > 0 {
		lo = ests[i-1]
		loTau = m.grid[i-1]
	}
	frac := (tau - loTau) / (m.grid[i] - loTau)
	return lo + frac*(hi-lo)
}

// EstimateSearchBatch evaluates the envelope per query. The grid cache —
// not the base estimator's batch path — dominates this wrapper's cost, so
// a serial loop over cached envelopes is the natural batch form.
func (m *MonotoneEstimator) EstimateSearchBatch(qs [][]float64, taus []float64) []float64 {
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = m.EstimateSearch(q, taus[i])
	}
	return out
}

// EstimateJoin sums monotone per-query estimates (monotone in τ as a sum of
// monotone terms).
func (m *MonotoneEstimator) EstimateJoin(qs [][]float64, tau float64) float64 {
	var total float64
	for _, q := range qs {
		total += m.EstimateSearch(q, tau)
	}
	return total
}

// queryKey keys the cache on the query's exact float bits, so two queries
// share an envelope only when they are bitwise the same vector.
func queryKey(q []float64) string {
	b := make([]byte, 8*len(q))
	for i, v := range q {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return string(b)
}
