package main

import (
	"math"
	"math/rand"
	"sort"
)

// The benchmark's input generators. Every stream is a pure function of the
// run's --seed (and, for per-client streams, the client index), so the same
// seed replays the same inputs; the program under test only ever sees the
// generated queries and mutation batches.

// zipfSkew is the Zipf exponent of the serve workloads' query stream. No
// trace of the estimate requests a query optimizer sends is public, so this
// is an assumption borrowed from the standard stand-in for skewed serving
// traffic: YCSB's "zipfian" request distribution, whose constant is 0.99
// (Cooper et al., "Benchmarking Cloud Serving Systems with YCSB", SoCC
// 2010). Over the 512-query pool the hottest query takes 14% of requests
// and the 20 hottest about half.
const zipfSkew = 0.99

// hotOrder ranks the query pool for one seed: hotOrder(seed, n)[0] is the
// hottest query. Every client of a run shares it, so they agree on which
// queries are hot.
func hotOrder(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// zipfStream draws pool indices Zipf-skewed over a hot order: rank k
// (0-based) is drawn with probability proportional to 1/(k+1)^zipfSkew.
// math/rand's Zipf needs an exponent above 1, so the stream inverts the
// cumulative distribution itself.
type zipfStream struct {
	rng *rand.Rand
	cdf []float64
	hot []int
}

// newZipfStream builds client c's stream over the pool ranked by hot.
func newZipfStream(seed int64, c int, hot []int) *zipfStream {
	cdf := make([]float64, len(hot))
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -zipfSkew)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	cdf[len(cdf)-1] = 1
	return &zipfStream{rng: rand.New(rand.NewSource(clientSeed(seed, c))), cdf: cdf, hot: hot}
}

// Next returns the next pool index.
func (s *zipfStream) Next() int { return s.hot[sort.SearchFloat64s(s.cdf, s.rng.Float64())] }

// batchStream draws batches of distinct pool indices uniformly.
type batchStream struct {
	rng *rand.Rand
	idx []int
}

// newBatchStream builds client c's stream over a pool of n queries.
func newBatchStream(seed int64, c, n int) *batchStream {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return &batchStream{rng: rand.New(rand.NewSource(clientSeed(seed, c))), idx: idx}
}

// Next returns k distinct pool indices (k ≤ pool size), by a partial
// Fisher–Yates shuffle. The slice is reused by the following call.
func (s *batchStream) Next(k int) []int {
	for i := 0; i < k; i++ {
		j := i + s.rng.Intn(len(s.idx)-i)
		s.idx[i], s.idx[j] = s.idx[j], s.idx[i]
	}
	return s.idx[:k]
}

// clientSeed derives client c's stream seed from the run seed.
func clientSeed(seed int64, c int) int64 { return seed*1_000_003 + int64(c) + 1 }

// mutGen generates dataset mutation batches over binary codes (the
// imagenet profile). A batch has the shape of simquery's -mutate-rate
// batches (cmd/simquery randomMutation): 1–3 inserts, each a near-duplicate
// of an existing row, and up to 2 distinct deletes of live rows (two draws,
// a repeated draw dropped). simquery perturbs a copy with Gaussian noise of
// 0.01, which on binary codes would leave the code space; here the copy
// gets one flipped bit, the smallest perturbation a code admits.
type mutGen struct {
	rng  *rand.Rand
	base [][]float64
}

// newMutGen builds the mutation stream for one seed over the original
// vectors (which it only reads).
func newMutGen(seed int64, base [][]float64) *mutGen {
	return &mutGen{rng: rand.New(rand.NewSource(seed ^ 0x6d757461)), base: base}
}

// Next returns one batch against a dataset of live rows.
func (g *mutGen) Next(live int) (inserts [][]float64, deletes []int) {
	for k := 1 + g.rng.Intn(3); k > 0; k-- {
		v := append([]float64(nil), g.base[g.rng.Intn(len(g.base))]...)
		j := g.rng.Intn(len(v))
		v[j] = 1 - v[j]
		inserts = append(inserts, v)
	}
	seen := map[int]bool{}
	for k := g.rng.Intn(3); k > 0 && live > 1; k-- {
		if i := g.rng.Intn(live); !seen[i] {
			seen[i] = true
			deletes = append(deletes, i)
		}
	}
	return inserts, deletes
}
