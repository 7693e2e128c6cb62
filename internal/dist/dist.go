// Package dist implements the distance functions used by similarity
// queries — L1, L2, general Lm, cosine, angular, Hamming — together with
// the set→binary (Jaccard→Hamming) and string→token (Edit→Hamming)
// transforms the paper applies to BMS, Aminer and DBLP (§2, §3.2, §6).
//
// Every metric here decomposes over query segments (§3.2), which is what
// makes the query-segmentation model sound; SegmentCombine encodes the
// per-metric combination rule and the tests verify the identities.
package dist

import (
	"fmt"
	"math"

	"simquery/internal/tensor"
)

// Metric identifies a distance function.
type Metric int

// Supported metrics.
const (
	L1 Metric = iota
	L2
	Cosine
	Angular
	Hamming
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case L1:
		return "L1"
	case L2:
		return "L2"
	case Cosine:
		return "Cosine"
	case Angular:
		return "Angular"
	case Hamming:
		return "Hamming"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// ParseMetric converts a name to a Metric.
func ParseMetric(s string) (Metric, error) {
	switch s {
	case "L1", "l1", "manhattan":
		return L1, nil
	case "L2", "l2", "euclidean":
		return L2, nil
	case "cosine":
		return Cosine, nil
	case "angular":
		return Angular, nil
	case "hamming":
		return Hamming, nil
	default:
		return 0, fmt.Errorf("dist: unknown metric %q", s)
	}
}

// Distance computes the metric between equal-length vectors. Cosine and
// Angular assume unit-normalized inputs (the dataset generators normalize);
// Hamming is normalized by dimension so it lies in [0, 1], matching the
// paper's τ_max conventions.
func Distance(m Metric, a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("dist: length mismatch %d vs %d", len(a), len(b)))
	}
	switch m {
	case L1:
		var s float64
		for i, v := range a {
			s += math.Abs(v - b[i])
		}
		return s
	case L2:
		var s float64
		for i, v := range a {
			d := v - b[i]
			s += d * d
		}
		return math.Sqrt(s)
	case Cosine:
		// For unit vectors: 1 − a·b = ‖a−b‖²/2.
		return 1 - tensor.Dot(a, b)
	case Angular:
		c := tensor.Clamp(tensor.Dot(a, b), -1, 1)
		return math.Acos(c) / math.Pi
	case Hamming:
		if len(a) == 0 {
			return 0
		}
		n := 0
		for i, v := range a {
			if (v > 0.5) != (b[i] > 0.5) {
				n++
			}
		}
		return float64(n) / float64(len(a))
	default:
		panic(fmt.Sprintf("dist: unsupported metric %v", m))
	}
}

// DistancesTo sets out[j] = Distance(m, q, anchors[j]) for every anchor,
// bitwise. For L2 it walks four anchors at a time, each with its own
// sequential sum in Distance's order, so four add chains overlap where a
// single one would wait on add latency. out must hold len(anchors)
// elements.
func DistancesTo(m Metric, q []float64, anchors [][]float64, out []float64) {
	out = out[:len(anchors)]
	j := 0
	if m == L2 {
		for ; j+4 <= len(anchors); j += 4 {
			for _, a := range anchors[j : j+4] {
				if len(a) != len(q) {
					panic(fmt.Sprintf("dist: length mismatch %d vs %d", len(q), len(a)))
				}
			}
			a0, a1, a2, a3 := anchors[j][:len(q)], anchors[j+1][:len(q)], anchors[j+2][:len(q)], anchors[j+3][:len(q)]
			var s0, s1, s2, s3 float64
			for i, v := range q {
				d0, d1, d2, d3 := v-a0[i], v-a1[i], v-a2[i], v-a3[i]
				s0 += d0 * d0
				s1 += d1 * d1
				s2 += d2 * d2
				s3 += d3 * d3
			}
			out[j], out[j+1], out[j+2], out[j+3] = math.Sqrt(s0), math.Sqrt(s1), math.Sqrt(s2), math.Sqrt(s3)
		}
	}
	for ; j < len(anchors); j++ {
		out[j] = Distance(m, q, anchors[j])
	}
}

// LmDistance computes the general L_m norm distance for m ≥ 1.
func LmDistance(m float64, a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("dist: length mismatch %d vs %d", len(a), len(b)))
	}
	if m < 1 {
		panic(fmt.Sprintf("dist: L_m requires m >= 1, got %v", m))
	}
	var s float64
	for i, v := range a {
		s += math.Pow(math.Abs(v-b[i]), m)
	}
	return math.Pow(s, 1/m)
}

// SegmentDistances splits a and b into n equal-length segments (the last
// may be shorter) and returns the per-segment distances — the inputs to the
// paper's per-segment density function f().
func SegmentDistances(m Metric, a, b []float64, n int) []float64 {
	if n <= 0 {
		panic(fmt.Sprintf("dist: invalid segment count %d", n))
	}
	segLen := (len(a) + n - 1) / n
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		lo := i * segLen
		if lo >= len(a) {
			out = append(out, 0)
			continue
		}
		hi := lo + segLen
		if hi > len(a) {
			hi = len(a)
		}
		out = append(out, segmentRaw(m, a[lo:hi], b[lo:hi]))
	}
	return out
}

// segmentRaw returns the segment-level quantity that combines additively:
// |·| for L1, squared norm for L2/Cosine/Angular, mismatch count for
// Hamming.
func segmentRaw(m Metric, a, b []float64) float64 {
	switch m {
	case L1:
		return Distance(L1, a, b)
	case L2, Cosine, Angular:
		var s float64
		for i, v := range a {
			d := v - b[i]
			s += d * d
		}
		return s
	case Hamming:
		n := 0.0
		for i, v := range a {
			if (v > 0.5) != (b[i] > 0.5) {
				n++
			}
		}
		return n
	default:
		panic(fmt.Sprintf("dist: unsupported metric %v", m))
	}
}

// SegmentCombine reconstructs the full-vector distance from the raw
// per-segment quantities produced by SegmentDistances, given the total
// dimension d. It encodes the §3.2 identities:
//
//	L1:      Σ segment L1
//	L2:      sqrt(Σ segment squared-L2)
//	Cosine:  (Σ segment squared-L2)/2  (unit vectors)
//	Angular: arccos(1 − cosine)/π
//	Hamming: (Σ mismatches)/d
func SegmentCombine(m Metric, segs []float64, d int) float64 {
	var s float64
	for _, v := range segs {
		s += v
	}
	switch m {
	case L1:
		return s
	case L2:
		return math.Sqrt(s)
	case Cosine:
		return s / 2
	case Angular:
		cos := tensor.Clamp(1-s/2, -1, 1)
		return math.Acos(cos) / math.Pi
	case Hamming:
		if d == 0 {
			return 0
		}
		return s / float64(d)
	default:
		panic(fmt.Sprintf("dist: unsupported metric %v", m))
	}
}

// JaccardToHamming converts two sets over a universe of size d to binary
// vectors whose normalized Hamming distance equals the Jaccard distance's
// symmetric-difference form used by the paper's example (§3.2): the sets
// {a,b,c} and {a,b,d} over {a,b,c,d} give Hamming 2/4 = 0.5.
func JaccardToHamming(u, v []int, universe int) (x, y []float64) {
	x = make([]float64, universe)
	y = make([]float64, universe)
	for _, i := range u {
		if i >= 0 && i < universe {
			x[i] = 1
		}
	}
	for _, i := range v {
		if i >= 0 && i < universe {
			y[i] = 1
		}
	}
	return x, y
}

// TokenHamming embeds strings into binary token-presence vectors of the
// given dimension via q-gram hashing — the [53]-style Edit→Hamming
// transform applied to Aminer/DBLP titles. Strings at small edit distance
// share most q-grams, so their token-Hamming distance is small.
func TokenHamming(s string, q, dim int) []float64 {
	if q <= 0 {
		q = 3
	}
	v := make([]float64, dim)
	if len(s) < q {
		if len(s) > 0 {
			v[fnv32(s)%uint32(dim)] = 1
		}
		return v
	}
	for i := 0; i+q <= len(s); i++ {
		v[fnv32(s[i:i+q])%uint32(dim)] = 1
	}
	return v
}

// fnv32 is the 32-bit FNV-1a hash.
func fnv32(s string) uint32 {
	const (
		offset = 2166136261
		prime  = 16777619
	)
	h := uint32(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime
	}
	return h
}

// EditDistance computes Levenshtein distance; used by tests to validate
// that TokenHamming preserves similarity ordering.
func EditDistance(a, b string) int {
	la, lb := len(a), len(b)
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[lb]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
