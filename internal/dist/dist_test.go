package dist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"simquery/internal/tensor"
)

func close(a, b, eps float64) bool { return math.Abs(a-b) <= eps*(1+math.Abs(a)+math.Abs(b)) }

func TestMetricString(t *testing.T) {
	for m, want := range map[Metric]string{L1: "L1", L2: "L2", Cosine: "Cosine", Angular: "Angular", Hamming: "Hamming"} {
		if m.String() != want {
			t.Fatalf("%v", m)
		}
	}
}

func TestParseMetric(t *testing.T) {
	for s, want := range map[string]Metric{"L1": L1, "euclidean": L2, "cosine": Cosine, "angular": Angular, "hamming": Hamming} {
		got, err := ParseMetric(s)
		if err != nil || got != want {
			t.Fatalf("ParseMetric(%q)=%v,%v", s, got, err)
		}
	}
	if _, err := ParseMetric("bogus"); err == nil {
		t.Fatal("expected error")
	}
}

func TestL1L2Basic(t *testing.T) {
	a := []float64{0, 0}
	b := []float64{3, 4}
	if Distance(L1, a, b) != 7 {
		t.Fatalf("L1=%v", Distance(L1, a, b))
	}
	if Distance(L2, a, b) != 5 {
		t.Fatalf("L2=%v", Distance(L2, a, b))
	}
}

func TestLmDistanceMatchesSpecialCases(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, 10)
	b := make([]float64, 10)
	for i := range a {
		a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	if !close(LmDistance(1, a, b), Distance(L1, a, b), 1e-12) {
		t.Fatal("Lm(1) != L1")
	}
	if !close(LmDistance(2, a, b), Distance(L2, a, b), 1e-12) {
		t.Fatal("Lm(2) != L2")
	}
}

func TestLmRejectsSmallM(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for m<1")
		}
	}()
	LmDistance(0.5, []float64{1}, []float64{2})
}

func TestCosineEqualsHalfSquaredL2OnUnitVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		a := make([]float64, 16)
		b := make([]float64, 16)
		for i := range a {
			a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		tensor.Normalize(a)
		tensor.Normalize(b)
		l2 := Distance(L2, a, b)
		if !close(Distance(Cosine, a, b), l2*l2/2, 1e-9) {
			t.Fatalf("cosine identity failed: %v vs %v", Distance(Cosine, a, b), l2*l2/2)
		}
	}
}

func TestAngularRange(t *testing.T) {
	a := []float64{1, 0}
	b := []float64{-1, 0}
	if !close(Distance(Angular, a, b), 1, 1e-12) {
		t.Fatalf("opposite vectors should be angular 1: %v", Distance(Angular, a, b))
	}
	if !close(Distance(Angular, a, a), 0, 1e-6) {
		t.Fatalf("same vector angular: %v", Distance(Angular, a, a))
	}
}

func TestHammingNormalized(t *testing.T) {
	a := []float64{1, 1, 1, 0}
	b := []float64{1, 1, 0, 1}
	if Distance(Hamming, a, b) != 0.5 {
		t.Fatalf("hamming=%v", Distance(Hamming, a, b))
	}
}

func TestJaccardToHammingPaperExample(t *testing.T) {
	// u={a,b,c}, v={a,b,d} over {a,b,c,d}: Jaccard symmetric-diff distance 0.5.
	x, y := JaccardToHamming([]int{0, 1, 2}, []int{0, 1, 3}, 4)
	if Distance(Hamming, x, y) != 0.5 {
		t.Fatalf("got %v want 0.5", Distance(Hamming, x, y))
	}
}

func TestSegmentDecompositionIdentities(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, m := range []Metric{L1, L2, Cosine, Angular, Hamming} {
		for _, n := range []int{1, 2, 3, 5, 16} {
			d := 32
			a := make([]float64, d)
			b := make([]float64, d)
			for i := range a {
				if m == Hamming {
					a[i] = float64(rng.Intn(2))
					b[i] = float64(rng.Intn(2))
				} else {
					a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
				}
			}
			if m == Cosine || m == Angular {
				tensor.Normalize(a)
				tensor.Normalize(b)
			}
			want := Distance(m, a, b)
			segs := SegmentDistances(m, a, b, n)
			got := SegmentCombine(m, segs, d)
			if !close(got, want, 1e-9) {
				t.Fatalf("metric %v segments %d: combined %v want %v", m, n, got, want)
			}
		}
	}
}

// Property: segment decomposition is exact for random vectors and segment
// counts (quick-checked).
func TestSegmentDecompositionProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%8 + 1
		d := 24
		a := make([]float64, d)
		b := make([]float64, d)
		for i := range a {
			a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		want := Distance(L2, a, b)
		got := SegmentCombine(L2, SegmentDistances(L2, a, b, n), d)
		return close(got, want, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: all metrics are symmetric and satisfy identity dis(x,x)=0.
func TestMetricAxiomsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := make([]float64, 12)
		b := make([]float64, 12)
		for i := range a {
			a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		tensor.Normalize(a)
		tensor.Normalize(b)
		for _, m := range []Metric{L1, L2, Cosine, Angular, Hamming} {
			if !close(Distance(m, a, b), Distance(m, b, a), 1e-9) {
				return false
			}
			if Distance(m, a, a) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTriangleInequalityL2(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		a, b, c := make([]float64, 8), make([]float64, 8), make([]float64, 8)
		for i := range a {
			a[i], b[i], c[i] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		}
		if Distance(L2, a, c) > Distance(L2, a, b)+Distance(L2, b, c)+1e-12 {
			t.Fatal("triangle inequality violated for L2")
		}
	}
}

func TestTokenHammingTracksEditDistance(t *testing.T) {
	base := "learned cardinality estimation for similarity queries"
	near := "learned cardinality estimation for similarity query"
	far := "completely unrelated database systems paper title here"
	dim := 256
	vb := TokenHamming(base, 3, dim)
	vn := TokenHamming(near, 3, dim)
	vf := TokenHamming(far, 3, dim)
	dn := Distance(Hamming, vb, vn)
	df := Distance(Hamming, vb, vf)
	if dn >= df {
		t.Fatalf("token-hamming must preserve similarity order: near=%v far=%v", dn, df)
	}
	if EditDistance(base, near) >= EditDistance(base, far) {
		t.Fatal("sanity: edit distances out of order")
	}
}

func TestTokenHammingShortString(t *testing.T) {
	v := TokenHamming("ab", 3, 64)
	if tensor.Sum(v) != 1 {
		t.Fatalf("short string should set one bit, got %v", tensor.Sum(v))
	}
	z := TokenHamming("", 3, 64)
	if tensor.Sum(z) != 0 {
		t.Fatal("empty string should be the zero vector")
	}
}

func TestEditDistance(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
	}
	for _, c := range cases {
		if got := EditDistance(c.a, c.b); got != c.want {
			t.Fatalf("EditDistance(%q,%q)=%d want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDistanceMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Distance(L2, []float64{1}, []float64{1, 2})
}

func TestSegmentDistancesBadCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SegmentDistances(L2, []float64{1, 2}, []float64{1, 2}, 0)
}

// TestDistancesToMatchesDistance checks DistancesTo bit for bit against
// Distance for every metric, at anchor counts that leave every remainder
// of the four-anchor L2 block, and that it rejects a ragged anchor.
func TestDistancesToMatchesDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const dim = 37
	vec := func() []float64 {
		v := make([]float64, dim)
		for i := range v {
			v[i] = rng.Float64()
		}
		return v
	}
	for _, m := range []Metric{L1, L2, Cosine, Angular, Hamming} {
		for _, n := range []int{0, 1, 3, 4, 5, 6, 7, 9, 12, 13} {
			q := vec()
			anchors := make([][]float64, n)
			for j := range anchors {
				anchors[j] = vec()
			}
			out := make([]float64, n)
			DistancesTo(m, q, anchors, out)
			for j, a := range anchors {
				if want := Distance(m, q, a); math.Float64bits(out[j]) != math.Float64bits(want) {
					t.Fatalf("%v n=%d anchor %d: DistancesTo %v, Distance %v", m, n, j, out[j], want)
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ragged anchor did not panic")
		}
	}()
	q := vec()
	DistancesTo(L2, q, [][]float64{q, q, q, q[:dim-1]}, make([]float64, 4))
}
