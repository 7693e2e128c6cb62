package serving

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"simquery/cardest"
)

// plainRequest and plainResponse mirror the wire messages with unnamed
// slice types and no methods, so encoding/json handles them by reflection:
// the reference the hand codec must match byte for byte and bit for bit.
type plainRequest struct {
	Queries    [][]float64 `json:"queries"`
	Taus       []float64   `json:"taus"`
	DeadlineMs int64       `json:"deadline_ms,omitempty"`
}

type plainResponse struct {
	Estimates  []float64 `json:"estimates"`
	Degraded   bool      `json:"degraded,omitempty"`
	Adapted    bool      `json:"adapted,omitempty"`
	Generation uint64    `json:"generation"`
	Replica    string    `json:"replica,omitempty"`
}

// codecFloats are the values where encoding/json's float format turns:
// signed zeros, the 1e-6 and 1e21 'e' boundaries, integers, subnormals and
// the extremes.
var codecFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 42, 1 << 53, -(1 << 53) - 2, 0.1, 1.0 / 3,
	1e-6, 9.999999999999999e-7, 1e-7, -1e-7, 1.5e-9, 1e-10, 1e20, 1e21, -1e21, 9.999999999999999e20, 1.2345e22,
	5e-324, -5e-324, 2.2250738585072009e-308, math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
	123456789.125, 0.000123,
}

// randomFloats draws n finite values: the boundary set, random bit
// patterns and ordinary magnitudes.
func randomFloats(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		switch rng.Intn(3) {
		case 0:
			out[i] = codecFloats[rng.Intn(len(codecFloats))]
		case 1:
			for {
				v := math.Float64frombits(rng.Uint64())
				if !math.IsNaN(v) && !math.IsInf(v, 0) {
					out[i] = v
					break
				}
			}
		default:
			out[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		}
	}
	return out
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameVectors(a, b [][]float64) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if !sameFloats(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestWireEncodersMatchJSONMarshal checks both hand encoders against
// json.Marshal of the reflection mirrors, and the decoders against the
// values they encoded.
func TestWireEncodersMatchJSONMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	names := []string{"", "r0", "replica-7", `quo"te`, `back\slash`, "<a&b>", "tab\there", "é", "\xff", " "}
	for iter := 0; iter < 2000; iter++ {
		var qs [][]float64
		switch rng.Intn(4) {
		case 0: // nil
		case 1:
			qs = [][]float64{}
		default:
			qs = make([][]float64, rng.Intn(4))
			for i := range qs {
				switch rng.Intn(5) {
				case 0: // nil row
				case 1:
					qs[i] = []float64{}
				default:
					qs[i] = randomFloats(rng, 1+rng.Intn(6))
				}
			}
		}
		var taus []float64
		if rng.Intn(4) > 0 {
			taus = randomFloats(rng, rng.Intn(4))
		}
		deadline := []int64{0, 1, -5, 250, math.MaxInt64}[rng.Intn(5)]
		req := EstimateRequest{Queries: qs, Taus: taus, DeadlineMs: deadline}
		want, err := json.Marshal(plainRequest{Queries: qs, Taus: taus, DeadlineMs: deadline})
		if err != nil {
			t.Fatal(err)
		}
		got, err := req.AppendJSON(nil)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("request encode:\n got %s (%v)\nwant %s", got, err, want)
		}
		if viaMarshal, err := json.Marshal(req); err != nil || !bytes.Equal(viaMarshal, want) {
			t.Fatalf("json.Marshal(EstimateRequest):\n got %s (%v)\nwant %s", viaMarshal, err, want)
		}
		var back EstimateRequest
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatal(err)
		}
		if !sameVectors(back.Queries, qs) || !sameFloats(back.Taus, taus) || back.DeadlineMs != deadline {
			t.Fatalf("request round trip of %s lost bits", got)
		}

		ests := randomFloats(rng, rng.Intn(5))
		if rng.Intn(5) == 0 {
			ests = nil
		}
		resp := EstimateResponse{
			Estimates: ests, Degraded: rng.Intn(2) == 0, Adapted: rng.Intn(2) == 0,
			Generation: rng.Uint64() >> uint(rng.Intn(64)), Replica: names[rng.Intn(len(names))],
		}
		want, err = json.Marshal(plainOf(resp))
		if err != nil {
			t.Fatal(err)
		}
		got, err = resp.AppendJSON([]byte("prefix"))
		if err != nil || !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("response encode:\n got %s (%v)\nwant prefix%s", got, err, want)
		}
		var rback EstimateResponse
		var pback plainResponse
		if err := json.Unmarshal(want, &rback); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(want, &pback); err != nil {
			t.Fatal(err)
		}
		if !sameFloats(rback.Estimates, ests) || rback.Replica != pback.Replica || rback.Generation != resp.Generation {
			t.Fatalf("response round trip of %s lost bits", want)
		}
	}
}

// plainOf converts a response to its reflection mirror.
func plainOf(r EstimateResponse) plainResponse {
	return plainResponse{Estimates: r.Estimates, Degraded: r.Degraded, Adapted: r.Adapted, Generation: r.Generation, Replica: r.Replica}
}

// TestWireEncodersRejectNonFinite pins json.Marshal's behaviour for NaN
// and ±Inf: an *json.UnsupportedValueError, and no bytes.
func TestWireEncodersRejectNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var uve *json.UnsupportedValueError
		if _, err := (EstimateRequest{Queries: [][]float64{{1, bad}}, Taus: []float64{0.1}}).AppendJSON(nil); !errors.As(err, &uve) {
			t.Errorf("request with query %v: err %v, want *json.UnsupportedValueError", bad, err)
		}
		if _, err := (EstimateRequest{Queries: [][]float64{{1}}, Taus: []float64{bad}}).AppendJSON(nil); !errors.As(err, &uve) {
			t.Errorf("request with tau %v: err %v, want *json.UnsupportedValueError", bad, err)
		}
		if _, err := (EstimateResponse{Estimates: []float64{bad}}).AppendJSON(nil); !errors.As(err, &uve) {
			t.Errorf("response with %v: err %v, want *json.UnsupportedValueError", bad, err)
		}
		if _, err := json.Marshal(EstimateRequest{Queries: [][]float64{{bad}}, Taus: []float64{0.1}}); !errors.As(err, &uve) {
			t.Errorf("json.Marshal of a request with %v: err %v, want *json.UnsupportedValueError", bad, err)
		}
	}
}

// checkRequestDecode decodes body with the named-slice request and with
// its reflection mirror, and reports any difference in acceptance or in
// the decoded bits.
func checkRequestDecode(t *testing.T, body []byte) {
	t.Helper()
	var got EstimateRequest
	var want plainRequest
	gerr, werr := json.Unmarshal(body, &got), json.Unmarshal(body, &want)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("body %q: hand decode err %v, reflection decode err %v", body, gerr, werr)
	}
	if gerr != nil {
		return
	}
	if !sameVectors(got.Queries, want.Queries) || !sameFloats(got.Taus, want.Taus) || got.DeadlineMs != want.DeadlineMs {
		t.Fatalf("body %q: hand decode %+v, reflection decode %+v", body, got, want)
	}
}

// requestSeeds are bodies on the edges of the request grammar: nulls in
// every position, duplicate keys over reused backing arrays, unknown and
// case-folded keys, trailing data, type errors and out-of-range numbers.
var requestSeeds = []string{
	`{"queries":[[0.1,0.2,0.3]],"taus":[0.05]}`,
	`{"queries":[[1,2]],"taus":[0.1],"deadline_ms":250}`,
	` { "queries" : [ [ -0 , 1e-7 , 5e-324 ] , [ ] , null ] , "taus" : [ null , 1E21 , -2.5e+3 ] } `,
	`{"queries":null,"taus":null}`,
	`{"queries":[],"taus":[]}`,
	`{"QUERIES":[[1]],"Taus":[2],"extra":{"a":[1,"x"]}}`,
	`{"taus":[1,2,3],"taus":[null,9]}`,
	`{"queries":[[1,2,3],[4]],"queries":[[null,7],null,[8]]}`,
	`{"queries":[[1]],"taus":[0.1]} trailing`,
	`{"queries":[[1]],"taus":[0.1]}{}`,
	`{"queries":[["1"]],"taus":[0.1]}`,
	`{"queries":[1],"taus":[0.1]}`,
	`{"queries":[[1]],"taus":0.1}`,
	`{"queries":{},"taus":"x"}`,
	`{"queries":[[true]],"taus":[false]}`,
	`{"queries":[[1e400]],"taus":[0.1]}`,
	`{"queries":[[1e-400]],"taus":[-1e309]}`,
	`{"queries":[[1]],"taus":[0.1],"deadline_ms":1e3}`,
	`{"queries":[[1]],"taus":[0.1],"deadline_ms":9223372036854775807}`,
	`[1,2]`, `null`, ``, `{`,
}

// FuzzEstimateRequest is differential: the hand float-array decode must
// accept exactly the bodies the reflection mirror accepts, with bitwise
// equal values. Every body also goes through the replica's /estimate
// handler, which must answer without a panic and never with a 5xx other
// than 504 for a budget the request itself set too short to serve.
func FuzzEstimateRequest(f *testing.F) {
	fx := getFixture(f)
	seed, err := json.Marshal(plainRequest{Queries: fx.queries[:2], Taus: fx.taus[:2]})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	for _, s := range requestSeeds {
		f.Add([]byte(s))
	}
	rep := NewReplica(newHardened(f, 61, cardest.ServeOptions{}), ReplicaConfig{Name: "fuzz"})
	f.Fuzz(func(t *testing.T, body []byte) {
		checkRequestDecode(t, body)
		w := httptest.NewRecorder()
		rep.handleEstimate(w, httptest.NewRequest(http.MethodPost, "/estimate", bytes.NewReader(body)))
		if w.Code < 500 {
			return
		}
		var req plainRequest
		ownBudget := json.Unmarshal(body, &req) == nil && req.DeadlineMs > 0 && req.DeadlineMs < 1000
		if w.Code != http.StatusGatewayTimeout || !ownBudget {
			t.Fatalf("body %q: status %d (%s)", body, w.Code, strings.TrimSpace(w.Body.String()))
		}
	})
}

// FuzzMutateRequest sends arbitrary bodies to /mutate on a replica with an
// adapter over a private dataset: the answer is 200, 400, 404 or 413, and
// the handler never panics.
func FuzzMutateRequest(f *testing.F) {
	ds, err := cardest.GenerateProfile("imagenet", 300, 4, 71)
	if err != nil {
		f.Fatal(err)
	}
	est, err := cardest.Train(ds, nil, cardest.TrainOptions{Method: "sampling", SampleRatio: 0.3, Seed: 72})
	if err != nil {
		f.Fatal(err)
	}
	opts := cardest.ServeOptions{}
	rep := NewReplica(cardest.Harden(est, opts), ReplicaConfig{Name: "fuzz"})
	rep.AttachAdapter(cardest.NewAdapter(ds, rep.Reloadable(), opts))
	insert, err := json.Marshal(MutateRequest{Inserts: ds.VectorsCopy()[:2], Deletes: []int{0}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(insert)
	for _, s := range []string{
		`{"deletes":[1,2]}`, `{"deletes":[-1]}`, `{"deletes":[1e30]}`, `{"deletes":[0,0]}`,
		`{"inserts":[[1]]}`, `{"inserts":[[]]}`, `{"inserts":null,"deletes":null}`, `{}`,
		`{"inserts":[[1e400]]}`, `{"deletes":[1]} x`, `[]`, `null`, ``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		rep.handleMutate(w, httptest.NewRequest(http.MethodPost, "/mutate", bytes.NewReader(body)))
		switch w.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("body %q: status %d (%s)", body, w.Code, strings.TrimSpace(w.Body.String()))
		}
	})
}

// TestFloatsUnmarshalRejectsMalformedBytes calls the decoders directly on
// bytes json's scanner never passes them: they must error, not panic.
func TestFloatsUnmarshalRejectsMalformedBytes(t *testing.T) {
	for _, s := range []string{``, `[`, `[1`, `[1,`, `[1,]`, `[,]`, `[1 2]`, `[1]x`, `nul`, `[[1]`, `[[1],`, `[x]`, `{}`, `"a"`, `[1e400]`, `[-]`} {
		var fs Floats
		if err := fs.UnmarshalJSON([]byte(s)); err == nil {
			t.Errorf("Floats.UnmarshalJSON(%q) accepted", s)
		}
		var vs Vectors
		if err := vs.UnmarshalJSON([]byte(s)); err == nil && s != `[]` {
			t.Errorf("Vectors.UnmarshalJSON(%q) accepted", s)
		}
		if err := vs.UnmarshalJSON([]byte("[" + s + "]")); err == nil && s != `` {
			t.Errorf("Vectors.UnmarshalJSON(%q) accepted", "["+s+"]")
		}
	}
}

// BenchmarkWireCodec times encode and decode of a one-query request and
// its response, with the hand codec ("hand") and with reflection over the
// mirror types ("reflect"), the codec's stage-level evidence. The query
// has 64 binary coordinates, as the Hamming profiles send. "marshal" is
// json.Marshal of the request, which calls MarshalJSON. Run with
// -benchmem.
func BenchmarkWireCodec(b *testing.B) {
	q := make([]float64, 64)
	for i := range q {
		q[i] = float64(i * 7 % 3 % 2)
	}
	req := EstimateRequest{Queries: [][]float64{q}, Taus: []float64{7.134}, DeadlineMs: 997}
	resp := EstimateResponse{Estimates: []float64{123.456789012}, Generation: 3, Replica: "r1"}
	preq, presp := plainRequest{Queries: req.Queries, Taus: req.Taus, DeadlineMs: req.DeadlineMs}, plainOf(resp)
	reqBytes, _ := json.Marshal(preq)
	respBytes, _ := json.Marshal(presp)
	b.Logf("request %d bytes, response %d bytes", len(reqBytes), len(respBytes))
	run := func(name string, f func() error) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := f(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("request/encode/hand", func() error {
		_, err := req.AppendJSON(make([]byte, 0, wireSize(req.Queries)))
		return err
	})
	run("request/encode/reflect", func() error { _, err := json.Marshal(preq); return err })
	run("request/marshal/hand", func() error { _, err := json.Marshal(req); return err })
	run("request/decode/hand", func() error { var r EstimateRequest; return json.Unmarshal(reqBytes, &r) })
	run("request/decode/reflect", func() error {
		var r plainRequest
		return json.NewDecoder(bytes.NewReader(reqBytes)).Decode(&r)
	})
	run("response/encode/hand", func() error {
		_, err := resp.AppendJSON(make([]byte, 0, 64+24*len(resp.Estimates)))
		return err
	})
	var buf bytes.Buffer
	run("response/encode/reflect", func() error { buf.Reset(); return json.NewEncoder(&buf).Encode(presp) })
	run("response/decode/hand", func() error { var r EstimateResponse; return json.Unmarshal(respBytes, &r) })
	run("response/decode/reflect", func() error {
		var r plainResponse
		return json.NewDecoder(bytes.NewReader(respBytes)).Decode(&r)
	})
}
