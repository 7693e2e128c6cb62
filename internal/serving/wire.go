// Package serving is the replicated network tier of the estimator: an
// HTTP/JSON batch-estimate replica (Replica, served by cmd/simserve) that
// swaps model generations atomically behind cardest.Reloadable, and a
// client-side dispatch layer (Router, driven by cmd/simload and embedding
// callers) that shards requests across replicas with per-request deadlines,
// bounded exponential backoff with jitter, single-retry hedging after a
// p99-derived delay, and a per-replica circuit breaker fed by health probes
// and error rates. The degradation ladder from DESIGN.md §10 extends across
// the process boundary here: a dead replica is retried or hedged to a
// sibling, an overloaded replica sheds with 429 + Retry-After and the
// router backs off, and total replica loss degrades to the router's local
// sampling tier — the client sees answers, never errors (DESIGN.md §15).
package serving

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"strconv"
	"time"

	"simquery/cardest"
)

// Wire format of POST /estimate. One request carries a batch; replicas
// answer all queries or fail the request as a unit (the router re-dispatches
// whole requests, so partial answers never need merging across replicas).
// Both messages encode without reflection (AppendJSON) and their float
// arrays decode without it (Vectors and Floats); the bytes are
// encoding/json's (DESIGN.md §15).
type (
	// EstimateRequest is the JSON request body.
	EstimateRequest struct {
		// Queries are the query vectors; Taus the per-query thresholds
		// (len(Taus) must equal len(Queries)).
		Queries Vectors `json:"queries"`
		Taus    Floats  `json:"taus"`
		// DeadlineMs bounds serving time replica-side (0 = the replica's
		// configured default). The router also enforces its own deadline by
		// context, so a stalled replica cannot hold the client past budget.
		DeadlineMs int64 `json:"deadline_ms,omitempty"`
	}

	// EstimateResponse is the JSON response body of a 200 answer. Degraded
	// answers (fallback-tier estimates after a primary fault) are still 200:
	// availability is the contract, Degraded is the honesty bit.
	EstimateResponse struct {
		Estimates Floats `json:"estimates"`
		// Degraded reports that at least one estimate came from the
		// replica's fallback tier (or, set by the router, from the router's
		// own local fallback after total replica loss).
		Degraded bool `json:"degraded,omitempty"`
		// Adapted reports that the answering estimator was serving
		// delta-corrected estimates (dataset mutations pending retrain).
		Adapted bool `json:"adapted,omitempty"`
		// Generation is the model generation that answered (the
		// ModelGeneration stamp pinned for this request).
		Generation uint64 `json:"generation"`
		// Replica names the answering replica.
		Replica string `json:"replica,omitempty"`
	}

	// ErrorResponse is the JSON body of every non-200 status.
	ErrorResponse struct {
		Error string `json:"error"`
	}

	// MutateRequest is the JSON body of POST /mutate: one dataset mutation
	// batch. Deletes name current dataset indices and are applied before
	// Inserts; the whole batch is validated before any change lands.
	MutateRequest struct {
		Inserts [][]float64 `json:"inserts,omitempty"`
		Deletes []int       `json:"deletes,omitempty"`
	}

	// MutateResponse is the JSON body of a 200 POST /mutate answer.
	MutateResponse struct {
		Inserted int `json:"inserted"`
		Deleted  int `json:"deleted"`
		// Pending counts mutations the serving model is currently
		// delta-correcting for (not yet absorbed by a retrain).
		Pending int64 `json:"pending"`
		// LiveSize is the dataset size after the batch.
		LiveSize int `json:"live_size"`
		// Generation is the model generation after the cache-invalidating
		// bump.
		Generation uint64 `json:"generation"`
		Replica    string `json:"replica,omitempty"`
	}
)

// Validate checks the mutation batch shape (emptiness; the adapter
// validates dimensions and delete indices against the live dataset).
func (r *MutateRequest) Validate() error {
	if len(r.Inserts) == 0 && len(r.Deletes) == 0 {
		return errors.New("serving: empty mutation batch")
	}
	for i, v := range r.Inserts {
		if len(v) == 0 {
			return fmt.Errorf("serving: insert %d is empty", i)
		}
	}
	return nil
}

// Validate checks the request shape; the replica rejects malformed bodies
// with 400 before touching the model.
func (r *EstimateRequest) Validate() error {
	if len(r.Queries) == 0 {
		return errors.New("serving: empty query batch")
	}
	if len(r.Queries) > MaxBatchQueries {
		return fmt.Errorf("serving: %d queries exceed the batch cap of %d", len(r.Queries), MaxBatchQueries)
	}
	if len(r.Queries) != len(r.Taus) {
		return fmt.Errorf("serving: %d queries but %d taus", len(r.Queries), len(r.Taus))
	}
	for i, q := range r.Queries {
		if len(q) == 0 {
			return fmt.Errorf("serving: query %d is empty", i)
		}
	}
	return nil
}

// RetryAfterHeader and RetryAfterMsHeader advertise the overload backoff
// window on 429 responses. Retry-After carries whole seconds (HTTP
// convention, coarse); X-Retry-After-Ms carries the precise window and is
// preferred by the router.
const (
	RetryAfterHeader   = "Retry-After"
	RetryAfterMsHeader = "X-Retry-After-Ms"
)

// WriteError maps the serving tier's typed errors onto HTTP statuses — the
// contract documented in DESIGN.md §15:
//
//	cardest.ErrOverloaded            → 429 + Retry-After (load shedding;
//	                                   retryAfter advertises the window)
//	cardest.ErrInvalidInput          → 400 (a query of the wrong
//	                                   dimension: the caller's error)
//	context deadline / cancellation  → 504 (the request's budget is spent;
//	                                   retrying it would double-bill)
//	anything else                    → 500 (degraded-with-no-fallback,
//	                                   reload failures, internal faults)
//
// Degraded answers never reach here: a fallback-served estimate is a 200
// with degraded:true in the body.
func WriteError(w http.ResponseWriter, err error, retryAfter time.Duration) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, cardest.ErrOverloaded):
		status = http.StatusTooManyRequests
		secs := int64(retryAfter.Round(time.Second) / time.Second)
		w.Header().Set(RetryAfterHeader, strconv.FormatInt(secs, 10))
		w.Header().Set(RetryAfterMsHeader, strconv.FormatInt(retryAfter.Milliseconds(), 10))
	case errors.Is(err, cardest.ErrInvalidInput):
		status = http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		status = http.StatusGatewayTimeout
	}
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

// writeJSON writes v as the JSON body with status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// retryAfterOf parses a 429 response's advertised backoff window: the
// millisecond header when present, else Retry-After seconds, else 0.
func retryAfterOf(h http.Header) time.Duration {
	if ms := h.Get(RetryAfterMsHeader); ms != "" {
		if v, err := strconv.ParseInt(ms, 10, 64); err == nil && v >= 0 {
			return time.Duration(v) * time.Millisecond
		}
	}
	if s := h.Get(RetryAfterHeader); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v >= 0 {
			return time.Duration(v) * time.Second
		}
	}
	return 0
}

// Vectors and Floats are the float arrays of the /estimate messages. They
// decode without reflection: encoding/json still validates the document,
// matches keys and skips unknown fields, then hands each array's bytes to
// UnmarshalJSON, which parses the numbers with strconv.ParseFloat. The
// result is the one json.Unmarshal gives a [][]float64 or []float64,
// bit for bit: null is nil, [] is empty and non-nil, a null element leaves
// its slot as it was, and an earlier value's backing array is reused.
type (
	Vectors [][]float64
	Floats  []float64
)

// errNotFloats rejects an array value that is not an array of numbers.
var errNotFloats = errors.New("serving: expected a JSON array of numbers")

// UnmarshalJSON decodes a JSON array of number arrays, or null.
func (vs *Vectors) UnmarshalJSON(data []byte) error {
	return unmarshalArray((*[][]float64)(vs), data, parseRow)
}

// UnmarshalJSON decodes a JSON array of numbers, or null.
func (fs *Floats) UnmarshalJSON(data []byte) error {
	return unmarshalArray((*[]float64)(fs), data, parseNumber)
}

// unmarshalArray parses data, which must hold one array (or null) and
// nothing else but whitespace, into *dst.
func unmarshalArray[T any](dst *[]T, data []byte, elem func([]byte, T) (T, []byte, error)) error {
	out, rest, err := parseArray(data, *dst, elem)
	if err == nil && len(skipSpace(rest)) != 0 {
		err = errNotFloats
	}
	if err != nil {
		return err
	}
	*dst = out
	return nil
}

// parseArray parses one array (or null) from the front of data into dst's
// backing array, each element with elem from the slot's current value,
// and returns the rest of data.
func parseArray[T any](data []byte, dst []T, elem func([]byte, T) (T, []byte, error)) ([]T, []byte, error) {
	data = skipSpace(data)
	if isNull(data) {
		return nil, data[4:], nil
	}
	if len(data) == 0 || data[0] != '[' {
		return nil, nil, errNotFloats
	}
	data = skipSpace(data[1:])
	if len(data) > 0 && data[0] == ']' {
		return []T{}, data[1:], nil
	}
	out := dst[:0]
	for {
		i := len(out)
		if i < cap(out) {
			out = out[:i+1]
		} else {
			var zero T
			out = append(out, zero)
		}
		var err error
		if out[i], data, err = elem(data, out[i]); err != nil {
			return nil, nil, err
		}
		data = skipSpace(data)
		if len(data) > 0 && data[0] == ']' {
			return out, data[1:], nil
		}
		if len(data) == 0 || data[0] != ',' {
			return nil, nil, errNotFloats
		}
		data = skipSpace(data[1:])
	}
}

// parseRow parses one number array element of a Vectors value.
func parseRow(data []byte, old []float64) ([]float64, []byte, error) {
	return parseArray(data, old, parseNumber)
}

// parseNumber parses one number element; null leaves old in place.
func parseNumber(data []byte, old float64) (float64, []byte, error) {
	if isNull(data) {
		return old, data[4:], nil
	}
	n := 0
	for n < len(data) && isNumberByte(data[n]) {
		n++
	}
	if n == 0 {
		return 0, nil, errNotFloats
	}
	v, err := strconv.ParseFloat(string(data[:n]), 64)
	return v, data[n:], err
}

func isNull(data []byte) bool { return len(data) >= 4 && string(data[:4]) == "null" }

func isNumberByte(c byte) bool {
	return c >= '0' && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E'
}

func skipSpace(data []byte) []byte {
	for len(data) > 0 && (data[0] == ' ' || data[0] == '\t' || data[0] == '\n' || data[0] == '\r') {
		data = data[1:]
	}
	return data
}

// AppendJSON appends the request's JSON encoding to dst: the bytes
// json.Marshal writes for it, without reflection. A non-finite value is
// an error, as it is for json.Marshal.
func (r EstimateRequest) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"queries":`...)
	if r.Queries == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, q := range r.Queries {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = appendFloats(dst, q); err != nil {
				return nil, err
			}
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"taus":`...)
	dst, err := appendFloats(dst, r.Taus)
	if err != nil {
		return nil, err
	}
	if r.DeadlineMs != 0 {
		dst = append(dst, `,"deadline_ms":`...)
		dst = strconv.AppendInt(dst, r.DeadlineMs, 10)
	}
	return append(dst, '}'), nil
}

// MarshalJSON implements json.Marshaler with AppendJSON. json.Marshal
// re-scans what a Marshaler returns; for a request that still costs less
// than reflection, for the short EstimateResponse it does not, so that
// type has AppendJSON alone (BenchmarkWireCodec).
func (r EstimateRequest) MarshalJSON() ([]byte, error) {
	return r.AppendJSON(make([]byte, 0, wireSize(r.Queries)))
}

// AppendJSON appends the response's JSON encoding to dst: the bytes
// json.Marshal writes for it, without reflection. A non-finite estimate is
// an error, as it is for json.Marshal.
func (r EstimateResponse) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"estimates":`...)
	dst, err := appendFloats(dst, r.Estimates)
	if err != nil {
		return nil, err
	}
	if r.Degraded {
		dst = append(dst, `,"degraded":true`...)
	}
	if r.Adapted {
		dst = append(dst, `,"adapted":true`...)
	}
	dst = append(dst, `,"generation":`...)
	dst = strconv.AppendUint(dst, r.Generation, 10)
	if r.Replica != "" {
		dst = append(dst, `,"replica":`...)
		dst = appendString(dst, r.Replica)
	}
	return append(dst, '}'), nil
}

// appendFloats appends vs as a JSON array, or null for a nil slice.
func appendFloats(dst []byte, vs []float64) ([]byte, error) {
	if vs == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = appendFloat(dst, v); err != nil {
			return nil, err
		}
	}
	return append(dst, ']'), nil
}

// appendFloat appends f in encoding/json's float64 format: the shortest
// 'f' form, or 'e' when |f| < 1e-6 or |f| >= 1e21, with a one-digit
// negative exponent written e-7 rather than e-07.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	// An integer below 2^53 is its own shortest form; -0 is not an
	// integer here, so it keeps its sign.
	if i := int64(f); float64(i) == f && i > -1<<53 && i < 1<<53 && (i != 0 || !math.Signbit(f)) {
		return strconv.AppendInt(dst, i, 10), nil
	}
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// appendString appends s as a JSON string. Replica names are plain ASCII;
// a string with any byte json.Marshal escapes (quote, backslash, control,
// <, >, &, non-ASCII) is handed to it, so the bytes stay its own.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s)
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
