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
	"net/http"
	"strconv"
	"time"

	"simquery/cardest"
)

// Wire format of POST /estimate. One request carries a batch; replicas
// answer all queries or fail the request as a unit (the router re-dispatches
// whole requests, so partial answers never need merging across replicas).
type (
	// EstimateRequest is the JSON request body.
	EstimateRequest struct {
		// Queries are the query vectors; Taus the per-query thresholds
		// (len(Taus) must equal len(Queries)).
		Queries [][]float64 `json:"queries"`
		Taus    []float64   `json:"taus"`
		// DeadlineMs bounds serving time replica-side (0 = the replica's
		// configured default). The router also enforces its own deadline by
		// context, so a stalled replica cannot hold the client past budget.
		DeadlineMs int64 `json:"deadline_ms,omitempty"`
	}

	// EstimateResponse is the JSON response body of a 200 answer. Degraded
	// answers (fallback-tier estimates after a primary fault) are still 200:
	// availability is the contract, Degraded is the honesty bit.
	EstimateResponse struct {
		Estimates []float64 `json:"estimates"`
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
