package serving

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"simquery/cardest"
)

func TestValidateRejectsMalformedBatches(t *testing.T) {
	cases := []struct {
		name string
		req  EstimateRequest
	}{
		{"empty batch", EstimateRequest{}},
		{"len mismatch", EstimateRequest{Queries: [][]float64{{1}}, Taus: []float64{0.1, 0.2}}},
		{"empty query", EstimateRequest{Queries: [][]float64{{}}, Taus: []float64{0.1}}},
	}
	for _, tc := range cases {
		if err := tc.req.Validate(); err == nil {
			t.Errorf("%s: Validate accepted", tc.name)
		}
	}
	good := EstimateRequest{Queries: [][]float64{{1, 2}}, Taus: []float64{0.1}}
	if err := good.Validate(); err != nil {
		t.Errorf("well-formed request rejected: %v", err)
	}
}

// TestWriteErrorContract pins the HTTP mapping documented in DESIGN.md §15:
// overload is 429 with both Retry-After headers, a spent deadline is 504,
// and everything else is 500. Degraded answers never reach WriteError.
func TestWriteErrorContract(t *testing.T) {
	cases := []struct {
		name       string
		err        error
		status     int
		retryAfter bool
	}{
		{"overload", cardest.ErrOverloaded, http.StatusTooManyRequests, true},
		{"wrapped overload", errors.Join(errors.New("ctx"), cardest.ErrOverloaded), http.StatusTooManyRequests, true},
		{"invalid input", fmt.Errorf("%w: query 0 has dim 3, want 4", cardest.ErrInvalidInput), http.StatusBadRequest, false},
		{"deadline", context.DeadlineExceeded, http.StatusGatewayTimeout, false},
		{"canceled", context.Canceled, http.StatusGatewayTimeout, false},
		{"internal", errors.New("boom"), http.StatusInternalServerError, false},
	}
	for _, tc := range cases {
		w := httptest.NewRecorder()
		WriteError(w, tc.err, 1500*time.Millisecond)
		if w.Code != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, w.Code, tc.status)
		}
		if got := w.Header().Get("Content-Type"); got != "application/json" {
			t.Errorf("%s: Content-Type %q", tc.name, got)
		}
		if tc.retryAfter {
			if got := w.Header().Get(RetryAfterHeader); got != "2" {
				t.Errorf("%s: Retry-After %q, want %q (rounded seconds)", tc.name, got, "2")
			}
			if got := w.Header().Get(RetryAfterMsHeader); got != "1500" {
				t.Errorf("%s: %s %q, want 1500", tc.name, RetryAfterMsHeader, got)
			}
		} else if got := w.Header().Get(RetryAfterHeader); got != "" {
			t.Errorf("%s: unexpected Retry-After %q", tc.name, got)
		}
	}
}

func TestRetryAfterOfPrefersMilliseconds(t *testing.T) {
	h := http.Header{}
	h.Set(RetryAfterHeader, "2")
	h.Set(RetryAfterMsHeader, "75")
	if got := retryAfterOf(h); got != 75*time.Millisecond {
		t.Fatalf("retryAfterOf = %v, want 75ms (ms header preferred)", got)
	}
	h.Del(RetryAfterMsHeader)
	if got := retryAfterOf(h); got != 2*time.Second {
		t.Fatalf("retryAfterOf = %v, want 2s (seconds fallback)", got)
	}
	h.Del(RetryAfterHeader)
	if got := retryAfterOf(h); got != 0 {
		t.Fatalf("retryAfterOf = %v, want 0 (no headers)", got)
	}
	h.Set(RetryAfterMsHeader, "garbage")
	if got := retryAfterOf(h); got != 0 {
		t.Fatalf("retryAfterOf = %v, want 0 (unparseable)", got)
	}
}
