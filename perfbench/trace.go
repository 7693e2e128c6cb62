package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call at a layer boundary. Spans of one traced request
// share Req; Parent is the ID of the caller's span (-1 for the request's
// root). Start and End are nanoseconds since the run began.
//
// A traced request's root span is the real request; its descendants are
// replays of the same (q, τ) through each layer's public entry point, made
// one call at a time right after it. Because a replayed child is timed
// apart from its parent, a layer's self time is its span's duration minus
// the summed durations of its children, clamped at zero.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Req    int64  `json:"req"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps one client's spans in memory. Not safe for concurrent
// use: each client goroutine owns one.
type recorder struct {
	origin time.Time
	base   int64 // ID prefix that keeps span and request IDs unique per client
	spans  []span
	req    int64
}

// newRecorder builds client c's recorder.
func newRecorder(origin time.Time, c int) *recorder {
	return &recorder{origin: origin, base: int64(c) << 40}
}

// begin opens request n of this client: subsequent spans belong to it.
func (r *recorder) begin(n int64) { r.req = r.base + n }

// add records a finished call [start, end) under parent and returns its ID.
func (r *recorder) add(name string, parent int64, start, end time.Time) int64 {
	id := r.base + int64(len(r.spans))
	r.spans = append(r.spans, span{
		Name: name, ID: id, Req: r.req, Parent: parent,
		Start: start.Sub(r.origin).Nanoseconds(), End: end.Sub(r.origin).Nanoseconds(),
	})
	return id
}

// time runs f as a span under parent and returns the span's ID.
func (r *recorder) time(name string, parent int64, f func()) int64 {
	start := time.Now()
	f()
	return r.add(name, parent, start, time.Now())
}

// fit makes the spans recorded from index from on, the subtree of parent
// replayed one call at a time, fit in parent: when the durations of
// parent's children add up to more than its own, every span of the subtree
// is scaled by the same factor so that they add up to it (to the
// nanosecond). This is
// for a parent whose real calls overlapped (GL+ runs its locals in
// parallel): its wall clock is shared out in proportion to the serial
// costs, and no layer's self time is lost to clamping. The subtree is also
// moved to start where parent starts.
func (r *recorder) fit(from int, parent int64) {
	sub := r.spans[from:]
	if len(sub) == 0 {
		return
	}
	par := r.spans[parent-r.base]
	var children int64
	for _, s := range sub {
		if s.Parent == parent {
			children += s.End - s.Start
		}
	}
	f := 1.0
	if d := par.End - par.Start; children > d {
		f = float64(d) / float64(children)
	}
	s0 := sub[0].Start
	for i := range sub {
		sub[i].Start = par.Start + int64(float64(sub[i].Start-s0)*f)
		sub[i].End = par.Start + int64(float64(sub[i].End-s0)*f)
	}
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus its children's, never below zero.
func selfTimes(spans []span) []int64 {
	at := make(map[int64]int, len(spans))
	for i, s := range spans {
		at[s.ID] = i
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if p, ok := at[s.Parent]; ok {
			self[p] -= s.End - s.Start
		}
	}
	for i := range self {
		self[i] = max(self[i], 0)
	}
	return self
}

// layerSelfMedians groups spans by request, sums each request's self time
// per span name, and returns the median across requests per name in
// microseconds. A request without a span of some name counts as zero for
// it, so a layer that only some requests reach is not overstated.
func layerSelfMedians(spans []span) (medians map[string]float64, requests int) {
	self := selfTimes(spans)
	perReq := map[int64]map[string]float64{}
	names := map[string]bool{}
	for i, s := range spans {
		m := perReq[s.Req]
		if m == nil {
			m = map[string]float64{}
			perReq[s.Req] = m
		}
		m[s.Name] += float64(self[i]) / 1e3
		names[s.Name] = true
	}
	medians = map[string]float64{}
	for name := range names {
		xs := make([]float64, 0, len(perReq))
		for _, m := range perReq {
			xs = append(xs, m[name])
		}
		medians[name] = median(xs)
	}
	return medians, len(perReq)
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
