package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"simquery/cardest"
	"simquery/internal/model"
	"simquery/internal/reqtrace"
	"simquery/internal/serving"
)

const (
	clients     = 2  // closed-loop client goroutines, one per core of the reference host
	checkEvery  = 16 // every 16th request is compared bit for bit with the in-process estimate
	checkPerReq = 4  // model-inproc: batch entries compared per checked batch
	traceEvery  = 50 // traced phase: every 50th request is replayed layer by layer
	// serve-mutate: every 10th operation is a mutation batch, the share of
	// the repository's `simquery -adapt -mutate-rate 0.1` runbook.
	mutateEvery = 10
	joinSize    = 200
)

// tally is one client's (or a merged phase's) outcome counts and samples.
type tally struct {
	lat       []float64 // request latencies, µs
	mutLat    []float64 // serve-mutate: POST /mutate fan-out latencies, µs
	refMutLat []float64 // serve-mutate: in-process Adapter.Mutate latencies, µs
	attempted int64
	failed    int64
	degraded  int64
	estimates int64
	checked   int64 // answers compared bit for bit with a reference
	firstErr  error
	spans     []span
	selected  int64
	slots     int64
}

// fail counts one failed operation and keeps the first reason.
func (t *tally) fail(format string, args ...any) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = fmt.Errorf(format, args...)
	}
}

func (t *tally) merge(o tally) {
	t.lat = append(t.lat, o.lat...)
	t.mutLat = append(t.mutLat, o.mutLat...)
	t.refMutLat = append(t.refMutLat, o.refMutLat...)
	t.attempted += o.attempted
	t.failed += o.failed
	t.degraded += o.degraded
	t.estimates += o.estimates
	t.checked += o.checked
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
	t.spans = append(t.spans, o.spans...)
	t.selected += o.selected
	t.slots += o.slots
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// checkRange counts every answer that is not finite or not within
// [0, hi] as a failure.
func (t *tally) checkRange(what string, ests []float64, hi float64) {
	for _, v := range ests {
		if math.IsNaN(v) || v < 0 || v > hi {
			t.fail("%s: estimate %v outside [0, %v]", what, v, hi)
		}
	}
}

// checkSame counts a failure unless got equals want bit for bit.
func (t *tally) checkSame(what string, got, want []float64) {
	t.checked++
	if len(got) != len(want) {
		t.fail("%s: %d answers, reference has %d", what, len(got), len(want))
		return
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.fail("%s: answer %d is %v, the in-process estimate %v", what, i, got[i], want[i])
			return
		}
	}
}

// traceWindow is the length of the alternating untraced and traced windows
// of a traced phase. Interleaving them exposes both to the same host noise,
// so their latency difference is the tracing overhead.
const traceWindow = 200 * time.Millisecond

// mainPhase runs the workload's closed-loop clients for dur and returns
// their tally. With a mirror it is the traced phase: time alternates
// between untraced and traced windows, every traceEvery-th request of a
// traced window is replayed layer by layer (see replayer), and requests of
// traced windows are tallied apart, in traced.
func (e *env) mainPhase(seed int64, round int, dur time.Duration, mirror *model.GlobalLocal) (untraced, traced tally) {
	origin := time.Now()
	until := origin.Add(dur)
	hot := hotOrder(seed, len(e.pool))
	var ops atomic.Int64
	res := make([][2]tally, clients)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &client{e: e, origin: origin, until: until, ops: &ops}
			if mirror != nil {
				cl.rp = newReplayer(newRecorder(origin, c), mirror)
			}
			if e.w.serve {
				cl.serve(newZipfStream(seed, round*clients+c, hot))
			} else {
				cl.batch(newBatchStream(seed, round*clients+c, len(e.pool)))
			}
			if rp := cl.rp; rp != nil {
				cl.t[1].spans, cl.t[1].selected, cl.t[1].slots = rp.rec.spans, rp.selected, rp.slots
				if rp.mismatch != nil {
					cl.t[1].fail("trace replay: %v", rp.mismatch)
				}
			}
			res[c] = cl.t
		}()
	}
	wg.Wait()
	for _, r := range res {
		untraced.merge(r[0])
		traced.merge(r[1])
	}
	return untraced, traced
}

// client is one closed-loop client goroutine of a main phase.
type client struct {
	e             *env
	origin, until time.Time
	ops           *atomic.Int64 // serve-mutate: operations across clients
	rp            *replayer     // nil outside a traced phase
	t             [2]tally      // untraced, traced windows
}

// sample records one answered request.
func (cl *client) sample(t *tally, start, end time.Time, estimates int) {
	t.lat = append(t.lat, us(end.Sub(start)))
	t.estimates += int64(estimates)
}

// window returns the tally for a request starting now, and whether the
// request falls in a traced window.
func (cl *client) window() (*tally, bool) {
	if cl.rp == nil || time.Since(cl.origin)/traceWindow%2 == 0 {
		return &cl.t[0], false
	}
	return &cl.t[1], true
}

// serve sends single-query requests through the router until the
// deadline; on serve-mutate every mutateEvery-th operation (counted across
// clients) is a mutation batch instead.
func (cl *client) serve(zs *zipfStream) {
	e := cl.e
	ctx := context.Background()
	for n := int64(0); time.Now().Before(cl.until); n++ {
		t, inTrace := cl.window()
		if e.w.mutate && cl.ops.Add(1)%mutateEvery == 0 {
			e.mutateTier(t)
			continue
		}
		q := e.pool[zs.Next()]
		qs, taus := [][]float64{q.Vec}, []float64{q.Tau}
		check := n%checkEvery == 0
		if check {
			e.mu.RLock()
		}
		t.attempted++
		start := time.Now()
		res, err := e.router.Estimate(ctx, qs, taus)
		end := time.Now()
		if err != nil {
			t.fail("estimate: %v", err)
		} else {
			cl.sample(t, start, end, len(res.Estimates))
			t.checkRange("serve", res.Estimates, float64(e.liveMax.Load()))
			if res.Degraded {
				// A fallback answered: a replica failed or shed, which a
				// healthy run never does.
				t.degraded++
				t.fail("serve: degraded answer from replica %q", res.Replica)
			} else if check {
				want, err := e.inproc().EstimateSearchBatchCtx(ctx, qs, taus)
				if err != nil {
					t.fail("reference estimate: %v", err)
				}
				t.checkSame("serve", res.Estimates, want)
			}
		}
		if check {
			e.mu.RUnlock()
		}
		if inTrace && err == nil && n%traceEvery == 0 {
			if rep := e.replica(res.Replica); rep != nil {
				cl.rp.rec.begin(n)
				root := cl.rp.rec.add("serving.router", -1, start, end)
				if err := cl.rp.serve(e, root, rep, qs, taus); err != nil {
					t.fail("trace replay: %v", err)
				}
			}
		}
	}
}

// mutateTier sends one generated mutation batch to every replica, then
// applies it to the in-process reference. The write lock keeps checked
// requests from seeing replicas and reference in different states.
func (e *env) mutateTier(t *tally) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ins, dels := e.mut.Next(e.live)
	next := e.live + len(ins) - len(dels)
	e.live = next
	// Raise the range bound before any replica can answer for the new rows;
	// it never falls, as a request may still answer for the old rows.
	if int64(next) > e.liveMax.Load() {
		e.liveMax.Store(int64(next))
	}
	body, err := json.Marshal(serving.MutateRequest{Inserts: ins, Deletes: dels})
	if err != nil {
		t.fail("encode mutation: %v", err)
		return
	}
	t.attempted++
	start := time.Now()
	for _, rep := range e.replicas {
		raw, err := post(e.hc, rep.URL()+"/mutate", body)
		var mr serving.MutateResponse
		if err == nil {
			err = json.Unmarshal(raw, &mr)
		}
		if err != nil {
			t.fail("mutate %s: %v", rep.Name(), err)
			return
		}
		if mr.LiveSize != next {
			t.fail("mutate %s: live size %d, want %d", rep.Name(), mr.LiveSize, next)
		}
	}
	t.mutLat = append(t.mutLat, us(time.Since(start)))
	start = time.Now()
	res, err := e.adapter.Mutate(ins, dels)
	t.refMutLat = append(t.refMutLat, us(time.Since(start)))
	if err != nil {
		t.fail("in-process mutate: %v", err)
		return
	}
	if res.LiveSize != next {
		t.fail("in-process mutate: live size %d, want %d", res.LiveSize, next)
	}
	if e.batches++; e.batches == qerrorAfter {
		if e.snap, err = e.snapshot(); err != nil {
			t.fail("q-error snapshot: %v", err)
		}
	}
}

// batch sends batches of distinct queries straight to the in-process
// hardened estimator until the deadline.
func (cl *client) batch(bs *batchStream) {
	e := cl.e
	est := e.inproc()
	qs, taus := make([][]float64, e.w.batch), make([]float64, e.w.batch)
	for n := int64(0); time.Now().Before(cl.until); n++ {
		t, inTrace := cl.window()
		for k, i := range bs.Next(e.w.batch) {
			qs[k], taus[k] = e.pool[i].Vec, e.pool[i].Tau
		}
		// A detached trace observes the degraded flag, as the replicas do.
		tr := reqtrace.NewDetached(est.Name(), taus[0])
		ctx := reqtrace.NewContext(context.Background(), tr)
		t.attempted++
		start := time.Now()
		out, err := est.EstimateSearchBatchCtx(ctx, qs, taus)
		end := time.Now()
		if err != nil {
			t.fail("estimate: %v", err)
			continue
		}
		cl.sample(t, start, end, len(out))
		t.checkRange("batch", out, float64(e.live))
		if tr.Flags()&reqtrace.FlagDegraded != 0 {
			// The fallback answered: the model failed or was shed, which a
			// healthy run never sees.
			t.degraded++
			t.fail("batch: degraded answer")
		} else if n%checkEvery == 0 {
			want := make([]float64, checkPerReq)
			for k := range want {
				if want[k], err = est.EstimateSearchCtx(context.Background(), qs[k], taus[k]); err != nil {
					t.fail("serial estimate: %v", err)
				}
			}
			t.checkSame("batch vs serial", out[:checkPerReq], want)
		}
		if inTrace && n%traceEvery == 0 {
			cl.rp.rec.begin(n)
			root := cl.rp.rec.add("cardest.robust", -1, start, end)
			if err := cl.rp.model(root, qs, taus); err != nil {
				t.fail("trace replay: %v", err)
			}
		}
	}
}

// serialPhase times single-query estimates of the in-process estimator.
func (e *env) serialPhase(seed int64, round int, dur time.Duration) tally {
	var t tally
	rng := rand.New(rand.NewSource(clientSeed(seed^0x73657269, round)))
	est := e.inproc()
	ctx := context.Background()
	for until := time.Now().Add(dur); time.Now().Before(until); {
		q := e.pool[rng.Intn(len(e.pool))]
		t.attempted++
		start := time.Now()
		v, err := est.EstimateSearchCtx(ctx, q.Vec, q.Tau)
		d := time.Since(start)
		if err != nil {
			t.fail("serial estimate: %v", err)
			continue
		}
		t.lat = append(t.lat, us(d))
		t.checkRange("serial", []float64{v}, float64(e.live))
	}
	return t
}

// joinPhase times join estimates of joinSize-query sets drawn from the
// pool, each at the threshold of a random pool query.
func (e *env) joinPhase(seed int64, round int, dur time.Duration) tally {
	var t tally
	rng := rand.New(rand.NewSource(clientSeed(seed^0x6a6f696e, round)))
	est := e.inproc()
	ctx := context.Background()
	qs := make([][]float64, joinSize)
	for until := time.Now().Add(dur); time.Now().Before(until); {
		for i := range qs {
			qs[i] = e.pool[rng.Intn(len(e.pool))].Vec
		}
		tau := e.pool[rng.Intn(len(e.pool))].Tau
		t.attempted++
		start := time.Now()
		v, err := est.EstimateJoinCtx(ctx, qs, tau)
		d := time.Since(start)
		if err != nil {
			t.fail("join estimate: %v", err)
			continue
		}
		t.lat = append(t.lat, us(d))
		t.checkRange("join", []float64{v}, float64(joinSize*e.live))
	}
	return t
}

// qerrorAfter is the mutation batch after which serve-mutate scores its
// q-error: a fixed point of the seeded mutation stream, so the figure does
// not depend on how many batches a run's speed lets through.
const qerrorAfter = 50

// snapshot is the in-process estimator's answers for the whole pool and
// the live rows they answer for.
type snapshot struct {
	ests []float64
	vecs [][]float64
}

// snapshot takes one; on serve-mutate the caller holds e.mu, so the
// answers equal every replica's (the checked requests prove it bit for
// bit).
func (e *env) snapshot() (*snapshot, error) {
	vecs, taus := make([][]float64, len(e.pool)), make([]float64, len(e.pool))
	for i, q := range e.pool {
		vecs[i], taus[i] = q.Vec, q.Tau
	}
	ests, err := e.inproc().EstimateSearchBatchCtx(context.Background(), vecs, taus)
	if err != nil {
		return nil, err
	}
	return &snapshot{ests: ests, vecs: e.ds.VectorsCopy()}, nil
}

// qerrors returns the q-errors of the whole pool against exact labels.
// The static workloads estimate every pool query once through their own
// path and score it against the labels from setup. serve-mutate scores its
// snapshot at qerrorAfter batches (or, in a run too short to reach it, at
// the end) against brute-force labels of the rows live at that point.
func (e *env) qerrors() ([]float64, error) {
	if e.w.mutate {
		snap := e.snap
		if snap == nil {
			var err error
			if snap, err = e.snapshot(); err != nil {
				return nil, err
			}
		}
		live, err := cardest.NewDataset("live", snap.vecs, strings.ToLower(e.ds.Metric()), e.ds.TauMax())
		if err != nil {
			return nil, err
		}
		vecs, taus := make([][]float64, len(e.pool)), make([]float64, len(e.pool))
		for i, q := range e.pool {
			vecs[i], taus[i] = q.Vec, q.Tau
		}
		labels, err := cardest.LabelQueries(live, vecs, taus)
		if err != nil {
			return nil, err
		}
		out := make([]float64, len(labels))
		for i, l := range labels {
			out[i] = cardest.QError(snap.ests[i], l.Card)
		}
		return out, nil
	}
	out := make([]float64, 0, len(e.pool))
	ctx := context.Background()
	for i := 0; i < len(e.pool); i += e.w.batch {
		qs, taus := []([]float64){}, []float64{}
		for _, q := range e.pool[i:min(i+e.w.batch, len(e.pool))] {
			qs, taus = append(qs, q.Vec), append(taus, q.Tau)
		}
		var ests []float64
		if e.w.serve {
			res, err := e.router.Estimate(ctx, qs, taus)
			if err != nil {
				return nil, err
			}
			ests = res.Estimates
		} else {
			var err error
			if ests, err = e.inproc().EstimateSearchBatchCtx(ctx, qs, taus); err != nil {
				return nil, err
			}
		}
		for k, v := range ests {
			out = append(out, cardest.QError(v, e.pool[i+k].Card))
		}
	}
	return out, nil
}
