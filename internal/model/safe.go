package model

import (
	"context"
	"fmt"

	"simquery/internal/faultinject"
	"simquery/internal/faulttol"
	"simquery/internal/nn"
	"simquery/internal/reqtrace"
	"simquery/internal/telemetry"
	"simquery/internal/tensor"
)

// This file is the hardened serving surface of GlobalLocal: the Ctx
// variants of the estimate paths add cooperative cancellation (the request
// context is checked between local-model evaluations and between pooled
// sub-batches) and per-local-model panic isolation (a crashing segment
// model yields a *SegmentError identifying the segment instead of taking
// the process down). The plain EstimateSearch/EstimateSearchBatch methods
// are untouched — they remain the allocation-minimal hot path — so the
// fault-tolerance machinery costs the no-fault case nothing it wasn't
// already paying.

// SegmentError reports a failure confined to one local model. Unwrap
// exposes the underlying cause (usually a *faulttol.PanicError).
type SegmentError struct {
	Seg int
	Err error
}

// Error implements error.
func (e *SegmentError) Error() string {
	return fmt.Sprintf("model: local model %d failed: %v", e.Seg, e.Err)
}

// Unwrap implements errors.Unwrap.
func (e *SegmentError) Unwrap() error { return e.Err }

// routeSafe is selectionMasks with panic isolation around the distance pass
// and the global model's forward pass.
func (gl *GlobalLocal) routeSafe(s *nn.Scratch, qs [][]float64, taus []float64) (masks [][]bool, xc *tensor.Matrix, err error) {
	defer func() {
		if r := recover(); r != nil {
			masks, xc, err = nil, nil, fmt.Errorf("model: global routing failed: %w", faulttol.Recovered(r))
		}
	}()
	masks, xc = gl.selectionMasks(s, qs, taus)
	return masks, xc, nil
}

// localSearchSafe evaluates local model i on one query, converting a panic
// into a *SegmentError.
func (gl *GlobalLocal) localSearchSafe(i int, q []float64, tau float64, xc sharedDists) (v float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			v, err = 0, &SegmentError{Seg: i, Err: faulttol.Recovered(r)}
		}
	}()
	if faultinject.Armed() {
		faultinject.LocalEval.Fire()
	}
	return gl.Locals[i].search(q, tau, xc), nil
}

// localSearchBatchSafe evaluates local model i on its sub-batch, converting
// a panic into a *SegmentError.
func (gl *GlobalLocal) localSearchBatchSafe(i int, qs [][]float64, taus []float64, xc sharedDists) (out []float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, &SegmentError{Seg: i, Err: faulttol.Recovered(r)}
		}
	}()
	if faultinject.Armed() {
		faultinject.LocalEval.Fire()
	}
	return gl.Locals[i].searchBatch(qs, taus, xc), nil
}

// EstimateSearchCtx is EstimateSearch with per-request cancellation and
// per-local-model panic isolation: the context is checked before routing
// and between local evaluations, and a panicking segment model returns a
// *SegmentError instead of crashing. Successful results are bitwise
// identical to EstimateSearch.
func (gl *GlobalLocal) EstimateSearchCtx(ctx context.Context, q []float64, tau float64) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	s := takeScratch()
	defer putScratch(s)
	tr := reqtrace.FromContext(ctx)
	sp := telemetry.StartStage(telemetry.StageGlobalRoute)
	st := tr.StartStage(reqtrace.StageGlobalRoute)
	masks, xc, err := gl.routeSafe(s, [][]float64{q}, []float64{tau})
	st.End()
	sp.End()
	if err != nil {
		return 0, err
	}
	sel := masks[0]
	gl.observeSelectivity(sel)
	sp = telemetry.StartStage(telemetry.StageLocalEval)
	defer sp.End()
	st = tr.StartStage(reqtrace.StageLocalEval)
	defer st.End()
	var total float64
	for i, on := range sel {
		if !on {
			continue
		}
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		v, err := gl.localSearchSafe(i, q, tau, sharedDists{d: xc})
		if err != nil {
			return 0, err
		}
		total += gl.deltaAdjust(i, v)
	}
	return total, nil
}

// EstimateSearchBatchCtx is EstimateSearchBatch with per-request
// cancellation and per-local-model panic isolation. The context is checked
// before each local model's pooled sub-batch; a cancelled request stops
// scheduling work (sub-batches already running finish). A panicking local
// model fails only its own sub-batch — the other segments' evaluations
// complete on the shared tensor pool — and the batch returns a
// *SegmentError naming the first failed segment. Successful results are
// bitwise identical to EstimateSearch per query.
func (gl *GlobalLocal) EstimateSearchBatchCtx(ctx context.Context, qs [][]float64, taus []float64) ([]float64, error) {
	if len(qs) != len(taus) {
		return nil, fmt.Errorf("model: batch size mismatch: %d queries, %d thresholds", len(qs), len(taus))
	}
	out := make([]float64, len(qs))
	if len(qs) == 0 {
		return out, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := takeScratch()
	defer putScratch(s)
	tr := reqtrace.FromContext(ctx)
	sp := telemetry.StartStage(telemetry.StageGlobalRoute)
	st := tr.StartStage(reqtrace.StageGlobalRoute)
	masks, xc, err := gl.routeSafe(s, qs, taus)
	st.End()
	sp.End()
	if err != nil {
		return nil, err
	}
	for _, m := range masks {
		gl.observeSelectivity(m)
	}
	sp = telemetry.StartStage(telemetry.StageLocalEval)
	st = tr.StartStage(reqtrace.StageLocalEval)
	groups := make([][]int, gl.Seg.K)
	for i := range qs {
		for j, on := range masks[i] {
			if on {
				groups[j] = append(groups[j], i)
			}
		}
	}
	ests := make([][]float64, gl.Seg.K)
	errs := make([]error, gl.Seg.K)
	idxs := make([]int, 0, gl.Seg.K)
	for j := range groups {
		if len(groups[j]) > 0 {
			idxs = append(idxs, j)
		}
	}
	tensor.DefaultPool().DoCtx(ctx, len(idxs), func(t int) {
		j := idxs[t]
		if ctx.Err() != nil {
			return // cancelled: skip remaining sub-batches
		}
		gqs, gts := subBatch(qs, taus, groups[j])
		ests[j], errs[j] = gl.localSearchBatchSafe(j, gqs, gts, sharedDists{xc, groups[j]})
	})
	st.End()
	sp.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Deterministic reduction: ascending segment order per query.
	sp = telemetry.StartStage(telemetry.StageMerge)
	st = tr.StartStage(reqtrace.StageMerge)
	for j, g := range groups {
		for k, i := range g {
			out[i] += gl.deltaAdjust(j, ests[j][k])
		}
	}
	st.End()
	sp.End()
	return out, nil
}

// EstimateJoinCtx is EstimateJoin with per-request cancellation and
// per-local-model panic isolation; the context is checked between local
// models' pooled evaluations.
func (gl *GlobalLocal) EstimateJoinCtx(ctx context.Context, qs [][]float64, tau float64) (float64, error) {
	if len(qs) == 0 {
		return 0, nil
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	taus := make([]float64, len(qs))
	for i := range taus {
		taus[i] = tau
	}
	s := takeScratch()
	defer putScratch(s)
	tr := reqtrace.FromContext(ctx)
	sp := telemetry.StartStage(telemetry.StageGlobalRoute)
	st := tr.StartStage(reqtrace.StageGlobalRoute)
	masks, xc, err := gl.routeSafe(s, qs, taus)
	st.End()
	sp.End()
	if err != nil {
		return 0, err
	}
	for _, m := range masks {
		gl.observeSelectivity(m)
	}
	sp = telemetry.StartStage(telemetry.StageLocalEval)
	defer sp.End()
	st = tr.StartStage(reqtrace.StageLocalEval)
	defer st.End()
	var total float64
	var r joinRoute
	for j := range gl.Locals {
		if !r.gather(qs, masks, j) {
			continue
		}
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		v, err := gl.localJoinSafe(j, r.qs, tau, sharedDists{xc, r.rows})
		if err != nil {
			return 0, err
		}
		total += gl.deltaAdjustJoin(j, v, len(r.qs))
	}
	return total, nil
}

// localJoinSafe evaluates local model j's pooled join estimate, converting
// a panic into a *SegmentError.
func (gl *GlobalLocal) localJoinSafe(j int, routed [][]float64, tau float64, xc sharedDists) (v float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			v, err = 0, &SegmentError{Seg: j, Err: faulttol.Recovered(r)}
		}
	}()
	if faultinject.Armed() {
		faultinject.LocalEval.Fire()
	}
	return gl.Locals[j].joinPooled(routed, tau, xc), nil
}
