package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"simquery/internal/dist"
	"simquery/internal/model"
	"simquery/internal/nn"
	"simquery/internal/serving"
	"simquery/internal/tensor"
)

// replayer replays traced requests through each layer boundary, timing one
// public call at a time into recorder spans (see span). Each client owns
// one.
//
// The span tree of a serve request, and of a model-inproc batch from
// cardest.robust down:
//
//	serving.router        the real Router.Estimate call
//	  serving.codec.encode    client: json.Marshal(EstimateRequest)
//	  serving.http            direct POST /estimate to the answering replica
//	    serving.codec.decode    replica: json.Unmarshal(EstimateRequest)
//	    cardest.robust          the replica's RobustEstimator.EstimateSearchBatchCtx
//	      model                   GlobalLocal.EstimateSearchBatchCtx
//	        model.global_route      GlobalModel.ProbsBatch
//	          dist.feature_build      query stacking, τ scaling, centroid distances
//	          nn.conv, nn.dense       each conv / dense Layer.Infer
//	        model.local_eval        the selected locals on tensor.DefaultPool
//	          model.local_eval        BasicModel.EstimateSearchBatch, per selected local
//	            dist.feature_build      … anchor distances
//	            nn.conv, nn.dense
//	    serving.codec.encode    replica: json.Marshal(EstimateResponse)
//	  serving.codec.decode    client: json.Unmarshal(EstimateResponse)
//
// The model span runs on a mirror of the served model (env.mirror), so its
// self time is the masking, grouping and merge around the routed locals.
// The per-local subtrees are scaled to fit the pooled section's wall clock
// (see recorder.fit).
// Activation, bias and pooling layers are not spanned: they count toward
// the self time of the route or local that runs them.
type replayer struct {
	rec     *recorder
	mirror  *model.GlobalLocal
	scratch *nn.Scratch

	// selected and slots count selected locals over queries × K.
	selected, slots int64
	// mismatch reports the first replayed layer chain whose output differed
	// from the public call it decomposes.
	mismatch error
}

func newReplayer(rec *recorder, mirror *model.GlobalLocal) *replayer {
	return &replayer{rec: rec, mirror: mirror, scratch: new(nn.Scratch)}
}

// serve replays a request answered by rep under the root span.
func (p *replayer) serve(e *env, root int64, rep *serving.Replica, qs [][]float64, taus []float64) error {
	ctx := context.Background()
	var (
		body, raw []byte
		err       error
	)
	p.rec.time("serving.codec.encode", root, func() {
		body, err = json.Marshal(serving.EstimateRequest{Queries: qs, Taus: taus, DeadlineMs: deadline.Milliseconds()})
	})
	if err != nil {
		return err
	}
	hs := p.rec.time("serving.http", root, func() { raw, err = post(e.hc, rep.URL()+"/estimate", body) })
	if err != nil {
		return err
	}
	var resp serving.EstimateResponse
	p.rec.time("serving.codec.decode", root, func() { err = json.Unmarshal(raw, &resp) })
	if err != nil {
		return err
	}
	var req serving.EstimateRequest
	p.rec.time("serving.codec.decode", hs, func() { err = json.Unmarshal(body, &req) })
	if err != nil {
		return err
	}
	est := rep.Reloadable().Estimator()
	var out []float64
	robust := p.rec.time("cardest.robust", hs, func() { out, err = est.EstimateSearchBatchCtx(ctx, req.Queries, req.Taus) })
	if err != nil {
		return err
	}
	p.rec.time("serving.codec.encode", hs, func() {
		_, err = json.Marshal(serving.EstimateResponse{Estimates: out, Generation: resp.Generation, Replica: resp.Replica})
	})
	if err != nil {
		return err
	}
	return p.model(robust, qs, taus)
}

// model replays the GL+ pipeline for one batch under parent.
func (p *replayer) model(parent int64, qs [][]float64, taus []float64) error {
	gl := p.mirror
	// The mirror serves nothing but replays, so its parameters are cold:
	// one untimed call brings them into cache, as steady serving keeps the
	// served copy's.
	_, err := gl.EstimateSearchBatchCtx(context.Background(), qs, taus)
	if err != nil {
		return err
	}
	m := p.rec.time("model", parent, func() { _, err = gl.EstimateSearchBatchCtx(context.Background(), qs, taus) })
	if err != nil {
		return err
	}

	var probs [][]float64
	g := gl.Global
	route := p.rec.time("model.global_route", m, func() { probs = g.ProbsBatch(qs, taus) })
	p.scratch.Reset()
	var xq, xt, xd *tensor.Matrix
	p.rec.time("dist.feature_build", route, func() {
		xq, xt = p.stack(qs), p.scaleTaus(taus, g.TauScale)
		xd = p.distances(qs, g.Centroids, g.Metric, g.TauScale)
	})
	z4, z5, z6 := p.layers(route, g.E4, xq), p.layers(route, g.E5, xt), p.layers(route, g.E6, xd)
	logits := p.layers(route, g.G, p.concat(z4, z5, z6))
	for i := range qs {
		for j := range g.Segments {
			if tensor.Sigmoid(logits.At(i, j)) != probs[i][j] {
				p.noteMismatch("global route", i, probs[i][j], tensor.Sigmoid(logits.At(i, j)))
			}
		}
	}

	groups := make([][]int, gl.Seg.K)
	for i := range qs {
		for j, on := range gl.SelectedSegments(qs[i], taus[i]) {
			if on {
				groups[j] = append(groups[j], i)
				p.selected++
			}
		}
		p.slots += int64(gl.Seg.K)
	}
	type sub struct {
		loc  *model.BasicModel
		qs   [][]float64
		taus []float64
	}
	var subs []sub
	for j, grp := range groups {
		if len(grp) == 0 {
			continue
		}
		s := sub{gl.Locals[j], make([][]float64, len(grp)), make([]float64, len(grp))}
		for k, i := range grp {
			s.qs[k], s.taus[k] = qs[i], taus[i]
		}
		subs = append(subs, s)
	}
	// The real call runs the selected locals on tensor.DefaultPool, in
	// parallel; so does this span. The per-local replays under it run one
	// at a time, and fit shrinks them to the section's wall clock when the
	// locals overlapped, so the model span's self time is the masking,
	// grouping and merge alone.
	section := p.rec.time("model.local_eval", m, func() {
		tensor.DefaultPool().Do(len(subs), func(t int) { subs[t].loc.EstimateSearchBatch(subs[t].qs, subs[t].taus) })
	})
	from := len(p.rec.spans)
	for _, s := range subs {
		p.local(section, s.loc, s.qs, s.taus)
	}
	p.rec.fit(from, section)
	return nil
}

// local replays one local model's sub-batch under parent.
func (p *replayer) local(parent int64, loc *model.BasicModel, qs [][]float64, taus []float64) {
	var out []float64
	l := p.rec.time("model.local_eval", parent, func() { out = loc.EstimateSearchBatch(qs, taus) })
	p.scratch.Reset()
	var xq, xt, xd *tensor.Matrix
	p.rec.time("dist.feature_build", l, func() {
		xq, xt = p.stack(qs), p.scaleTaus(taus, loc.TauScale)
		if loc.E3 != nil {
			xd = p.distances(qs, loc.Anchors, loc.Metric, loc.DistScale)
		}
	})
	zs := []*tensor.Matrix{p.layers(l, loc.E1, xq), p.layers(l, loc.E2, xt)}
	if loc.E3 != nil {
		zs = append(zs, p.layers(l, loc.E3, xd))
	}
	y := p.layers(l, loc.F, p.concat(zs...))
	for k := range qs {
		v := math.Exp(tensor.Clamp(y.Data[k], -30, 30))
		if loc.MaxCard > 0 && v > loc.MaxCard {
			v = loc.MaxCard
		}
		if v != out[k] {
			p.noteMismatch("local "+loc.Label, k, out[k], v)
		}
	}
}

// layers runs x through seq one layer at a time, spanning each conv and
// dense layer.
func (p *replayer) layers(parent int64, seq *nn.Sequential, x *tensor.Matrix) *tensor.Matrix {
	for _, l := range seq.Layers {
		switch l.(type) {
		case *nn.Conv1D:
			p.rec.time("nn.conv", parent, func() { x = l.Infer(x, p.scratch) })
		case *nn.Dense:
			p.rec.time("nn.dense", parent, func() { x = l.Infer(x, p.scratch) })
		default:
			x = l.Infer(x, p.scratch)
		}
	}
	return x
}

// The feature builders below restate the model's input construction (query
// rows, τ/scale, anchor distance/scale) so that it can be timed apart from
// the networks.

func (p *replayer) stack(qs [][]float64) *tensor.Matrix {
	m := p.scratch.Matrix(len(qs), len(qs[0]))
	for i, q := range qs {
		copy(m.Row(i), q)
	}
	return m
}

func (p *replayer) scaleTaus(taus []float64, scale float64) *tensor.Matrix {
	m := p.scratch.Matrix(len(taus), 1)
	for i, t := range taus {
		m.Data[i] = t / scale
	}
	return m
}

func (p *replayer) distances(qs, anchors [][]float64, metric dist.Metric, scale float64) *tensor.Matrix {
	m := p.scratch.Matrix(len(qs), len(anchors))
	for i, q := range qs {
		row := m.Row(i)
		for j, a := range anchors {
			row[j] = dist.Distance(metric, q, a) / scale
		}
	}
	return m
}

func (p *replayer) concat(ms ...*tensor.Matrix) *tensor.Matrix {
	cols := 0
	for _, m := range ms {
		cols += m.Cols
	}
	out := p.scratch.Matrix(ms[0].Rows, cols)
	for i := 0; i < out.Rows; i++ {
		row := out.Row(i)
		for _, m := range ms {
			row = row[copy(row, m.Row(i)):]
		}
	}
	return out
}

func (p *replayer) noteMismatch(where string, row int, want, got float64) {
	if p.mismatch == nil {
		p.mismatch = fmt.Errorf("replayed %s row %d gives %v, the public call %v", where, row, got, want)
	}
}
