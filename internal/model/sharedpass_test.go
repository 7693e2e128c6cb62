package model

import (
	"context"
	"fmt"
	"math"
	"testing"

	"simquery/internal/dataset"
	"simquery/internal/dist"
	"simquery/internal/nn"
	"simquery/internal/telemetry"
	"simquery/internal/workload"
)

// passFixture is one small trained GL model with a held-out query batch.
type passFixture struct {
	gl   *GlobalLocal
	qs   [][]float64
	taus []float64
}

// newPassFixture trains a small model of variant v on a dataset under
// metric m. Accuracy is irrelevant here; the models only need non-trivial
// weights and routing. Cosine has no generator profile, so it reuses the
// unit-norm GloVe vectors under the cosine metric.
func newPassFixture(t *testing.T, m dist.Metric, v Variant) passFixture {
	t.Helper()
	profile := map[dist.Metric]dataset.Profile{
		dist.L2: dataset.YouTube, dist.Hamming: dataset.ImageNET,
		dist.Angular: dataset.GloVe300, dist.Cosine: dataset.GloVe300,
	}[m]
	ds, err := dataset.Generate(profile, dataset.Config{N: 500, Clusters: 6, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	if m == dist.Cosine {
		ds.Metric, ds.TauMax = dist.Cosine, 1.2
	}
	w, err := workload.BuildSearch(ds, workload.SearchConfig{TrainPoints: 30, TestPoints: 4, ThresholdsPerPoint: 4, Seed: 62})
	if err != nil {
		t.Fatal(err)
	}
	cfg := GLConfig{Variant: v, Segments: 5, QuerySegments: 8, Seed: 63}
	if v == GLPlus {
		// Tuned per-local stacks exercise the padded and strided conv
		// lowerings next to the default one.
		cfg.PerLocalConv = [][]ConvConfig{
			{{Channels: 4, Kernel: 3, Stride: 1, Padding: 1, PoolSize: 2, Pool: nn.MaxPool}},
			{{Channels: 6, Kernel: 2, Stride: 2, Padding: 0, PoolSize: 1, Pool: nn.SumPool}},
		}
	}
	gl, err := NewGlobalLocal(fmt.Sprintf("%v/%v", v, m), ds.Vectors, ds.Metric, ds.TauMax, cfg)
	if err != nil {
		t.Fatal(err)
	}
	workload.AttachSegmentLabels(ds, gl.Seg, w.Train, 0)
	samples := make([]SegSample, len(w.Train))
	for i, q := range w.Train {
		samples[i] = SegSample{Q: q.Vec, Tau: q.Tau, SegCards: q.SegCards}
	}
	tcfg := DefaultTrainConfig(64)
	tcfg.Epochs = 3
	gcfg := DefaultGlobalTrainConfig(65)
	gcfg.Epochs = 3
	if err := gl.Train(samples, tcfg, gcfg); err != nil {
		t.Fatal(err)
	}
	f := passFixture{gl: gl}
	for _, q := range w.Test {
		f.qs = append(f.qs, q.Vec)
		f.taus = append(f.taus, q.Tau)
	}
	return f
}

// chainMasks is the standalone routing chain: the public ProbsBatch, then
// the mask rule with every triangle-bound distance computed on its own.
func chainMasks(gl *GlobalLocal, qs [][]float64, taus []float64) [][]bool {
	var probs [][]float64
	if gl.Global != nil {
		probs = gl.Global.ProbsBatch(qs, taus)
	}
	masks := make([][]bool, len(qs))
	for i, q := range qs {
		masks[i] = make([]bool, gl.Seg.K)
		var p []float64
		if probs != nil {
			p = probs[i]
		}
		gl.maskInto(masks[i], q, taus[i], p, nil)
	}
	return masks
}

// chainSearch estimates through the standalone public calls: chainMasks,
// then each selected local's EstimateSearchBatch on its routed sub-batch,
// summed in ascending segment order.
func chainSearch(gl *GlobalLocal, qs [][]float64, taus []float64) []float64 {
	masks := chainMasks(gl, qs, taus)
	out := make([]float64, len(qs))
	for j, local := range gl.Locals {
		var g []int
		for i := range qs {
			if masks[i][j] {
				g = append(g, i)
			}
		}
		if len(g) == 0 {
			continue
		}
		gqs, gts := subBatch(qs, taus, g)
		for k, v := range local.EstimateSearchBatch(gqs, gts) {
			out[g[k]] += v
		}
	}
	return out
}

// chainJoin is the standalone pooled join: chainMasks, then each local's
// EstimateJoinPooled over the queries routed to it.
func chainJoin(gl *GlobalLocal, qs [][]float64, tau float64) float64 {
	taus := make([]float64, len(qs))
	for i := range taus {
		taus[i] = tau
	}
	masks := chainMasks(gl, qs, taus)
	var total float64
	for j, local := range gl.Locals {
		var routed [][]float64
		for i, q := range qs {
			if masks[i][j] {
				routed = append(routed, q)
			}
		}
		if len(routed) > 0 {
			total += local.EstimateJoinPooled(routed, tau)
		}
	}
	return total
}

// checkAgainstChain asserts every serving path of gl answers bitwise what
// the standalone chain answers.
func checkAgainstChain(t *testing.T, gl *GlobalLocal, qs [][]float64, taus []float64) {
	t.Helper()
	ctx := context.Background()
	want := chainSearch(gl, qs, taus)
	wantMasks := chainMasks(gl, qs, taus)
	same := func(path string, i int, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s query %d: %v, standalone chain %v", path, i, got, want)
		}
	}
	for i, q := range qs {
		same("EstimateSearch", i, gl.EstimateSearch(q, taus[i]), want[i])
		v, err := gl.EstimateSearchCtx(ctx, q, taus[i])
		if err != nil {
			t.Fatal(err)
		}
		same("EstimateSearchCtx", i, v, want[i])
		for j, on := range gl.SelectedSegments(q, taus[i]) {
			if on != wantMasks[i][j] {
				t.Fatalf("SelectedSegments query %d segment %d: %v, chain %v", i, j, on, wantMasks[i][j])
			}
		}
	}
	for i, v := range gl.EstimateSearchBatch(qs, taus) {
		same("EstimateSearchBatch", i, v, want[i])
	}
	batch, err := gl.EstimateSearchBatchCtx(ctx, qs, taus)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range batch {
		same("EstimateSearchBatchCtx", i, v, want[i])
	}
	for _, tau := range []float64{taus[0], taus[len(taus)-1]} {
		wantJoin := chainJoin(gl, qs, tau)
		same("EstimateJoin", 0, gl.EstimateJoin(qs, tau), wantJoin)
		v, err := gl.EstimateJoinCtx(ctx, qs, tau)
		if err != nil {
			t.Fatal(err)
		}
		same("EstimateJoinCtx", 0, v, wantJoin)
	}
}

// TestSharedDistancePassMatchesChain is the differential test of the
// shared centroid-distance pass: for each metric and model variant, every
// serial, Ctx, batch and join answer equals the standalone chain of public
// calls (which computes each model's distances on its own) bit for bit,
// before and after a Save/Load round trip.
func TestSharedDistancePassMatchesChain(t *testing.T) {
	for _, m := range []dist.Metric{dist.L2, dist.Hamming, dist.Angular, dist.Cosine} {
		for _, v := range []Variant{GLPlus, GLMLP, LocalPlus} {
			t.Run(fmt.Sprintf("%v/%v", m, v), func(t *testing.T) {
				f := newPassFixture(t, m, v)
				if f.gl.sharedPass != (v != LocalPlus) {
					t.Fatalf("sharedPass = %v for %v", f.gl.sharedPass, v)
				}
				checkAgainstChain(t, f.gl, f.qs, f.taus)

				b, err := f.gl.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				loaded := &GlobalLocal{}
				if err := loaded.UnmarshalBinary(b); err != nil {
					t.Fatal(err)
				}
				if loaded.sharedPass != f.gl.sharedPass {
					t.Fatalf("loaded sharedPass = %v, trained %v", loaded.sharedPass, f.gl.sharedPass)
				}
				checkAgainstChain(t, loaded, f.qs, f.taus)
				for i, q := range f.qs {
					if got, want := loaded.EstimateSearch(q, f.taus[i]), f.gl.EstimateSearch(q, f.taus[i]); got != want {
						t.Fatalf("query %d: loaded %v, trained %v", i, got, want)
					}
				}
			})
		}
	}
}

// TestLoadSharesCentroidTable checks the load path: a checkpoint decodes
// K+2 centroid tables, and the loaded model keeps the one Seg.Centroids
// table when all copies agree, but falls back to per-model distances
// (and answers as the standalone chain does) when one copy differs.
func TestLoadSharesCentroidTable(t *testing.T) {
	gl := trainedGL(t, GLCNN)
	qs, taus := testBatch(t)
	load := func(m *GlobalLocal) *GlobalLocal {
		b, err := m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		out := &GlobalLocal{}
		if err := out.UnmarshalBinary(b); err != nil {
			t.Fatal(err)
		}
		return out
	}
	loaded := load(gl)
	if !loaded.sharedPass {
		t.Fatal("loaded GL-CNN does not share its centroid pass")
	}
	table := &loaded.Seg.Centroids[0]
	if &loaded.Global.Centroids[0] != table {
		t.Fatal("loaded global model keeps its own centroid table")
	}
	for j, l := range loaded.Locals {
		if &l.Anchors[0] != table {
			t.Fatalf("loaded local %d keeps its own anchor table", j)
		}
	}

	// Perturb one local's anchors: the reloaded model must notice and have
	// that local compute distances to its own anchors.
	tampered := load(gl)
	anchors := make([][]float64, len(tampered.Seg.Centroids))
	for i, c := range tampered.Seg.Centroids {
		anchors[i] = append([]float64(nil), c...)
	}
	anchors[1][0] += 0.5
	tampered.Locals[2].Anchors = anchors
	tampered = load(tampered)
	if tampered.sharedPass {
		t.Fatal("model with a differing anchor table still shares the centroid pass")
	}
	if tampered.Locals[2].Anchors[1][0] == tampered.Seg.Centroids[1][0] {
		t.Fatal("differing anchor table was replaced by the centroids")
	}
	checkAgainstChain(t, tampered, qs, taus)
}

// TestEstimateAllocPins pins the steady-state allocation counts of the
// GL serving paths to the counts before the shared distance pass existed:
// the pass's rows must live in the scratch arena, not in fresh slices.
func TestEstimateAllocPins(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime bypasses sync.Pool; allocation counts are not meaningful")
	}
	telemetry.SetDefault(nil)
	gl := trainedGL(t, GLCNN)
	all, allTaus := testBatch(t)
	qs, taus := all[:16], allTaus[:16]
	q, tau := qs[0], taus[0]
	ctx := context.Background()
	pins := []struct {
		name   string
		budget float64
		run    func()
	}{
		{"EstimateSearch", 2, func() { gl.EstimateSearch(q, tau) }},
		{"EstimateSearchCtx", 4, func() { _, _ = gl.EstimateSearchCtx(ctx, q, tau) }},
		{"EstimateSearchBatchCtx/16", 27, func() { _, _ = gl.EstimateSearchBatchCtx(ctx, qs, taus) }},
	}
	for _, p := range pins {
		p.run() // warm the scratch pools
		if got := testing.AllocsPerRun(200, p.run); got > p.budget {
			t.Errorf("%s: %g allocs/op, budget %g", p.name, got, p.budget)
		}
	}
}
