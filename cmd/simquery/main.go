// Command simquery loads a saved estimator and compares its estimates to
// exact cardinalities on fresh queries:
//
//	simquery -model imagenet.model -profile imagenet -n 8000 -queries 10
//
// The dataset must be regenerated with the same profile/size/seed the model
// was trained on (generation is deterministic).
//
// Compound predicates are estimated through the optimizer-facing plan
// layer with -pred; q0..qN reference the run's sampled query vectors:
//
//	simquery -model m.model -pred 'sim(vec, q0, 0.1) and not sim(vec, q1, 0.2)'
//
// -describe prints the estimator's metadata (method family, supported τ
// range, model generation, serving wrappers) and exits. Thresholds outside
// the supported range are rejected with a typed error instead of silently
// extrapolating beyond the trained band.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"os"
	"text/tabwriter"
	"time"

	"simquery/cardest"
	"simquery/cardest/plan"
	"simquery/internal/metrics"
	"simquery/internal/probe"
	"simquery/internal/reqtrace"
	"simquery/internal/tensor"
)

func main() {
	var (
		modelPath = flag.String("model", "", "saved model file (required)")
		profile   = flag.String("profile", "imagenet", "dataset profile the model was trained on")
		n         = flag.Int("n", 8000, "dataset size used at training")
		clusters  = flag.Int("clusters", 40, "generator clusters used at training")
		seed      = flag.Int64("seed", 1, "dataset seed used at training")
		queries   = flag.Int("queries", 10, "number of random queries to evaluate (also the q0..qN -pred references)")
		tauFrac   = flag.Float64("tau", 0.25, "threshold as a fraction of tau_max")
		telAddr   = flag.String("telemetry", "", "serve metrics/expvar/pprof on this address (e.g. :9090); empty disables")
		workers   = flag.Int("workers", 0, "tensor pool workers (0 = SIMQUERY_WORKERS env, else GOMAXPROCS)")
		deadline  = flag.Duration("deadline", 0, "per-query estimate deadline (0 = none); enables the hardened serving path")
		maxInfl   = flag.Int("max-inflight", 0, "max concurrent estimates before shedding with an overload error (0 = unlimited)")
		cacheEnt  = flag.Int("cache-entries", 0, "estimate cache capacity in fingerprints (0 disables the cache)")
		cacheAnch = flag.Int("cache-anchors", 8, "τ anchors per cache entry (unseen thresholds interpolate between them)")
		pred      = flag.String("pred", "", "compound predicate expression (sim/and/or/not over q0..qN); estimated through the plan layer")
		describe  = flag.Bool("describe", false, "print the estimator's metadata (family, τ range, generation, wrappers) and exit")
		traceRate = flag.Int("trace-sample", 0, "flight recorder: sample 1 in N requests into /debug/traces (0 disables, 1 = every request)")
		probeFrac = flag.Float64("probe", 0, "live accuracy: probe this fraction of served estimates with background exact labeling (0 disables)")
		logJSON   = flag.Bool("log-json", false, "emit structured JSON serving logs (slog) on stderr")
		adapt     = flag.Bool("adapt", false, "enable online adaptation: estimates delta-correct for dataset mutations and probe-detected drift triggers a background retrain")
		mutRate   = flag.Float64("mutate-rate", 0, "with -adapt: probability per query of applying a random insert/delete batch to the live dataset")
	)
	flag.Parse()
	if _, err := tensor.SetPoolSize(*workers); err != nil {
		fmt.Fprintln(os.Stderr, "simquery:", err)
		os.Exit(2)
	}
	if *modelPath == "" {
		fmt.Fprintln(os.Stderr, "simquery: -model is required")
		os.Exit(2)
	}
	var tel *cardest.TelemetryServer
	if *telAddr != "" {
		ts, err := cardest.ServeTelemetry(*telAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simquery:", err)
			os.Exit(1)
		}
		defer ts.Close()
		tel = ts
		fmt.Printf("telemetry: http://%s/metrics (also /debug/vars, /debug/pprof/, /debug/traces, /healthz, /readyz)\n", ts.Addr())
	}
	if *traceRate > 0 {
		reqtrace.Enable(reqtrace.Config{SampleEvery: *traceRate})
	}
	var logger *slog.Logger
	if *logJSON {
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	opts := runOptions{
		modelPath: *modelPath, profile: *profile,
		n: *n, clusters: *clusters, seed: *seed,
		queries: *queries, tauFrac: *tauFrac,
		deadline: *deadline, maxInflight: *maxInfl,
		cacheEntries: *cacheEnt, cacheAnchors: *cacheAnch,
		pred: *pred, describe: *describe,
		probeFraction: *probeFrac,
		logger:        logger, tel: tel,
		adapt: *adapt, mutateRate: *mutRate,
	}
	if err := runWith(opts); err != nil {
		if logger != nil {
			logger.Error("run failed", "error", err.Error())
		}
		fmt.Fprintln(os.Stderr, "simquery:", err)
		os.Exit(1)
	}
}

// runOptions carries the CLI configuration into the run.
type runOptions struct {
	modelPath, profile string
	n, clusters        int
	seed               int64
	queries            int
	tauFrac            float64
	deadline           time.Duration
	maxInflight        int
	cacheEntries       int
	cacheAnchors       int
	pred               string
	describe           bool
	probeFraction      float64
	logger             *slog.Logger
	tel                *cardest.TelemetryServer
	adapt              bool
	mutateRate         float64
}

// run keeps the original positional signature for the single-τ path (the
// tests drive it); runWith is the full entry point.
func run(modelPath, profile string, n, clusters int, seed int64, queries int, tauFrac float64, deadline time.Duration, maxInflight, cacheEntries, cacheAnchors int) error {
	return runWith(runOptions{
		modelPath: modelPath, profile: profile, n: n, clusters: clusters,
		seed: seed, queries: queries, tauFrac: tauFrac, deadline: deadline,
		maxInflight: maxInflight, cacheEntries: cacheEntries, cacheAnchors: cacheAnchors,
	})
}

func runWith(o runOptions) error {
	ds, err := cardest.GenerateProfile(o.profile, o.n, o.clusters, o.seed)
	if err != nil {
		return err
	}
	est, err := cardest.Load(o.modelPath, ds)
	if err != nil {
		return err
	}
	// Serve through the fault-tolerant wrapper: panic isolation and NaN
	// guards always, deadline/admission limits as configured, and the
	// sampling baseline (rebuilt from the dataset — it is never serialized)
	// as the degraded fallback.
	fallback, err := cardest.Train(ds, nil, cardest.TrainOptions{Method: "sampling", Seed: o.seed + 300})
	if err != nil {
		return err
	}
	opts := cardest.ServeOptions{
		Deadline:    o.deadline,
		MaxInFlight: o.maxInflight,
		Fallback:    fallback,
	}
	if o.cacheEntries > 0 {
		cache, err := cardest.NewEstimateCache(o.cacheEntries, o.cacheAnchors, ds.TauMax(), 0)
		if err != nil {
			return err
		}
		opts.Cache = cache
	}

	if o.describe {
		return printDescribe(cardest.Harden(est, opts), ds)
	}

	idx, err := cardest.NewExactIndex(ds, 16, o.seed+100)
	if err != nil {
		return err
	}
	// Exact labels: the static pivot index normally; with -adapt a snapshot
	// labeler instead, because mutations reallocate and reorder the live
	// vector storage the static index reads.
	exactFn := func(q []float64, tau float64) (float64, error) {
		return float64(idx.Count(q, tau)), nil
	}
	var labeler *cardest.SnapshotLabeler
	if o.adapt {
		labeler = cardest.NewSnapshotLabeler(ds, 16, o.seed+101)
		exactFn = labeler.Label
	}
	// Live-accuracy probes: the labeler scores a sampled fraction of served
	// estimates on background workers, feeding the q-error histograms and
	// the drift gauge (with -adapt, also the retrain trigger).
	var probes *probe.Pipeline
	if every := probe.EveryFromFraction(o.probeFraction); every > 0 {
		pcfg := probe.Config{SampleEvery: every, TauMax: ds.TauMax()}
		if o.adapt {
			pcfg.Drift = probe.DriftConfig{Threshold: 0.7}
		}
		probes = probe.New(exactFn, pcfg)
		opts.Probe = probes
	}
	var (
		robust  *cardest.RobustEstimator
		rel     *cardest.Reloadable
		adapter *cardest.Adapter
	)
	if o.adapt {
		opts.Adapt = &cardest.AdaptOptions{AutoRetrain: true, Labeler: labeler}
		rel, adapter = cardest.ServeAdaptive(est, ds, opts)
		robust = rel.Estimator()
	} else {
		robust = cardest.Harden(est, opts)
	}
	// Model loaded, hardened, and labeler ready: the process can serve.
	if o.tel != nil {
		o.tel.SetReady(true)
	}
	if o.logger != nil {
		o.logger.Info("serving ready",
			"model", est.Name(), "dataset", ds.Name(), "size", ds.Size(),
			"cache", opts.Cache != nil, "probe_fraction", o.probeFraction)
	}
	rng := rand.New(rand.NewSource(o.seed + 200))
	sampled := make([][]float64, o.queries)
	sampledIdx := make([]int, o.queries)
	for i := range sampled {
		qi := rng.Intn(ds.Size())
		sampledIdx[i] = qi
		sampled[i] = ds.Vectors()[qi]
	}

	if o.pred != "" {
		probes.Close()
		return runPred(robust, ds, idx, o.pred, sampled)
	}

	tau := ds.TauMax() * o.tauFrac
	// Reject thresholds the trained model cannot answer without silently
	// extrapolating (errors.Is(err, cardest.ErrTauOutOfRange)).
	if err := cardest.CheckTau(robust, tau); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "query\ttau\testimate\texact\tq-error\n")
	var qerrs []float64
	mutRng := rand.New(rand.NewSource(o.seed + 500))
	var inserted, deleted int
	for i := 0; i < o.queries; i++ {
		qi, q := sampledIdx[i], sampled[i]
		if adapter != nil && o.mutateRate > 0 && mutRng.Float64() < o.mutateRate {
			ins, del := randomMutation(ds, mutRng)
			if res, err := adapter.Mutate(ins, del); err == nil {
				inserted += res.Inserted
				deleted += res.Deleted
			}
			// A background retrain may have swapped a new generation in;
			// serve the rest of the run from the current one.
			robust = rel.Estimator()
		}
		// Start the request trace here so the CLI owns it: the serving log
		// line and /debug/traces both see the full request, including the
		// cache path. Unsampled requests get a nil trace (no allocation);
		// every call below is nil-safe.
		ctx, tr := reqtrace.StartRequest(context.Background(), est.Name(), tau)
		got, err := robust.EstimateSearchCtx(ctx, q, tau)
		tr.SetOutcome(got, err)
		tr.Finish()
		if err != nil {
			if o.logger != nil {
				o.logger.Error("estimate failed", "query", qi, "tau", tau, "error", err.Error(), "trace", tr)
			}
			fmt.Fprintf(tw, "#%d\t%.4f\terror: %v\t\t\n", qi, tau, err)
			continue
		}
		exact, lerr := exactFn(q, tau)
		if lerr != nil {
			continue
		}
		qe := metrics.QError(got, exact)
		qerrs = append(qerrs, qe)
		if o.logger != nil {
			o.logger.Info("estimate served",
				"query", qi, "tau", tau, "estimate", got, "exact", exact,
				"qerror", qe, "trace", tr)
		}
		fmt.Fprintf(tw, "#%d\t%.4f\t%.1f\t%.0f\t%.2f\n", qi, tau, got, exact, qe)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	// Drain the probe queue before summarizing so the run's last sampled
	// estimates are labeled too, then let any drift-triggered retrain
	// finish so its counters land in the summary.
	probes.Close()
	if adapter != nil {
		adapter.WaitIdle()
	}
	if len(qerrs) == 0 {
		return fmt.Errorf("no query completed (shed or timed out)")
	}
	fmt.Printf("model: %s  summary: %s\n", est.Name(), metrics.Summarize(qerrs))
	if opts.Cache != nil {
		st := opts.Cache.Stats()
		fmt.Printf("cache: %d entries, %d hits / %d misses (hit rate %.0f%%), %d interpolated\n",
			st.Entries, st.Hits, st.Misses, 100*st.HitRate(), st.Interpolated)
	}
	if adapter != nil {
		fmt.Printf("adaptation: %d inserted, %d deleted, %d pending deltas, live size %d, %d retrains\n",
			inserted, deleted, adapter.PendingDeltas(), adapter.LiveSize(), adapter.Retrains())
	}
	if probes != nil {
		fmt.Printf("probes: %d labeled, %d dropped, drift (EWMA |log q-error|) %.3f\n",
			probes.Completed(), probes.Dropped(), probes.Drift())
		if o.logger != nil {
			o.logger.Info("probe summary",
				"completed", probes.Completed(), "dropped", probes.Dropped(),
				"drift", probes.Drift())
		}
	}
	return nil
}

// randomMutation builds one small random mutation batch: 1-3 inserts
// (jittered copies of existing vectors, so they land near real density)
// and 0-2 deletes of random live indices.
func randomMutation(ds *cardest.Dataset, rng *rand.Rand) (inserts [][]float64, deletes []int) {
	vecs := ds.Vectors()
	for k := 1 + rng.Intn(3); k > 0 && len(vecs) > 0; k-- {
		src := vecs[rng.Intn(len(vecs))]
		v := make([]float64, len(src))
		for j, x := range src {
			v[j] = x + rng.NormFloat64()*0.01
		}
		inserts = append(inserts, v)
	}
	seen := map[int]bool{}
	for k := rng.Intn(3); k > 0 && ds.Size() > 1; k-- {
		idx := rng.Intn(ds.Size())
		if !seen[idx] {
			seen[idx] = true
			deletes = append(deletes, idx)
		}
	}
	return inserts, deletes
}

// printDescribe renders the serving estimator's metadata.
func printDescribe(e cardest.Estimator, ds *cardest.Dataset) error {
	info := cardest.Describe(e)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "name\t%s\n", info.Name)
	fmt.Fprintf(tw, "family\t%s\n", info.Family)
	if math.IsInf(info.TauMax, 1) {
		fmt.Fprintf(tw, "tau range\t[%g, ∞) — any threshold, no extrapolation\n", info.TauMin)
	} else {
		fmt.Fprintf(tw, "tau range\t[%g, %g] (dataset tau_max %g)\n", info.TauMin, info.TauMax, ds.TauMax())
	}
	fmt.Fprintf(tw, "generation\t%d\n", info.Generation)
	if len(info.Wrappers) > 0 {
		fmt.Fprintf(tw, "wrappers\t%v\n", info.Wrappers)
	}
	fmt.Fprintf(tw, "batch native\t%v\n", info.BatchNative)
	fmt.Fprintf(tw, "cache served\t%v\n", info.CacheServed)
	fmt.Fprintf(tw, "size bytes\t%d\n", info.SizeBytes)
	return tw.Flush()
}

// runPred estimates one compound predicate through the plan layer and
// compares it to the exact compound count.
func runPred(robust cardest.Estimator, ds *cardest.Dataset, idx *cardest.ExactIndex, expr string, sampled [][]float64) error {
	lookup := func(name string) ([]float64, bool) {
		var i int
		if _, err := fmt.Sscanf(name, "q%d", &i); err != nil || i < 0 || i >= len(sampled) {
			return nil, false
		}
		return sampled[i], true
	}
	pred, err := plan.Parse(expr, lookup)
	if err != nil {
		return err
	}
	p, err := cardest.PlanFor(ds, robust)
	if err != nil {
		return err
	}
	if err := p.PreCheck(pred); err != nil {
		if errors.Is(err, plan.ErrTauOutOfRange) {
			return fmt.Errorf("%w (see -describe for the supported range)", err)
		}
		return err
	}
	est, err := p.EstimateFor(pred)
	if err != nil {
		return err
	}
	exact, err := plan.ExactCount(ds.Size(), pred, func(_ string, q []float64, tau float64) ([]int, error) {
		return idx.Search(q, tau), nil
	})
	if err != nil {
		return err
	}
	names := make(map[*float64]string, len(sampled))
	for i, q := range sampled {
		if len(q) > 0 {
			names[&q[0]] = fmt.Sprintf("q%d", i)
		}
	}
	rendered := pred.Format(func(q []float64) string {
		if len(q) == 0 {
			return ""
		}
		return names[&q[0]]
	})
	fmt.Printf("predicate: %s\n", rendered)
	fmt.Printf("estimate: %.1f  exact: %d  q-error: %.2f\n",
		est, exact, plan.QError(est, exact))
	return nil
}
