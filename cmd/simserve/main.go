// Command simserve runs the replicated serving tier: N HTTP/JSON
// batch-estimate replicas over one saved model, each with its own hardened
// serving stack (admission gate, deadline, estimate cache, sampling
// fallback) and a zero-downtime reload endpoint.
//
//	simserve -model imagenet.model -profile imagenet -n 8000 -replicas 3
//
// Each replica prints its base URL on startup; clients dispatch through
// internal/serving.Router (cmd/simload drives exactly that). Endpoints per
// replica:
//
//	POST /estimate  {"queries": [[...]], "taus": [...]}  → estimates
//	GET  /healthz   liveness
//	GET  /readyz    readiness
//	POST /reload    {"path": "new.model"} → atomic generation swap
//	POST /mutate    {"inserts": [[...]], "deletes": [...]} → live dataset
//	                mutation (-adapt only; estimates are delta-corrected
//	                immediately, drift triggers a background retrain)
//
// A reload loads the checkpoint off the hot path, re-hardens it against the
// replica's existing cache (generation stamps invalidate stale entries for
// free), and swaps it in behind an atomic pointer: in-flight requests finish
// on the generation they pinned, new requests see only the new model.
//
// The dataset must be regenerated with the same profile/size/seed the model
// was trained on (generation is deterministic).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"simquery/cardest"
	"simquery/internal/probe"
	"simquery/internal/serving"
	"simquery/internal/tensor"
)

func main() {
	var (
		modelPath = flag.String("model", "", "saved model file (required)")
		profile   = flag.String("profile", "imagenet", "dataset profile the model was trained on")
		n         = flag.Int("n", 8000, "dataset size used at training")
		clusters  = flag.Int("clusters", 40, "generator clusters used at training")
		seed      = flag.Int64("seed", 1, "dataset seed used at training")
		replicas  = flag.Int("replicas", 3, "replica count (one HTTP server each)")
		addr      = flag.String("addr", "127.0.0.1:0", "bind address; port 0 picks ephemeral ports, a fixed port binds port+i per replica")
		deadline  = flag.Duration("deadline", time.Second, "default per-request deadline when the request carries no deadline_ms")
		maxInfl   = flag.Int("max-inflight", 64, "per-replica concurrent estimates before shedding 429 (0 = unlimited)")
		retryAft  = flag.Duration("retry-after", 50*time.Millisecond, "backoff window advertised on 429 responses")
		cacheEnt  = flag.Int("cache-entries", 4096, "per-replica estimate cache capacity in fingerprints (0 disables)")
		cacheAnch = flag.Int("cache-anchors", 8, "τ anchors per cache entry")
		adapt     = flag.Bool("adapt", false, "enable online adaptation: each replica gets its own dataset copy, a POST /mutate endpoint, live drift probes, and drift-triggered background retrains")
		probeFr   = flag.Float64("probe", 0.05, "with -adapt: probe this fraction of served estimates with background exact labeling")
		driftThr  = flag.Float64("drift-threshold", 0.7, "with -adapt: EWMA |log q-error| level that triggers a background retrain (0.7 ≈ sustained 2× median q-error)")
		telAddr   = flag.String("telemetry", "", "serve metrics/expvar/pprof on this address (e.g. :9090); empty disables")
		workers   = flag.Int("workers", 0, "tensor pool workers (0 = SIMQUERY_WORKERS env, else GOMAXPROCS)")
	)
	flag.Parse()
	if *modelPath == "" {
		fmt.Fprintln(os.Stderr, "simserve: -model is required")
		os.Exit(2)
	}
	if _, err := tensor.SetPoolSize(*workers); err != nil {
		fmt.Fprintln(os.Stderr, "simserve:", err)
		os.Exit(2)
	}
	if *telAddr != "" {
		ts, err := cardest.ServeTelemetry(*telAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simserve:", err)
			os.Exit(1)
		}
		defer ts.Close()
		fmt.Printf("telemetry: http://%s/metrics\n", ts.Addr())
	}

	cluster, err := startCluster(clusterOptions{
		modelPath: *modelPath, profile: *profile,
		n: *n, clusters: *clusters, seed: *seed,
		replicas: *replicas, addr: *addr,
		deadline: *deadline, maxInflight: *maxInfl, retryAfter: *retryAft,
		cacheEntries: *cacheEnt, cacheAnchors: *cacheAnch,
		adapt: *adapt, probeFraction: *probeFr, driftThreshold: *driftThr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "simserve:", err)
		os.Exit(1)
	}
	defer cluster.Close()
	for _, rep := range cluster.Replicas {
		fmt.Printf("replica %s: %s\n", rep.Name(), rep.URL())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("simserve: shutting down")
}

// clusterOptions carries the CLI configuration into startCluster.
type clusterOptions struct {
	modelPath, profile string
	n, clusters        int
	seed               int64
	replicas           int
	addr               string
	deadline           time.Duration
	maxInflight        int
	retryAfter         time.Duration
	cacheEntries       int
	cacheAnchors       int
	adapt              bool
	probeFraction      float64
	driftThreshold     float64
}

// Cluster is a running replica set (tests drive it directly; main blocks on
// signals around it).
type Cluster struct {
	Replicas []*serving.Replica
	ds       *cardest.Dataset
	probes   []*probe.Pipeline
}

// URLs returns the replicas' base URLs in order.
func (c *Cluster) URLs() []string {
	out := make([]string, len(c.Replicas))
	for i, r := range c.Replicas {
		out[i] = r.URL()
	}
	return out
}

// Close shuts every replica down and drains the probe pipelines.
func (c *Cluster) Close() {
	for _, r := range c.Replicas {
		if a := r.Adapter(); a != nil {
			a.WaitIdle()
		}
		_ = r.Close()
	}
	for _, p := range c.probes {
		p.Close()
	}
}

// startCluster regenerates the training dataset, loads the checkpoint, and
// boots o.replicas replicas — each with its own hardened stack over the same
// loaded model (the model itself is read-only and safe to share; gates,
// caches, and fallbacks are per-replica).
func startCluster(o clusterOptions) (*Cluster, error) {
	if o.replicas <= 0 {
		return nil, fmt.Errorf("simserve: replica count must be positive, got %d", o.replicas)
	}
	ds, err := cardest.GenerateProfile(o.profile, o.n, o.clusters, o.seed)
	if err != nil {
		return nil, err
	}
	primary, err := cardest.Load(o.modelPath, ds)
	if err != nil {
		return nil, err
	}
	// The sampling fallback is rebuilt from the dataset — it is never
	// serialized — and shared across replicas (read-only after training).
	fallback, err := cardest.Train(ds, nil, cardest.TrainOptions{Method: "sampling", Seed: o.seed + 300})
	if err != nil {
		return nil, err
	}

	c := &Cluster{ds: ds}
	for i := 0; i < o.replicas; i++ {
		// With -adapt each replica serves its own dataset copy and model
		// instance: mutations and delta counters are per-replica state, so
		// replicas must not share them. Generation is deterministic, so the
		// copies start identical.
		rds, rprimary := ds, primary
		if o.adapt {
			if rds, err = cardest.GenerateProfile(o.profile, o.n, o.clusters, o.seed); err != nil {
				c.Close()
				return nil, err
			}
			if rprimary, err = cardest.Load(o.modelPath, rds); err != nil {
				c.Close()
				return nil, err
			}
		}
		opts := cardest.ServeOptions{
			Deadline:    o.deadline,
			MaxInFlight: o.maxInflight,
			Fallback:    fallback,
		}
		if o.cacheEntries > 0 {
			cache, err := cardest.NewEstimateCache(o.cacheEntries, o.cacheAnchors, rds.TauMax(), 0)
			if err != nil {
				c.Close()
				return nil, err
			}
			opts.Cache = cache
		}
		var labeler *cardest.SnapshotLabeler
		if o.adapt {
			labeler = cardest.NewSnapshotLabeler(rds, 16, o.seed+400+int64(i))
			if every := probe.EveryFromFraction(o.probeFraction); every > 0 {
				probes := probe.New(labeler.Label, probe.Config{
					SampleEvery: every,
					TauMax:      rds.TauMax(),
					Drift:       probe.DriftConfig{Threshold: o.driftThreshold},
				})
				opts.Probe = probes
				c.probes = append(c.probes, probes)
			}
			opts.Adapt = &cardest.AdaptOptions{AutoRetrain: true, Labeler: labeler}
		}
		// The reload loader re-hardens against this replica's existing
		// cache: Load bumps the model generation, and the hardened path
		// stamps the cache per lookup, so old entries become misses without
		// an explicit flush.
		loader := func(path string) (*cardest.RobustEstimator, error) {
			next, err := cardest.Load(path, rds)
			if err != nil {
				return nil, err
			}
			return cardest.Harden(next, opts), nil
		}
		rep := serving.NewReplica(cardest.Harden(rprimary, opts), serving.ReplicaConfig{
			Name:            fmt.Sprintf("r%d", i),
			DefaultDeadline: o.deadline,
			RetryAfter:      o.retryAfter,
			Loader:          loader,
		})
		if o.adapt {
			adapter := cardest.NewAdapter(rds, rep.Reloadable(), opts)
			rep.AttachAdapter(adapter)
			if opts.Probe != nil {
				opts.Probe.SetOnDrift(adapter.HandleDrift)
			}
		}
		if err := rep.Start(replicaAddr(o.addr, i)); err != nil {
			c.Close()
			return nil, err
		}
		c.Replicas = append(c.Replicas, rep)
	}
	return c, nil
}

// replicaAddr derives replica i's bind address: ephemeral ports stay
// ephemeral; a fixed port fans out to port+i.
func replicaAddr(base string, i int) string {
	host, port, found := strings.Cut(base, ":")
	if !found || port == "0" || port == "" {
		return base
	}
	var p int
	if _, err := fmt.Sscanf(port, "%d", &p); err != nil {
		return base
	}
	return fmt.Sprintf("%s:%d", host, p+i)
}
