// Command simload drives the serving tier with an open-loop (fixed
// arrival-rate) workload and reports the latency distribution and
// degradation counters as JSON — the serving benchmark behind
// `make bench-serving`.
//
// Two modes:
//
//	simload -replicas http://127.0.0.1:8451,http://127.0.0.1:8452 -rate 200
//	simload -spawn 3 -rate 500 -duration 5s -kill-after 2s
//
// -replicas attaches to running simserve replicas. -spawn is self-contained:
// it trains a small sampling model in-process, boots N replicas, and drives
// them — no checkpoint needed, so CI can exercise the full dispatch ladder
// (retry, hedge, shed, fallback) hermetically. -kill-after crashes one
// spawned replica mid-run; the run must still complete with zero client
// errors — that is the availability contract under test.
//
// The generator is open-loop: arrivals are scheduled on the wall clock, so
// a saturated tier accumulates queue delay instead of silently throttling
// the offered load, and percentiles are measured from scheduled arrival
// (coordinated omission stays visible).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"simquery/cardest"
	"simquery/internal/hostinfo"
	"simquery/internal/serving"
)

func main() {
	var (
		replicaList = flag.String("replicas", "", "comma-separated replica base URLs to attach to")
		spawn       = flag.Int("spawn", 0, "self-contained mode: train a sampling model and boot this many replicas in-process")
		profile     = flag.String("profile", "imagenet", "dataset profile for queries (and the spawned model)")
		n           = flag.Int("n", 2000, "dataset size")
		clusters    = flag.Int("clusters", 10, "generator clusters")
		seed        = flag.Int64("seed", 1, "dataset and jitter seed")
		rate        = flag.Float64("rate", 200, "offered load in requests per second (open loop)")
		duration    = flag.Duration("duration", 10*time.Second, "load duration")
		batch       = flag.Int("batch", 1, "queries per request")
		poolSize    = flag.Int("queries", 64, "distinct query vectors in the pool")
		tauFrac     = flag.Float64("tau", 0.25, "threshold as a fraction of tau_max")
		deadline    = flag.Duration("deadline", time.Second, "per-request deadline across retries and hedges")
		hedgeFloor  = flag.Duration("hedge-floor", 20*time.Millisecond, "hedge delay floor (p99-derived once warm)")
		noHedge     = flag.Bool("disable-hedge", false, "turn hedged dispatch off")
		killAfter   = flag.Duration("kill-after", 0, "spawn mode: crash one replica this long into the run (0 = never)")
		outPath     = flag.String("out", "BENCH_serving.json", "output JSON path")
	)
	flag.Parse()
	rep, err := runLoad(loadOptions{
		replicaURLs: splitList(*replicaList), spawn: *spawn,
		profile: *profile, n: *n, clusters: *clusters, seed: *seed,
		rate: *rate, duration: *duration, batch: *batch, poolSize: *poolSize,
		tauFrac: *tauFrac, deadline: *deadline,
		hedgeFloor: *hedgeFloor, disableHedge: *noHedge,
		killAfter: *killAfter, outPath: *outPath,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "simload:", err)
		os.Exit(1)
	}
	fmt.Printf("simload: %d sent, %d completed, %d errors | p50 %.2fms p99 %.2fms p99.9 %.2fms | shed %d degraded %d retried %d hedged %d → %s\n",
		rep.Sent, rep.Completed, rep.Errors,
		rep.P50Ms, rep.P99Ms, rep.P999Ms,
		rep.Router.Shed, rep.Degraded, rep.Retried, rep.Hedged, *outPath)
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// loadOptions carries the CLI configuration into runLoad.
type loadOptions struct {
	replicaURLs  []string
	spawn        int
	profile      string
	n, clusters  int
	seed         int64
	rate         float64
	duration     time.Duration
	batch        int
	poolSize     int
	tauFrac      float64
	deadline     time.Duration
	hedgeFloor   time.Duration
	disableHedge bool
	killAfter    time.Duration
	outPath      string
}

// report is the BENCH_serving.json schema.
type report struct {
	Host       hostinfo.Host `json:"host"`
	GoVersion  string        `json:"go_version"`
	GOMAXPROCS int           `json:"gomaxprocs"`

	Profile      string  `json:"profile"`
	Replicas     int     `json:"replicas"`
	RatePerSec   float64 `json:"rate_per_sec"`
	DurationSec  float64 `json:"duration_sec"`
	Batch        int     `json:"batch"`
	KilledAfterS float64 `json:"killed_after_sec,omitempty"`

	Sent      int64 `json:"sent"`
	Completed int64 `json:"completed"`
	Errors    int64 `json:"errors"`
	Drops     int64 `json:"drops"`
	Degraded  int64 `json:"degraded"`
	Fallback  int64 `json:"fallback"`
	Retried   int64 `json:"retried"`
	Hedged    int64 `json:"hedged"`

	P50Ms        float64 `json:"p50_ms"`
	P99Ms        float64 `json:"p99_ms"`
	P999Ms       float64 `json:"p99_9_ms"`
	MaxMs        float64 `json:"max_ms"`
	AchievedRate float64 `json:"achieved_rate_per_sec"`
	ElapsedSec   float64 `json:"elapsed_sec"`

	Router serving.RouterStats `json:"router"`
}

// runLoad builds (or attaches to) the replica set, drives the open-loop
// generator through a Router, and writes the report.
func runLoad(o loadOptions) (*report, error) {
	if o.spawn > 0 && len(o.replicaURLs) > 0 {
		return nil, fmt.Errorf("simload: -spawn and -replicas are mutually exclusive")
	}
	if o.spawn <= 0 && len(o.replicaURLs) == 0 {
		return nil, fmt.Errorf("simload: need -replicas URLs or -spawn N")
	}
	ds, err := cardest.GenerateProfile(o.profile, o.n, o.clusters, o.seed)
	if err != nil {
		return nil, err
	}
	// The local fallback tier: the paper's cheap sampling baseline, always
	// available even under total replica loss.
	fallback, err := cardest.Train(ds, nil, cardest.TrainOptions{Method: "sampling", Seed: o.seed + 300})
	if err != nil {
		return nil, err
	}

	urls := o.replicaURLs
	var spawned []*serving.Replica
	if o.spawn > 0 {
		for i := 0; i < o.spawn; i++ {
			est, err := cardest.Train(ds, nil, cardest.TrainOptions{Method: "sampling", Seed: o.seed + int64(i)})
			if err != nil {
				return nil, err
			}
			rep := serving.NewReplica(cardest.Harden(est, cardest.ServeOptions{
				Deadline:    o.deadline,
				MaxInFlight: 256,
				Fallback:    fallback,
			}), serving.ReplicaConfig{Name: fmt.Sprintf("r%d", i)})
			if err := rep.Start("127.0.0.1:0"); err != nil {
				return nil, err
			}
			defer rep.Close()
			spawned = append(spawned, rep)
			urls = append(urls, rep.URL())
		}
	}

	router, err := serving.NewRouter(urls, serving.RouterOptions{
		Deadline:     o.deadline,
		HedgeFloor:   o.hedgeFloor,
		DisableHedge: o.disableHedge,
		Fallback:     fallback,
		Seed:         o.seed,
	})
	if err != nil {
		return nil, err
	}
	defer router.Close()

	queries, taus := queryPool(ds, o.poolSize, o.tauFrac, o.seed)

	if o.killAfter > 0 && len(spawned) > 0 {
		victim := spawned[len(spawned)-1]
		timer := time.AfterFunc(o.killAfter, func() {
			fmt.Fprintf(os.Stderr, "simload: killing replica %s %v into the run\n", victim.Name(), o.killAfter)
			victim.Kill()
		})
		defer timer.Stop()
	}

	res, err := serving.RunLoad(context.Background(), router.Estimate, queries, taus, serving.LoadConfig{
		Rate: o.rate, Duration: o.duration, Batch: o.batch,
	})
	if err != nil {
		return nil, err
	}

	rep := &report{
		Host:       hostinfo.Read(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),

		Profile:     o.profile,
		Replicas:    len(urls),
		RatePerSec:  o.rate,
		DurationSec: o.duration.Seconds(),
		Batch:       max(o.batch, 1),

		Sent: res.Sent, Completed: res.Completed, Errors: res.Errors, Drops: res.Drops,
		Degraded: res.Degraded, Fallback: res.Fallback, Retried: res.Retried, Hedged: res.Hedged,

		P50Ms:        ms(res.P50),
		P99Ms:        ms(res.P99),
		P999Ms:       ms(res.P999),
		MaxMs:        ms(res.Max),
		AchievedRate: res.AchievedRate,
		ElapsedSec:   res.Elapsed.Seconds(),
		Router:       router.Stats(),
	}
	if o.killAfter > 0 && len(spawned) > 0 {
		rep.KilledAfterS = o.killAfter.Seconds()
	}
	if o.outPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(o.outPath, append(data, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// queryPool samples poolSize dataset vectors as queries with τ =
// tauFrac·tauMax each — repeated and near-repeated queries, the production
// traffic shape the estimate cache and shard affinity are built for.
func queryPool(ds *cardest.Dataset, poolSize int, tauFrac float64, seed int64) ([][]float64, []float64) {
	if poolSize <= 0 {
		poolSize = 64
	}
	rng := rand.New(rand.NewSource(seed + 17))
	vecs := ds.Vectors()
	tau := tauFrac * ds.TauMax()
	queries := make([][]float64, poolSize)
	taus := make([]float64, poolSize)
	for i := range queries {
		queries[i] = vecs[rng.Intn(len(vecs))]
		taus[i] = tau
	}
	return queries, taus
}

// ms converts a duration to float milliseconds for the report.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
