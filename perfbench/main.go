// Command perfbench is the repository's benchmark: it serves the paper's
// GL+ estimator in three workloads and prints every end-to-end metric, or
// with --trace 1 every per-layer metric, checking each answer as it goes.
//
//	bash perfbench/run.sh --workload serve-zipf --seed 1 --seconds 10 --trace 0
//
// run.sh builds this package from the checkout and runs it from the
// checkout's root. The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the line before it is the
// full record (host, sample counts, first failure), which is also written
// under .bench_build/perfbench/. A failed output check exits 1 after
// printing; a set-up error exits 2 without a result. README.md describes
// the workloads, the metrics and the layer each metric belongs to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"simquery/internal/estcache"
	"simquery/internal/serving"
)

// outDir holds checkpoints, records and span files, inside the checkout.
const outDir = ".bench_build/perfbench"

// setupRuns is how many times a --trace 0 run sets up; setup_s is the
// median.
const setupRuns = 3

// roundLen is the length of one round of a --trace 0 run's phases.
const roundLen = 2.0 // seconds

// roundPct is the percentile of a timing's per-round values that a
// --trace 0 run reports. The reference host's vCPUs run up to 1.6× faster
// for stretches of a second or more while other tenants idle, and the
// share of such rounds varies from run to run (1 to 9 of 15 in ten
// serve-zipf runs). Their median then moves by up to a fifth between runs;
// the upper decile reads the common, contended speed and still skips the
// slowest round.
const roundPct = 90

// watchdog bounds a run; a hung run exits 3 without a result.
const watchdog = 170 * time.Second

type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_us", "us"},
	{"qerror_p50", "ratio"},
	{"serial_p50_us", "us"},
	{"join_p50_us", "us"},
	{"heap_mb", "MiB"},
}

var perLayer = []metricDef{
	{"client.throughput_qps", "1/s"},
	{"client.latency_p95_us", "us"},
	{"client.latency_p99_us", "us"},
	{"nn.conv_us", "us"},
	{"nn.dense_us", "us"},
	{"dist.feature_build_us", "us"},
	{"model.global_route_us", "us"},
	{"model.local_eval_us", "us"},
	{"model.merge_us", "us"},
	{"model.locals_per_query", "ratio"},
	{"cardest.robust.self_us", "us"},
	{"serving.codec.encode_us", "us"},
	{"serving.codec.decode_us", "us"},
	{"serving.http.self_us", "us"},
	{"serving.router.self_us", "us"},
	{"serving.retries", "count"},
	{"serving.hedges", "count"},
	{"serving.shed", "count"},
	{"serving.degraded_rate", "ratio"},
	{"estcache.hit_ratio", "ratio"},
	{"estcache.fills", "count"},
	{"serving.mutate_us", "us"},
	{"cardest.mutate_us", "us"},
	{"model.pending_deltas", "count"},
	{"go.allocs_per_query", "count"},
	{"go.gc_pause_ms", "ms"},
	{"trace.untraced_latency_p50_us", "us"},
	{"trace.traced_latency_p50_us", "us"},
	{"trace.self_sum_us", "us"},
	{"trace.requests", "count"},
}

// spanMetric names the per-layer metric a span's self time feeds.
var spanMetric = map[string]string{
	"serving.router":       "serving.router.self_us",
	"serving.http":         "serving.http.self_us",
	"serving.codec.encode": "serving.codec.encode_us",
	"serving.codec.decode": "serving.codec.decode_us",
	"cardest.robust":       "cardest.robust.self_us",
	"model":                "model.merge_us",
	"model.global_route":   "model.global_route_us",
	"model.local_eval":     "model.local_eval_us",
	"dist.feature_build":   "dist.feature_build_us",
	"nn.conv":              "nn.conv_us",
	"nn.dense":             "nn.dense_us",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full account of one run.
type record struct {
	Workload     string               `json:"workload"`
	Seed         int64                `json:"seed"`
	Seconds      float64              `json:"seconds"`
	Trace        int                  `json:"trace"`
	Host         hostInfo             `json:"host"`
	SetupSeconds []float64            `json:"setup_seconds"`
	Samples      map[string]int       `json:"samples"`
	TailPct      float64              `json:"client_tail_percentile,omitempty"`
	FirstFailure string               `json:"first_failure,omitempty"`
	Rounds       map[string][]float64 `json:"rounds,omitempty"`
	// SelfSumRatio is a traced run's trace.self_sum_us over
	// trace.untraced_latency_p50_us; ROADMAP 2b asks for 1 ± 0.1.
	SelfSumRatio float64 `json:"trace_self_sum_ratio,omitempty"`
	Result       result  `json:"result"`
}

type hostInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
}

// host describes the machine and build the run measured on.
func host() hostInfo {
	h := hostInfo{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), GitSHA: "unknown"}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.GitSHA = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty && h.GitSHA != "unknown" {
			h.GitSHA += "-dirty"
		}
	}
	return h
}

func main() {
	name := flag.String("workload", "", "workload: serve-zipf, model-inproc or serve-mutate")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || (*trace != 0 && *trace != 1) || !(*seconds > 0) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload serve-zipf|model-inproc|serve-mutate --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", watchdog)
		os.Exit(3)
	})
	rec, err := run(*w, *seed, *seconds, *trace == 1, outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("%-30s %16.4f %s\n", d.name, rec.Result.Metrics[d.name].Value, d.unit)
	}
	if *trace == 1 {
		fmt.Printf("%-30s %16.4f (record only, no bound)\n", "trace.self_sum_ratio", rec.SelfSumRatio)
	}
	if rec.FirstFailure != "" {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", rec.FirstFailure)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	path := filepath.Join(outDir, fmt.Sprintf("record-%s-seed%d-trace%d.json", w.name, *seed, *trace))
	if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	last, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(last))
	if !rec.Result.Correct {
		os.Exit(1)
	}
}

// run sets the workload up, measures it for the given seconds, and returns
// its record. Errors are set-up failures; failed output checks are counted
// in the record instead.
func run(w workload, seed int64, seconds float64, traced bool, out string) (*record, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	rec := &record{Workload: w.name, Seed: seed, Seconds: seconds, Host: host(), Samples: map[string]int{}}
	setups := setupRuns
	if traced {
		rec.Trace, setups = 1, 1
	}
	var e *env
	for range setups {
		if e != nil {
			e.close()
		}
		start := time.Now()
		if e, err = setup(w, dir); err != nil {
			return nil, err
		}
		rec.SetupSeconds = append(rec.SetupSeconds, time.Since(start).Seconds())
	}
	defer e.close()
	if w.mutate {
		e.mut = newMutGen(seed, e.base)
	}

	var (
		m   map[string]float64
		all tally
	)
	if traced {
		m, all, err = e.measureTraced(rec, seconds, out)
	} else {
		m, all, err = e.measure(rec, seconds)
	}
	if err != nil {
		return nil, err
	}

	res := result{Attempted: all.attempted, Metrics: map[string]metric{}}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		v := m[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			all.fail("metric %s has no valid samples", d.name)
			v = 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if all.checked == 0 {
		all.fail("no answer was compared with the in-process estimate")
	}
	res.Failed = all.failed
	res.Correct = all.failed == 0 && res.Attempted > 0
	if all.firstErr != nil {
		rec.FirstFailure = all.firstErr.Error()
	}
	rec.Result = res
	return rec, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// routerStats snapshots the router's counters (zero without a router).
func (e *env) routerStats() serving.RouterStats {
	if e.router == nil {
		return serving.RouterStats{}
	}
	return e.router.Stats()
}

// cacheStats sums the replicas' estimate-cache counters.
func (e *env) cacheStats() estcache.Stats {
	var s estcache.Stats
	for _, r := range e.replicas {
		if c := r.Reloadable().Estimator().Cache(); c != nil {
			cs := c.Stats()
			s.Hits += cs.Hits
			s.Misses += cs.Misses
		}
	}
	return s
}

// phaseLen is the given share of a run of the given seconds.
func phaseLen(seconds, share float64) time.Duration {
	return time.Duration(share * seconds * float64(time.Second))
}

// measure is a --trace 0 run: the end-to-end metrics. The measured phases
// run in rounds, main → serial → join, so that every phase samples the
// whole run's host conditions, and each timing is the upper decile of its
// per-round values (see roundPct).
func (e *env) measure(rec *record, seconds float64) (map[string]float64, tally, error) {
	m := map[string]float64{}
	var all tally
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)
	m["setup_s"] = median(append([]float64(nil), rec.SetupSeconds...))

	rounds := max(1, int(math.Round(seconds/roundLen)))
	share := 1 / float64(rounds)
	var lats [][]float64
	var serials, joins []float64
	for r := range rounds {
		t, _ := e.mainPhase(rec.Seed, r, phaseLen(seconds, 0.7*share), nil)
		serial := e.serialPhase(rec.Seed, r, phaseLen(seconds, 0.15*share))
		join := e.joinPhase(rec.Seed, r, phaseLen(seconds, 0.15*share))
		rec.Samples["latency"] += len(t.lat)
		all.merge(t)
		all.merge(serial)
		all.merge(join)
		lats = append(lats, t.lat)
		serials = append(serials, median(serial.lat))
		joins = append(joins, median(join.lat))
		rec.Samples["serial"] += len(serial.lat)
		rec.Samples["join"] += len(join.lat)
	}
	qe, err := e.qerrors()
	if err != nil {
		return nil, all, fmt.Errorf("q-error pass: %w", err)
	}

	var p50s []float64
	for _, l := range lats {
		p50s = append(p50s, median(l))
	}
	rec.Rounds = map[string][]float64{"latency_p50_us": p50s, "serial_p50_us": serials, "join_p50_us": joins}
	m["latency_p50_us"] = percentile(append([]float64(nil), p50s...), roundPct)
	m["qerror_p50"] = median(qe)
	m["serial_p50_us"] = percentile(append([]float64(nil), serials...), roundPct)
	m["join_p50_us"] = percentile(append([]float64(nil), joins...), roundPct)
	rec.Samples["qerror"] = len(qe)
	if e.w.mutate {
		rec.Samples["mutate"] = len(all.mutLat)
	}
	return m, all, nil
}

// measureTraced is a --trace 1 run: the per-layer metrics. The counters
// and the client figures without a bound come from an untraced phase; the
// layer split and the tracing overhead from a phase of alternating
// untraced and traced windows.
func (e *env) measureTraced(rec *record, seconds float64, out string) (map[string]float64, tally, error) {
	m := map[string]float64{}
	var all tally
	mirror, err := e.mirror()
	if err != nil {
		return nil, all, err
	}
	var ms0, ms1 runtime.MemStats
	rs0, cs0 := e.routerStats(), e.cacheStats()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	counted, _ := e.mainPhase(rec.Seed, 0, phaseLen(seconds, 0.4), nil)
	countedFor := time.Since(start)
	runtime.ReadMemStats(&ms1)
	rs1, cs1 := e.routerStats(), e.cacheStats()
	untraced, traced := e.mainPhase(rec.Seed, 1, phaseLen(seconds, 0.6), mirror)
	all.merge(counted)
	all.merge(untraced)
	all.merge(traced)

	for _, d := range perLayer {
		m[d.name] = 0
	}
	medians, requests := layerSelfMedians(traced.spans)
	sum := 0.0
	for name, v := range medians {
		m[spanMetric[name]] = v
		sum += v
	}
	untracedP50 := median(untraced.lat)
	m["trace.untraced_latency_p50_us"] = untracedP50
	m["trace.traced_latency_p50_us"] = median(traced.lat)
	m["trace.self_sum_us"] = sum
	if untracedP50 > 0 {
		rec.SelfSumRatio = sum / untracedP50
	}
	m["trace.requests"] = float64(requests)
	m["model.locals_per_query"] = ratio(traced.selected, traced.slots)
	m["serving.retries"] = float64(rs1.Retries - rs0.Retries)
	m["serving.hedges"] = float64(rs1.Hedges - rs0.Hedges)
	m["serving.shed"] = float64(rs1.Shed - rs0.Shed)
	m["serving.degraded_rate"] = ratio(counted.degraded, counted.attempted)
	m["estcache.hit_ratio"] = ratio(cs1.Hits-cs0.Hits, cs1.Hits-cs0.Hits+cs1.Misses-cs0.Misses)
	m["estcache.fills"] = float64(cs1.Misses - cs0.Misses)
	if e.w.mutate {
		m["serving.mutate_us"] = median(all.mutLat)
		m["cardest.mutate_us"] = median(all.refMutLat)
		m["model.pending_deltas"] = float64(e.replicas[0].Adapter().PendingDeltas())
	}
	m["client.throughput_qps"] = float64(counted.estimates) / countedFor.Seconds()
	rec.TailPct = tailPercentile(len(counted.lat))
	m["client.latency_p95_us"] = percentile(counted.lat, min(95, rec.TailPct))
	m["client.latency_p99_us"] = percentile(counted.lat, rec.TailPct)
	m["go.allocs_per_query"] = ratio(int64(ms1.Mallocs-ms0.Mallocs), counted.estimates)
	m["go.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6

	rec.Samples["counted"], rec.Samples["untraced_latency"], rec.Samples["traced_latency"] = len(counted.lat), len(untraced.lat), len(traced.lat)
	rec.Samples["mutate"], rec.Samples["traced_requests"] = len(all.mutLat), requests
	spans := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", e.w.name, rec.Seed))
	return m, all, writeSpans(spans, traced.spans)
}
