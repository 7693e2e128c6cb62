// Command simbench regenerates the paper's tables and figures:
//
//	simbench -exp table4 -dataset imagenet -scale small
//	simbench -exp all -dataset all -scale small
//
// Experiments: table4 table5 table6 table7 fig8 fig9 fig10 fig11 fig12
// fig13 fig14 fig15 ablation compound all. Scales: small medium paper.
// "compound" is the optimizer-facing extension: q-error of every method on
// a fixed-seed set of AND/OR/NOT predicates, estimated through
// cardest/plan and labeled exactly by set algebra over the index.
//
// With -kernels it instead runs the tracked kernel + end-to-end benchmark
// suite and writes BENCH_kernels.json (see `make bench`).
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"strings"
	"time"

	"simquery/cardest"
	"simquery/internal/dataset"
	"simquery/internal/exper"
	"simquery/internal/reqtrace"
	"simquery/internal/tensor"
)

func main() {
	var (
		expFlag     = flag.String("exp", "table4", "experiment id or comma-separated list (table4..7, fig8..15, ablation, compound, all)")
		datasetFlag = flag.String("dataset", "imagenet", "dataset profile or 'all'")
		scaleFlag   = flag.String("scale", "small", "small|medium|paper")
		skipTuning  = flag.Bool("skip-tuning", false, "use default CNN config for GL+ (skips Algorithm 3)")
		cacheDir    = flag.String("cache", "", "directory for labeled-workload caching (skips exact labeling on reruns)")
		telAddr     = flag.String("telemetry", "", "serve metrics/expvar/pprof on this address (e.g. :9090); empty disables")
		kernels     = flag.Bool("kernels", false, "run the kernel benchmark suite and write -bench-out instead of experiments")
		benchOut    = flag.String("bench-out", "BENCH_kernels.json", "output file for -kernels results")
		benchtime   = flag.String("benchtime", kernelBenchtime, "with -kernels: per-benchmark measurement budget (testing -benchtime syntax)")
		scaleGuard  = flag.Bool("scaling-guard", false, "with -kernels: exit 1 if a pooled GEMM row regresses below its single-worker tiled baseline (tolerance for one-core hosts)")
		workers     = flag.Int("workers", 0, "tensor pool workers (0 = SIMQUERY_WORKERS env, else GOMAXPROCS)")
		deadline    = flag.Duration("deadline", 0, "with -kernels: per-request deadline for the extra hardened-path benchmark row (0 = row omitted)")
		maxInfl     = flag.Int("max-inflight", 0, "with -kernels: admission limit for the extra hardened-path benchmark row (0 = unlimited)")
		cacheEnt    = flag.Int("cache-entries", 0, "with -kernels: estimate-cache capacity for the extra cached benchmark row (0 = row omitted)")
		cacheAnch   = flag.Int("cache-anchors", 8, "with -kernels: τ anchors per cache entry for the cached benchmark row")
		traceRate   = flag.Int("trace-sample", 0, "flight recorder: sample 1 in N hardened estimates into /debug/traces (0 disables)")
		logJSON     = flag.Bool("log-json", false, "emit structured JSON run logs (slog) on stderr")
	)
	flag.Parse()
	effWorkers, err := tensor.SetPoolSize(*workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(2)
	}
	var logger *slog.Logger
	if *logJSON {
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	if *traceRate > 0 {
		reqtrace.Enable(reqtrace.Config{SampleEvery: *traceRate})
	}
	if *kernels {
		err := runKernels(kernelOptions{
			outPath: *benchOut, workers: effWorkers, benchtime: *benchtime,
			deadline: *deadline, maxInflight: *maxInfl,
			cacheEntries: *cacheEnt, cacheAnchors: *cacheAnch,
			scalingGuard: *scaleGuard,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			os.Exit(1)
		}
		return
	}
	if *telAddr != "" {
		ts, err := cardest.ServeTelemetry(*telAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			os.Exit(1)
		}
		defer ts.Close()
		ts.SetReady(true) // batch tool: ready as soon as the mux is up
		fmt.Printf("telemetry: http://%s/metrics (also /debug/vars, /debug/pprof/, /debug/traces, /healthz, /readyz)\n", ts.Addr())
	}
	if logger != nil {
		logger.Info("run start", "exp", *expFlag, "dataset", *datasetFlag,
			"scale", *scaleFlag, "workers", effWorkers)
	}
	if err := run(*expFlag, *datasetFlag, *scaleFlag, *skipTuning, *cacheDir, logger); err != nil {
		if logger != nil {
			logger.Error("run failed", "error", err.Error())
		}
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
}

func run(exp, ds, scaleName string, skipTuning bool, cacheDir string, logger *slog.Logger) error {
	scale, err := exper.ParseScale(scaleName)
	if err != nil {
		return err
	}
	var profiles []dataset.Profile
	if ds == "all" {
		profiles = dataset.Profiles()
	} else {
		p, err := dataset.ParseProfile(ds)
		if err != nil {
			return err
		}
		profiles = []dataset.Profile{p}
	}
	known := map[string]bool{
		"table4": true, "table5": true, "table6": true, "table7": true,
		"fig8": true, "fig9": true, "fig10": true, "fig11": true,
		"fig12": true, "fig13": true, "fig14": true, "fig15": true,
		"ablation": true, "compound": true,
	}
	exps := strings.Split(strings.ToLower(exp), ",")
	if exp == "all" {
		exps = []string{"table4", "table5", "table6", "fig8", "fig9", "fig14", "table7", "fig12", "fig13", "fig10", "fig11", "fig15", "ablation", "compound"}
	}
	for _, e := range exps {
		if !known[e] {
			return fmt.Errorf("unknown experiment %q (want %v or 'all')", e, sortedKeys(known))
		}
	}
	matrix := exper.NewMatrix("mean Q-error (Table 4)")
	for _, p := range profiles {
		if err := runProfile(p, scale, exps, skipTuning, cacheDir, matrix, logger); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	if len(profiles) > 1 && !matrix.Empty() {
		fmt.Println()
		if err := matrix.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println("best method per dataset:")
		matrix.Winners(os.Stdout)
	}
	return nil
}

// runProfile builds the environment once per profile and reuses the trained
// suite across the experiments that share it.
func runProfile(p dataset.Profile, scale exper.Scale, exps []string, skipTuning bool, cacheDir string, matrix *exper.Matrix, logger *slog.Logger) error {
	fmt.Printf("=== dataset %s (scale %s) ===\n", p, scale)
	params := exper.ParamsFor(scale)
	params.CacheDir = cacheDir
	env, err := exper.NewEnvWithParams(p, scale, params)
	if err != nil {
		return err
	}
	var suite *exper.Suite
	getSuite := func() (*exper.Suite, error) {
		if suite == nil {
			fmt.Println("... training search suite")
			suite, err = exper.BuildSuite(env, exper.SuiteOptions{SkipTuning: skipTuning})
			if err != nil {
				return nil, err
			}
		}
		return suite, nil
	}
	var joinSuite *exper.JoinSuite
	getJoinSuite := func() (*exper.JoinSuite, error) {
		if joinSuite == nil {
			s, err := getSuite()
			if err != nil {
				return nil, err
			}
			fmt.Println("... fine-tuning join suite")
			train, _, err := exper.JoinWorkloads(env, env.P.JoinSets, 0, 40, 2, 3)
			if err != nil {
				return nil, err
			}
			joinSuite, err = exper.BuildJoinSuite(s, train)
			if err != nil {
				return nil, err
			}
		}
		return joinSuite, nil
	}

	for _, e := range exps {
		fmt.Println()
		expStart := time.Now()
		switch strings.ToLower(e) {
		case "table4":
			s, err := getSuite()
			if err != nil {
				return err
			}
			res := exper.Table4(s)
			matrix.AddAccuracy(res)
			if err := exper.RenderAccuracy(os.Stdout, "Table 4: Test Errors for Similarity Search", res); err != nil {
				return err
			}
		case "table5":
			s, err := getSuite()
			if err != nil {
				return err
			}
			if err := exper.RenderSizes(os.Stdout, exper.Table5(s)); err != nil {
				return err
			}
		case "table6":
			s, err := getSuite()
			if err != nil {
				return err
			}
			res, err := exper.Table6(s, 16)
			if err != nil {
				return err
			}
			if err := exper.RenderLatency(os.Stdout, res); err != nil {
				return err
			}
		case "compound":
			s, err := getSuite()
			if err != nil {
				return err
			}
			cases, err := exper.CompoundCases(s, 12, 16)
			if err != nil {
				return err
			}
			res, err := exper.CompoundTable(s, cases)
			if err != nil {
				return err
			}
			if err := exper.RenderCompound(os.Stdout, res); err != nil {
				return err
			}
		case "table7":
			js, err := getJoinSuite()
			if err != nil {
				return err
			}
			lo, hi := joinBucket(env)
			_, test, err := exper.JoinWorkloads(env, 0, env.P.JoinSets, 40, lo, hi)
			if err != nil {
				return err
			}
			title := fmt.Sprintf("Table 7: Test Errors for Similarity Join (size ∈ [%d,%d))", lo, hi)
			if err := exper.RenderAccuracy(os.Stdout, title, exper.Table7(js, test)); err != nil {
				return err
			}
		case "fig8":
			s, err := getSuite()
			if err != nil {
				return err
			}
			if err := exper.RenderMAPE(os.Stdout, exper.Figure8(s)); err != nil {
				return err
			}
		case "fig9":
			res, err := exper.Figure9(env)
			if err != nil {
				return err
			}
			exper.RenderMissingRate(os.Stdout, res)
		case "fig10":
			points, err := exper.Figure10(env, nil, nil)
			if err != nil {
				return err
			}
			if err := exper.RenderTrainingSize(os.Stdout, env.DS.Name, points); err != nil {
				return err
			}
		case "fig11":
			points, err := exper.Figure11(env, segmentGrid(env), nil)
			if err != nil {
				return err
			}
			if err := exper.RenderSegments(os.Stdout, env.DS.Name, points); err != nil {
				return err
			}
		case "fig12":
			js, err := getJoinSuite()
			if err != nil {
				return err
			}
			points, err := exper.Figure12(js, joinSizeBuckets(env))
			if err != nil {
				return err
			}
			if err := exper.RenderJoinSize(os.Stdout, env.DS.Name, points); err != nil {
				return err
			}
		case "fig13":
			js, err := getJoinSuite()
			if err != nil {
				return err
			}
			size := 200
			if env.Scale == exper.Small {
				size = 60
			}
			rows, err := exper.Figure13(js, size, 3)
			if err != nil {
				return err
			}
			if err := exper.RenderJoinLatency(os.Stdout, env.DS.Name, rows); err != nil {
				return err
			}
		case "fig14":
			s, err := getSuite()
			if err != nil {
				return err
			}
			js, err := getJoinSuite()
			if err != nil {
				return err
			}
			if err := exper.RenderTrainTime(os.Stdout, exper.Figure14(s, js)); err != nil {
				return err
			}
		case "fig15":
			// Fresh environment: the experiment mutates data and labels
			// (no cache: mutation would poison it).
			fresh, err := exper.NewEnv(env.Profile, env.Scale)
			if err != nil {
				return err
			}
			ops := 20
			if env.Scale == exper.Paper {
				ops = 200
			}
			points, err := exper.Figure15(fresh, ops, 10, 2)
			if err != nil {
				return err
			}
			if err := exper.RenderIncremental(os.Stdout, fresh.DS.Name, points); err != nil {
				return err
			}
		case "ablation":
			rows, err := exper.AblationSegmentation(env)
			if err != nil {
				return err
			}
			if err := exper.RenderSegAblation(os.Stdout, env.DS.Name, rows); err != nil {
				return err
			}
			qs, err := exper.AblationQuerySegments(env, nil)
			if err != nil {
				return err
			}
			if err := exper.RenderQuerySegAblation(os.Stdout, env.DS.Name, qs); err != nil {
				return err
			}
			ls, err := exper.AblationLambda(env, nil)
			if err != nil {
				return err
			}
			if err := exper.RenderLambdaAblation(os.Stdout, env.DS.Name, ls); err != nil {
				return err
			}
			s, err := getSuite()
			if err != nil {
				return err
			}
			if s.GLPlus != nil {
				if err := exper.RenderSigmaAblation(os.Stdout, env.DS.Name, exper.AblationSigma(env, s.GLPlus, nil)); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("unknown experiment %q", e)
		}
		if logger != nil {
			logger.Info("experiment done", "exp", e, "dataset", env.DS.Name,
				"scale", string(scale), "elapsed", time.Since(expStart))
		}
	}
	fmt.Println()
	return nil
}

// sortedKeys renders a set's keys for error messages.
func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// joinBucket scales Table 7's [50,100) bucket to the environment.
func joinBucket(env *exper.Env) (int, int) {
	if env.Scale == exper.Small {
		return 20, 50
	}
	return 50, 100
}

// joinSizeBuckets scales Figure 12's three buckets.
func joinSizeBuckets(env *exper.Env) [][2]int {
	if env.Scale == exper.Small {
		return [][2]int{{20, 50}, {50, 80}, {80, 110}}
	}
	return [][2]int{{50, 100}, {100, 150}, {150, 200}}
}

// segmentGrid scales Figure 11's x-axis.
func segmentGrid(env *exper.Env) []int {
	switch env.Scale {
	case exper.Paper:
		return []int{1, 5, 10, 25, 50, 100}
	case exper.Medium:
		return []int{1, 2, 4, 8, 16, 32}
	default:
		return []int{1, 2, 4, 8, 12}
	}
}
