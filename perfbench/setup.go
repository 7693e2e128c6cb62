package main

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"simquery/cardest"
	"simquery/internal/model"
	"simquery/internal/serving"
)

// workload is one traffic mix. README.md gives the reason for each.
type workload struct {
	name    string
	profile string // dataset profile (cardest.GenerateProfile)
	serve   bool   // requests go through a Router to replicas on loopback
	mutate  bool   // the measured phase interleaves POST /mutate batches
	batch   int    // queries per request
}

var workloads = []workload{
	{name: "serve-zipf", profile: "imagenet", serve: true, batch: 1},
	{name: "model-inproc", profile: "youtube", batch: 64},
	{name: "serve-mutate", profile: "imagenet", serve: true, mutate: true, batch: 1},
}

// The system under test. The dataset, its labels and the trained model
// depend on modelSeed only, so every --seed runs against the same model and
// the seed varies the traffic: which queries are hot, the batch draws, and
// the mutation stream. Sizes follow simbench's "small" scale, so one setup
// (generate, label, train, boot) takes about a second and a half.
const (
	modelSeed       = 1
	datasetN        = 6000
	datasetClusters = 24
	trainPoints     = 150
	testPoints      = 64 // × thresholds = the 512-query labelled test pool
	thresholds      = 8
	segments        = 12
	epochs          = 16

	replicaCount = 2
	cacheEntries = 4096
	cacheAnchors = 8
	deadline     = time.Second
	maxInFlight  = 64
)

// env is one set-up instance of a workload: the labelled pool, an
// in-process hardened GL+ estimator, and for serve workloads the replicas
// and the router in front of them.
type env struct {
	w    workload
	base [][]float64     // the generated vectors, read by the mutation generator
	pool []cardest.Query // labelled test pool (exact labels on the generated data)
	ckpt string

	// The in-process estimator: hardened like a replica but without a
	// cache. model-inproc measures it; the serve workloads use it as the
	// reference a sample of tier answers must equal bit for bit, and for
	// the serial and join phases. ds is its own dataset copy.
	ds   *cardest.Dataset
	opts cardest.ServeOptions
	rel  *cardest.Reloadable
	// adapter (serve-mutate) applies every mutation the replicas receive to
	// the in-process estimator too, so it stays their reference.
	adapter *cardest.Adapter

	replicas []*serving.Replica
	router   *serving.Router
	hc       *http.Client // direct POSTs: mutations and traced replays

	// mu orders serve-mutate's mutation fan-out against the requests whose
	// answers are compared with the reference, so both see one state.
	mu      sync.RWMutex
	live    int          // live dataset size, guarded by mu
	liveMax atomic.Int64 // the largest live size yet: the range checks' bound
	mut     *mutGen
	batches int       // mutation batches applied
	snap    *snapshot // the pool's answers after qerrorAfter batches
}

func (e *env) inproc() *cardest.RobustEstimator { return e.rel.Estimator() }

// setup generates, labels and trains the workload's model, saves it under
// dir, and boots everything the workload serves it through.
func setup(w workload, dir string) (*env, error) {
	ds, err := cardest.GenerateProfile(w.profile, datasetN, datasetClusters, modelSeed)
	if err != nil {
		return nil, err
	}
	train, test, err := cardest.BuildWorkload(ds, cardest.WorkloadOptions{
		TrainPoints: trainPoints, TestPoints: testPoints, ThresholdsPerPoint: thresholds, Seed: modelSeed + 1,
	})
	if err != nil {
		return nil, err
	}
	est, err := cardest.Train(ds, train, cardest.TrainOptions{Method: "gl+", Segments: segments, Epochs: epochs, Seed: modelSeed + 2})
	if err != nil {
		return nil, err
	}
	ckpt := filepath.Join(dir, w.name+".model")
	if err := cardest.Save(est, ckpt); err != nil {
		return nil, err
	}
	fallback, err := cardest.Train(ds, nil, cardest.TrainOptions{Method: "sampling", Seed: modelSeed + 3})
	if err != nil {
		return nil, err
	}
	e := &env{
		w: w, base: ds.Vectors(), pool: test, ckpt: ckpt, live: ds.Size(),
		opts: cardest.ServeOptions{Deadline: deadline, MaxInFlight: maxInFlight, Fallback: fallback},
		hc:   &http.Client{Timeout: 10 * time.Second},
	}
	e.liveMax.Store(int64(e.live))
	var prim cardest.Estimator
	if e.ds, prim, err = e.load(); err != nil {
		return nil, err
	}
	e.rel = cardest.NewReloadable(cardest.Harden(prim, e.opts))
	if w.mutate {
		e.adapter = cardest.NewAdapter(e.ds, e.rel, e.opts)
	}
	if w.serve {
		if err := e.boot(); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// load regenerates the dataset (generation is deterministic) and loads the
// checkpoint over it: one independent copy of the served state.
func (e *env) load() (*cardest.Dataset, cardest.Estimator, error) {
	ds, err := cardest.GenerateProfile(e.w.profile, datasetN, datasetClusters, modelSeed)
	if err != nil {
		return nil, nil, err
	}
	prim, err := cardest.Load(e.ckpt, ds)
	return ds, prim, err
}

// boot starts the replicas, each with its own dataset copy, model, estimate
// cache and (on serve-mutate) adapter, as cmd/simserve -adapt does, and the
// router in front of them. No probe pipeline is attached, so no retrain
// ever runs.
func (e *env) boot() error {
	var urls []string
	for i := range replicaCount {
		ds, prim, err := e.load()
		if err != nil {
			return err
		}
		cache, err := cardest.NewEstimateCache(cacheEntries, cacheAnchors, ds.TauMax(), 0)
		if err != nil {
			return err
		}
		opts := e.opts
		opts.Cache = cache
		rep := serving.NewReplica(cardest.Harden(prim, opts), serving.ReplicaConfig{Name: fmt.Sprintf("r%d", i)})
		if e.w.mutate {
			rep.AttachAdapter(cardest.NewAdapter(ds, rep.Reloadable(), opts))
		}
		if err := rep.Start("127.0.0.1:0"); err != nil {
			return err
		}
		e.replicas = append(e.replicas, rep)
		urls = append(urls, rep.URL())
	}
	router, err := serving.NewRouter(urls, serving.RouterOptions{Fallback: e.opts.Fallback, Seed: modelSeed})
	if err != nil {
		return err
	}
	e.router = router
	return nil
}

// replica returns the replica a response names (nil for none).
func (e *env) replica(name string) *serving.Replica {
	for _, r := range e.replicas {
		if r.Name() == name {
			return r
		}
	}
	return nil
}

// close stops the router and the replicas and waits for them.
func (e *env) close() {
	if e.router != nil {
		e.router.Close()
	}
	for _, r := range e.replicas {
		_ = r.Close()
	}
	e.hc.CloseIdleConnections()
}

// mirror decodes the saved checkpoint into a bare model.GlobalLocal: the
// same parameters the served estimators loaded, reachable layer by layer
// for the traced replays. The checkpoint is the gob envelope cardest.Save
// writes followed by a 16-byte CRC/version/magic trailer.
func (e *env) mirror() (*model.GlobalLocal, error) {
	raw, err := os.ReadFile(e.ckpt)
	if err != nil {
		return nil, err
	}
	const trailer = 16
	if len(raw) < trailer || string(raw[len(raw)-8:]) != "SIMQMDL1" || binary.LittleEndian.Uint32(raw[len(raw)-12:]) != 1 {
		return nil, fmt.Errorf("perfbench: %s: unexpected checkpoint layout", e.ckpt)
	}
	var env struct {
		Kind string
		Data []byte
	}
	if err := gob.NewDecoder(bytes.NewReader(raw[:len(raw)-trailer])).Decode(&env); err != nil {
		return nil, fmt.Errorf("perfbench: decode %s: %w", e.ckpt, err)
	}
	if env.Kind != "globallocal" {
		return nil, fmt.Errorf("perfbench: %s holds a %q model, want globallocal", e.ckpt, env.Kind)
	}
	gl := &model.GlobalLocal{}
	if err := gl.UnmarshalBinary(env.Data); err != nil {
		return nil, err
	}
	return gl, nil
}

// post sends body to url and returns the 200 response body.
func post(hc *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: %d %s", url, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, nil
}
