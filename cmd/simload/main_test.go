package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func smallLoadOptions(out string) loadOptions {
	return loadOptions{
		spawn:   2,
		profile: "imagenet", n: 600, clusters: 6, seed: 11,
		rate: 150, duration: 300 * time.Millisecond,
		batch: 1, poolSize: 16, tauFrac: 0.25,
		deadline: time.Second, hedgeFloor: 20 * time.Millisecond,
		outPath: out,
	}
}

func TestRunLoadSpawnModeWritesReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	rep, err := runLoad(smallLoadOptions(out))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent == 0 || rep.Completed == 0 {
		t.Fatalf("sent=%d completed=%d, want traffic", rep.Sent, rep.Completed)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d client-visible errors in a healthy run", rep.Errors)
	}
	if rep.Replicas != 2 {
		t.Fatalf("replicas %d, want 2 spawned", rep.Replicas)
	}
	if rep.P50Ms < 0 || rep.P99Ms < rep.P50Ms {
		t.Fatalf("percentile ordering p50=%.3f p99=%.3f", rep.P50Ms, rep.P99Ms)
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var onDisk report
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if onDisk.Sent != rep.Sent || onDisk.Errors != rep.Errors {
		t.Fatalf("on-disk report diverges: sent %d vs %d", onDisk.Sent, rep.Sent)
	}
	if h := onDisk.Host; h.NumCPU < 1 || h.CPU == "" || h.GitSHA == "" || onDisk.GoVersion == "" || onDisk.GOMAXPROCS < 1 {
		t.Fatalf("report host block %+v (go %q, gomaxprocs %d): want it filled", h, onDisk.GoVersion, onDisk.GOMAXPROCS)
	}
}

// TestRunLoadKillAfterStaysErrorFree is the acceptance criterion in
// miniature: crash a replica mid-run and the client still sees zero errors.
func TestRunLoadKillAfterStaysErrorFree(t *testing.T) {
	o := smallLoadOptions(filepath.Join(t.TempDir(), "bench.json"))
	o.duration = 400 * time.Millisecond
	o.killAfter = 100 * time.Millisecond
	rep, err := runLoad(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d client-visible errors after a replica kill, want 0", rep.Errors)
	}
	if rep.KilledAfterS == 0 {
		t.Fatal("report did not record the kill")
	}
	if rep.Completed == 0 {
		t.Fatal("no requests completed")
	}
}

func TestRunLoadValidation(t *testing.T) {
	if _, err := runLoad(loadOptions{}); err == nil {
		t.Fatal("no replicas and no spawn accepted")
	}
	if _, err := runLoad(loadOptions{spawn: 2, replicaURLs: []string{"http://x"}}); err == nil {
		t.Fatal("spawn and replicas together accepted")
	}
}

func TestSplitList(t *testing.T) {
	got := splitList(" http://a , ,http://b,")
	if len(got) != 2 || got[0] != "http://a" || got[1] != "http://b" {
		t.Fatalf("splitList = %v", got)
	}
	if splitList("") != nil {
		t.Fatal("empty input should yield nil")
	}
}
