package main

import (
	"testing"

	"simquery/internal/hostinfo"
)

func TestRunRejectsBadArgs(t *testing.T) {
	if err := run("table4", "imagenet", "huge", true, "", nil); err == nil {
		t.Fatal("expected error for unknown scale")
	}
	if err := run("table4", "marsdata", "small", true, "", nil); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
	if err := run("table99", "imagenet", "small", true, "", nil); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

func TestScaleHelpers(t *testing.T) {
	// Small-scale buckets must be valid ranges.
	lo, hi := 20, 50
	if lo >= hi {
		t.Fatal("bucket broken")
	}
	for _, b := range [][2]int{{20, 50}, {50, 80}, {80, 110}} {
		if b[0] >= b[1] {
			t.Fatalf("bucket %v", b)
		}
	}
}

// TestHostInfoFilled checks the host block written into BENCH_kernels.json.
func TestHostInfoFilled(t *testing.T) {
	h := hostinfo.Read()
	if h.NumCPU < 1 || h.CPU == "" || h.GitSHA == "" {
		t.Fatalf("host block %+v: want num_cpu >= 1 and non-empty cpu and git_sha", h)
	}
}
