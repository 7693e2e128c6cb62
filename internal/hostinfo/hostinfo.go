// Package hostinfo identifies the machine and build a benchmark ran on, so
// that rows from different hosts are never compared by accident. simbench
// writes it into BENCH_kernels.json and simload into BENCH_serving.json,
// with the field names of perfbench's host record.
package hostinfo

import (
	"bytes"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// Host is the host block of a benchmark file.
type Host struct {
	CPU    string `json:"cpu"`
	NumCPU int    `json:"num_cpu"`
	GitSHA string `json:"git_sha"`
}

// Read reads the CPU model from /proc/cpuinfo and the commit from git
// (`go run`, which the bench targets use, stamps no VCS revision into the
// binary). Missing values read "unknown"; uncommitted changes to tracked
// files add "-dirty".
func Read() Host {
	h := Host{CPU: "unknown", NumCPU: runtime.NumCPU(), GitSHA: "unknown"}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.GitSHA = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(bytes.TrimSpace(st)) > 0 {
			h.GitSHA += "-dirty"
		}
	}
	return h
}
