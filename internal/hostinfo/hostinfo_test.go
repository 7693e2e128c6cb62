package hostinfo

import "testing"

func TestReadFilled(t *testing.T) {
	h := Read()
	if h.NumCPU < 1 || h.CPU == "" || h.GitSHA == "" {
		t.Fatalf("host block %+v: want num_cpu >= 1 and non-empty cpu and git_sha", h)
	}
}
