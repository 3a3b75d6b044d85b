package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestTooManyInputVCsExitsWithError: configurations whose routers would
// need more than 64 input VCs (Ports×VCs) used to die with a panic
// stack from inside network.New; the CLI must exit 1 with one line that
// names the limit.
func TestTooManyInputVCsExitsWithError(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "netsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, args := range [][]string{
		{"-k", "4", "-vcs", "13"},
		{"-topo", "hypercube:64", "-vcs", "10"},
		{"-overrides", "0:vcs=33"},
	} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("netsim %v: %v, want exit status 1\n%s", args, err, out)
		}
		if s := string(out); !strings.Contains(s, "at most 64") || strings.Contains(s, "panic") || strings.Contains(s, "goroutine") {
			t.Errorf("netsim %v: want one error naming the limit, got\n%s", args, s)
		}
	}
}
