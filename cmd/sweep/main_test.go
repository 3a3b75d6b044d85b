package main

import (
	"errors"
	"flag"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestFlagSurface pins every flag's name and default. The axis flags
// are generated from the harness axis table; this list was taken from
// the hand-written flags they replaced.
func TestFlagSurface(t *testing.T) {
	want := map[string]string{
		"all": "false", "audit": "0", "bufs": "4", "checkpoint": "", "ci-target": "0", "cpuprofile": "",
		"credit-delays": "1", "csv": "", "exact": "false", "faults": "", "figure": "", "full": "false",
		"json": "", "k": "8", "loads": "0.2", "memprofile": "", "overrides": "", "packets": "1500",
		"packetsize": "5", "patterns": "uniform", "quiet": "false", "resume": "false", "retries": "0",
		"routers": "spec-vc", "routing": "", "sat-tol": "0.01", "saturation": "false", "seed": "1",
		"shards": "0", "sizes": "", "sources": "", "topos": "mesh", "vcs": "2",
		"warmup": "2000", "workers": "0",
	}
	got := map[string]string{}
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			got[f.Name] = f.DefValue
		}
	})
	for name, def := range want {
		if g, ok := got[name]; !ok || g != def {
			t.Errorf("-%s: default %q (defined %v), want %q", name, g, ok, def)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("unexpected flag -%s", name)
		}
	}
}

// TestMalformedAxisExitsBeforeRunning: a value an axis's parser rejects
// stops the command during flag parsing — non-zero, naming the flag —
// before any job runs.
func TestMalformedAxisExitsBeforeRunning(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "sweep")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, args := range [][]string{
		{"-k", "4,x"},
		{"-loads", "0.1,NaN"},
		{"-loads", "0:Inf:0.1"},
		{"-loads", "0.1:0.5:0"},
		{"-vcs", "two"},
	} {
		out, err := exec.Command(bin, append(args, "-warmup", "10", "-packets", "10")...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() == 0 {
			t.Errorf("sweep %v: %v, want a non-zero exit\n%s", args, err, out)
		}
		s := string(out)
		if !strings.Contains(s, "flag "+args[0]) || strings.Contains(s, "matrix:") {
			t.Errorf("sweep %v: want an error naming %s before any job, got\n%s", args, args[0], s)
		}
	}
}

// TestNoStepWorkersFlag: the parallel stepper is not a sweep axis;
// -step-workers is an undefined flag (exit 2) rather than an axis that
// changes no result.
func TestNoStepWorkersFlag(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "sweep")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-step-workers", "0,2", "-k", "4", "-warmup", "10", "-packets", "10").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "flag provided but not defined: -step-workers") {
		t.Errorf("sweep -step-workers 0,2: %v, want exit status 2 naming the undefined flag\n%s", err, out)
	}
}

// TestNegativeProtocolExitsBeforeRunning: a negative protocol value
// used to run every job and emit bogus saturated rows (which -checkpoint
// would persist); the sweep must exit non-zero, naming the field, before
// any job runs.
func TestNegativeProtocolExitsBeforeRunning(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "sweep")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		field string
		args  []string
	}{
		{"WarmupCycles", []string{"-warmup", "-5", "-packets", "50"}},
		{"MeasurePackets", []string{"-warmup", "10", "-packets", "-3"}},
		{"WarmupCycles", []string{"-warmup", "-5", "-packets", "50", "-saturation"}},
	} {
		ck := filepath.Join(t.TempDir(), "ck")
		args := append([]string{"-routers", "vc", "-k", "4", "-loads", "0.1", "-json", "-", "-checkpoint", ck}, tc.args...)
		if tc.args[len(tc.args)-1] == "-saturation" {
			args = append([]string{"-routers", "vc", "-k", "4", "-sat-tol", "0.25", "-json", "-"}, tc.args...)
		}
		out, err := exec.Command(bin, args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() == 0 {
			t.Errorf("sweep %v: %v, want a non-zero exit\n%s", args, err, out)
		}
		s := string(out)
		if !strings.Contains(s, tc.field) || strings.Contains(s, "[1/") || strings.Contains(s, `"index"`) {
			t.Errorf("sweep %v: want an error naming %s before any job, got\n%s", args, tc.field, s)
		}
	}
}

// TestOversizedBufferOrPacketExits: a buffer depth or packet size past
// what the int32 FIFO and wire indices are sized for used to allocate
// until the runtime died; the sweep must exit 1, each such job's error
// naming the field.
func TestOversizedBufferOrPacketExits(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "sweep")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		field string
		args  []string
	}{
		{"BufPerVC", []string{"-bufs", "2000000000"}},
		{"BufPerVC", []string{"-overrides", "3:buf=5000"}},
		{"PacketSize", []string{"-packetsize", "1000000000"}},
	} {
		args := append([]string{"-routers", "vc", "-k", "4", "-loads", "0.1", "-warmup", "10", "-packets", "10", "-quiet", "-json", "-"}, tc.args...)
		out, err := exec.Command(bin, args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("sweep %v: %v, want exit status 1\n%s", args, err, out)
		}
		s := string(out)
		if !strings.Contains(s, tc.field) || strings.Contains(s, "panic") || strings.Contains(s, "fatal error") {
			t.Errorf("sweep %v: want a job error naming %s, got\n%s", args, tc.field, s)
		}
	}
}

// TestOversizedNetworkExits: a network whose router, wire and source
// state outgrows what its node cap stands for (32×32 routers of 12 VCs
// × 4,096 flits is 11 GB) used to allocate until the runtime died out of
// memory; the sweep must exit 1 with the job's error naming the bytes.
func TestOversizedNetworkExits(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "sweep")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	args := []string{"-routers", "spec-vc", "-k", "32", "-vcs", "12", "-bufs", "4096", "-loads", "0.1", "-quiet", "-json", "-"}
	out, err := exec.Command(bin, args...).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Errorf("sweep %v: %v, want exit status 1\n%s", args, err, out)
	}
	s := string(out)
	if !strings.Contains(s, "bytes of router, wire and source state") || strings.Contains(s, "panic") || strings.Contains(s, "fatal error") {
		t.Errorf("sweep %v: want a job error naming the bytes, got\n%s", args, s)
	}
}
