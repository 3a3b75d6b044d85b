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
		"audit": "0", "buf": "0", "ci-target": "0", "credit-delay": "1", "exact": "false", "faults": "",
		"json": "false", "k": "8", "load": "0.4", "overrides": "", "packets": "20000", "packetsize": "5",
		"pattern": "uniform", "probe-turnaround": "false", "record": "", "router": "spec-vc", "routing": "",
		"seed": "1", "shards": "0", "sizes": "", "source": "", "step-workers": "0", "topo": "mesh",
		"vcs": "0", "warmup": "10000",
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

// TestTooManyInputVCsExitsWithError: configurations whose routers would
// need more than 64 input VCs (Ports×VCs) used to die with a panic
// stack from inside network.New; the CLI must exit 1 with one line that
// names the limit.
func TestTooManyInputVCsExitsWithError(t *testing.T) {
	expectOneLineError(t, "at most 64",
		[]string{"-k", "4", "-vcs", "13"},
		[]string{"-topo", "hypercube:64", "-vcs", "10"},
		[]string{"-overrides", "0:vcs=33"},
	)
}

// TestUnboundedCreditDelayExitsWithError: a credit delay past the
// 1024-cycle cap used to presize credit wires until the process died
// with a runtime out-of-memory fatal; the CLI must exit 1 with one line
// that names the limit.
func TestUnboundedCreditDelayExitsWithError(t *testing.T) {
	expectOneLineError(t, "at most 1024",
		[]string{"-credit-delay", "200000000", "-warmup", "10", "-packets", "10"},
		[]string{"-credit-delay", "1025", "-probe-turnaround", "-warmup", "10", "-packets", "10"},
	)
}

// TestOversizedBufferOrPacketExitsWithError: a buffer depth or packet
// size past what the int32 FIFO and wire indices are sized for used to
// allocate until the runtime died (-buf 2000000000) or the kernel
// killed the process (-packetsize 1000000000); the CLI must exit 1 with
// one line that names the field.
func TestOversizedBufferOrPacketExitsWithError(t *testing.T) {
	expectOneLineError(t, "BufPerVC",
		[]string{"-router", "spec-vc", "-k", "4", "-buf", "2000000000", "-warmup", "10", "-packets", "10"},
		[]string{"-k", "4", "-overrides", "3:buf=5000", "-warmup", "10", "-packets", "10"},
	)
	// The label names the configuration that would run (default VCs and
	// buffers filled in), not the raw flag values.
	expectOneLineError(t, "2vcs×4buf/pkt1000000000/load=0.40: network: PacketSize",
		[]string{"-k", "4", "-packetsize", "1000000000", "-warmup", "10", "-packets", "10"})
}

// TestOversizedNetworkExitsWithError: per-router bytes grow with VCs ×
// buffer depth, and a network whose state outgrows what its node cap
// stands for (32×32 routers of 12 VCs × 4,096 flits is 11 GB) used to
// allocate until the runtime died out of memory; the CLI must exit 1
// with one line naming the bytes, before anything is allocated. The
// cap= opt-in that raises the node cap raises the budget too.
func TestOversizedNetworkExitsWithError(t *testing.T) {
	expectOneLineError(t, "bytes of router, wire and source state",
		[]string{"-router", "spec-vc", "-k", "32", "-vcs", "12", "-buf", "4096", "-load", "0.1"},
		[]string{"-router", "spec-vc", "-topo", "mesh:k=8,cap=64", "-vcs", "4", "-warmup", "10", "-packets", "10"},
	)
}

// expectOneLineError builds netsim and checks that each argument list
// exits with status 1 and a single error line containing want.
func expectOneLineError(t *testing.T, want string, argLists ...[]string) {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "netsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, args := range argLists {
		out, err := exec.Command(bin, args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("netsim %v: %v, want exit status 1\n%s", args, err, out)
		}
		s := strings.TrimRight(string(out), "\n")
		if !strings.Contains(s, want) || strings.Contains(s, "\n") || strings.Contains(s, "panic") || strings.Contains(s, "goroutine") {
			t.Errorf("netsim %v: want one error line naming the limit, got\n%s", args, s)
		}
	}
}

// TestNegativeProtocolExitsWithError: a negative warm-up or sample size
// used to run (30,075 cycles measuring nothing, or 51 cycles); netsim
// must exit 1 with one line naming the field.
func TestNegativeProtocolExitsWithError(t *testing.T) {
	expectOneLineError(t, "WarmupCycles -5",
		[]string{"-warmup", "-5", "-packets", "50"},
		[]string{"-warmup", "-5", "-packets", "50", "-probe-turnaround"},
	)
	expectOneLineError(t, "MeasurePackets -3", []string{"-packets", "-3"})
	expectOneLineError(t, "CITarget", []string{"-ci-target", "-0.5", "-warmup", "10", "-packets", "10"})
}
