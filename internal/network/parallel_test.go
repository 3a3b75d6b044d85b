package network

import (
	"fmt"
	"testing"

	"routersim/internal/flit"
	"routersim/internal/router"
)

// eventTrace records every observable event of a run in order; two
// engines are equivalent only if their traces match exactly. A run with
// no event fails the test: it would compare nothing.
func eventTrace(t *testing.T, cfg Config, cycles int64) []string {
	t.Helper()
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	var trace []string
	hookTrace(net, &trace)
	for now := int64(0); now < cycles; now++ {
		net.Step(now)
	}
	if len(trace) == 0 {
		t.Fatalf("no event in %d cycles", cycles)
	}
	return trace
}

// hookTrace appends every packet creation, flit ejection and packet
// completion of net to trace, one line each: eventTrace's recorder, for
// tests that drive Step and NextDue themselves.
func hookTrace(net *Network, trace *[]string) {
	net.OnPacketCreated = func(p *flit.Packet, now int64) {
		*trace = append(*trace, fmt.Sprintf("c %d %d %d %d", now, p.ID, p.Src, p.Dst))
	}
	net.OnFlitEjected = func(f flit.Flit, now int64) {
		*trace = append(*trace, fmt.Sprintf("e %d %d %d", now, f.Pkt.ID, f.Seq))
	}
	net.OnPacketDone = func(p *flit.Packet, now int64) {
		*trace = append(*trace, fmt.Sprintf("d %d %d %d", now, p.ID, p.Latency(now)))
	}
}

// compareTraces fails the test at the first diverging event.
func compareTraces(t *testing.T, label string, ref, got []string) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("%s: %d events vs %d reference", label, len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("%s: event %d diverged: %q vs reference %q", label, i, got[i], ref[i])
		}
	}
}

// TestParallelStepperMatchesSerial: the two-phase parallel stepper must
// produce the exact event sequence of the serial engine — every packet
// creation, flit ejection, and completion at the same cycle in the same
// order — for every router kind, for any worker count. The stepper is a
// hook of the benchmark only (Config.StepWorkers); this keeps what it
// measures the serial engine's work. Run under -race in CI, this also
// certifies the phase barriers.
func TestParallelStepperMatchesSerial(t *testing.T) {
	kinds := []router.Kind{
		router.Wormhole, router.VirtualChannel, router.SpeculativeVC,
		router.SingleCycleWormhole, router.SingleCycleVC,
	}
	cycles := simCycles(6000)
	for _, kind := range kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			cfg := Config{K: 4, Router: router.DefaultConfig(kind), Seed: 11, InjectionRate: 0.5 * 1.0 / 5}
			serial := eventTrace(t, cfg, cycles)
			for _, workers := range []int{2, 5} {
				cfg := cfg
				cfg.StepWorkers = workers
				compareTraces(t, fmt.Sprintf("%d workers", workers), serial, eventTrace(t, cfg, cycles))
			}
		})
	}
}
