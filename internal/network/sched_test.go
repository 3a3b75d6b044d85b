package network

import (
	"fmt"
	"testing"

	"routersim/internal/link"
	"routersim/internal/router"
	"routersim/internal/traffic"
)

// TestActiveSetMatchesFullScan is the scheduler's identity gate: across
// every topology family and the load regimes the paper's protocol
// visits (near zero-load, mid-load, at the knee), the active-set engine
// must produce the full-scan reference engine's exact event sequence:
// every packet creation, flit ejection, and completion at the same
// cycle in the same order.
func TestActiveSetMatchesFullScan(t *testing.T) {
	specs := []string{"mesh", "torus:k=3,n=3", "ring:12", "hypercube:16"}
	loads := []float64{0.02, 0.3, 0.55}
	cycles := simCycles(5000)
	for _, spec := range specs {
		for _, load := range loads {
			spec, load := spec, load
			t.Run(fmt.Sprintf("%s/load%v", spec, load), func(t *testing.T) {
				t.Parallel()
				topo := mustTopo(t, spec)
				cfg := Config{
					Topo:          topo,
					Router:        router.DefaultConfig(router.SpeculativeVC),
					Seed:          9,
					InjectionRate: load * topo.UniformCapacity() / 5,
				}
				fullScan := cfg
				fullScan.FullScan = true
				compareTraces(t, "active-set", eventTrace(t, fullScan, cycles), eventTrace(t, cfg, cycles))
			})
		}
	}
}

// TestActiveSetMatchesFullScanWormhole covers the wormhole and
// single-cycle router kinds (the VC kinds are covered cross-topology
// above): their port-holding state machines must survive being skipped
// while idle.
func TestActiveSetMatchesFullScanWormhole(t *testing.T) {
	kinds := []router.Kind{router.Wormhole, router.SingleCycleWormhole, router.SingleCycleVC}
	cycles := simCycles(5000)
	for _, kind := range kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			cfg := Config{K: 4, Router: router.DefaultConfig(kind), Seed: 3, InjectionRate: 0.3 * 1.0 / 5}
			fullScan := cfg
			fullScan.FullScan = true
			compareTraces(t, "active-set serial", eventTrace(t, fullScan, cycles), eventTrace(t, cfg, cycles))
		})
	}
}

// TestActiveSetMultiFlitDelay exercises the wake wheel with flit and
// credit propagation delays above one cycle (arrivals wake routers
// several cycles after the push).
func TestActiveSetMultiFlitDelay(t *testing.T) {
	cycles := simCycles(5000)
	cfg := Config{
		K:             4,
		Router:        router.DefaultConfig(router.SpeculativeVC),
		Seed:          21,
		InjectionRate: 0.3 * 1.0 / 5,
		FlitDelay:     3,
		CreditDelay:   4,
	}
	fullScan := cfg
	fullScan.FullScan = true
	ref := eventTrace(t, fullScan, cycles)
	compareTraces(t, "active-set serial", ref, eventTrace(t, cfg, cycles))
}

// TestActiveSetBernoulli pins the Bernoulli guarantee: sources that
// draw their RNG every cycle never park, so the random stream — and the
// whole event trace — is untouched by the scheduler.
func TestActiveSetBernoulli(t *testing.T) {
	cycles := simCycles(5000)
	cfg := Config{K: 4, Router: router.DefaultConfig(router.SpeculativeVC),
		Seed: 17, InjectionRate: 0.2 * 1.0 / 5, Source: traffic.SourceSpec{Kind: "bernoulli"}}
	fullScan := cfg
	fullScan.FullScan = true
	ref := eventTrace(t, fullScan, cycles)
	compareTraces(t, "active-set serial", ref, eventTrace(t, cfg, cycles))

	// Bernoulli sources are permanently active, so the network never
	// reports a quiescent span.
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for now := int64(0); now < 200; now++ {
		net.Step(now)
		if next := net.NextDue(now); next != now+1 {
			t.Fatalf("Bernoulli network reported quiescence at cycle %d (next due %d)", now, next)
		}
	}
}

// TestFastForwardTraceIdentity drives a low-rate network by jumping
// straight between NextDue cycles and checks (a) the event trace is
// identical to stepping every cycle, (b) the jumps actually skip a
// large majority of the cycles, and (c) every claimed quiescent span is
// real — no router holds a deliverable flit (link.Wire due times) when
// the network reports quiescence.
func TestFastForwardTraceIdentity(t *testing.T) {
	// ~1 packet per source per 10,000 cycles: the network goes fully
	// quiescent between injection bursts.
	cfg := Config{K: 4, Router: router.DefaultConfig(router.SpeculativeVC),
		Seed: 13, InjectionRate: 0.0001}
	const cycles = 40000

	fullScan := cfg
	fullScan.FullScan = true
	ref := eventTrace(t, fullScan, cycles)

	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var trace []string
	hookTrace(net, &trace)
	stepped := int64(0)
	for now := int64(0); now < cycles; {
		net.Step(now)
		stepped++
		next := net.NextDue(now)
		if next > now+1 {
			// Claimed quiescence: no router may hold a deliverable flit
			// before the claimed cycle.
			for id := 0; id < net.Nodes(); id++ {
				if due := net.Router(id).NextArrival(); due != link.NeverDue {
					t.Fatalf("cycle %d: claimed quiescent until %d but router %d has a flit due at %d",
						now, next, id, due)
				}
			}
		}
		if next > cycles {
			break
		}
		now = next
	}
	compareTraces(t, "fast-forward", ref, trace)
	if stepped > cycles/10 {
		t.Fatalf("fast-forward stepped %d of %d cycles; expected to skip most of them", stepped, cycles)
	}
}
