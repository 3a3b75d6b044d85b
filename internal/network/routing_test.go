package network

import (
	"fmt"
	"testing"

	"routersim/internal/flit"
	"routersim/internal/router"
	"routersim/internal/topology"
	"routersim/internal/traffic"
)

// routingCanonCases and routingBadSpecs are the grammar's table tests;
// they also seed FuzzParseRouting.
var routingCanonCases = []struct{ spec, want string }{
	{"", ""},
	{"dor", ""},
	{"adaptive", "adaptive:minimal"},
	{"adaptive:minimal", "adaptive:minimal"},
}

var routingBadSpecs = []string{"adaptive:full", "xy", "random"}

func TestParseRoutingCanonical(t *testing.T) {
	for _, c := range routingCanonCases {
		got, err := CanonicalRouting(c.spec)
		if err != nil {
			t.Errorf("CanonicalRouting(%q): %v", c.spec, err)
			continue
		}
		if got != c.want {
			t.Errorf("CanonicalRouting(%q) = %q, want %q", c.spec, got, c.want)
		}
	}
	for _, bad := range routingBadSpecs {
		if _, err := ParseRouting(bad); err == nil {
			t.Errorf("ParseRouting(%q): expected error, got none", bad)
		}
	}
}

// FuzzParseRouting: any string either fails to parse with an error or
// canonicalizes to a fixed point of the grammar — never a panic.
func FuzzParseRouting(f *testing.F) {
	for _, c := range routingCanonCases {
		f.Add(c.spec)
	}
	for _, spec := range routingBadSpecs {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		canon, err := CanonicalRouting(spec)
		if err != nil {
			return
		}
		if again, err := CanonicalRouting(canon); err != nil || again != canon {
			t.Errorf("CanonicalRouting(%q) = %q, which re-canonicalizes to %q, %v", spec, canon, again, err)
		}
	})
}

// TestAdaptiveConfigValidation pins the configuration gates: adaptive
// routing needs a VC router kind, room for at least one adaptive VC
// above the escape classes, and a uniform VC split.
func TestAdaptiveConfigValidation(t *testing.T) {
	// Wormhole routers have no VCs to split.
	cfg := testConfig(router.Wormhole, 0.02)
	cfg.Routing = "adaptive:minimal"
	if err := cfg.Normalize(); err == nil {
		t.Error("adaptive on wormhole: expected error, got none")
	}

	// A torus needs 2 escape classes + 1 adaptive VC; 2 VCs are too few.
	topo, err := topology.New("torus", 4)
	if err != nil {
		t.Fatal(err)
	}
	rc := router.DefaultConfig(router.VirtualChannel)
	rc.VCs = 2
	tcfg := Config{Topo: topo, Router: rc, InjectionRate: 0.02, Routing: "adaptive:minimal"}
	if err := tcfg.Normalize(); err == nil {
		t.Error("adaptive on torus with 2 VCs: expected error, got none")
	}

	// Per-router VC overrides break the uniform escape/adaptive split.
	ocfg := testConfig(router.VirtualChannel, 0.02)
	ocfg.Routing = "adaptive:minimal"
	ocfg.Overrides = []RouterOverride{{Node: 0, VCs: 4, BufPerVC: 4}}
	if err := ocfg.Normalize(); err == nil {
		t.Error("adaptive with per-router VC override: expected error, got none")
	}
}

// TestAdaptiveSoak is the satellite livelock/deadlock soak: adversarial
// patterns (hotspot, transpose) at 95% of capacity on a mesh, a torus,
// and a hypercube, all under adaptive routing. Far past saturation the
// network must keep delivering — a deadlock freezes completions and a
// livelock starves them, so the gate is sustained progress in every
// window of the run.
func TestAdaptiveSoak(t *testing.T) {
	cycles := simCycles(15000)
	window := cycles / 8
	topos := []struct {
		spec string
		vcs  int
	}{
		{"mesh:k=8", 2},
		{"torus:k=4", 4},
		{"hypercube:16", 2},
	}
	for _, tp := range topos {
		for _, pattern := range []string{"hotspot", "transpose"} {
			tp, pattern := tp, pattern
			t.Run(tp.spec+"/"+pattern, func(t *testing.T) {
				t.Parallel()
				topo, err := topology.New(tp.spec, 8)
				if err != nil {
					t.Fatal(err)
				}
				pat, err := traffic.New(pattern, topo.Nodes())
				if err != nil {
					t.Fatal(err)
				}
				rc := router.DefaultConfig(router.SpeculativeVC)
				rc.VCs = tp.vcs
				cfg := Config{
					Topo:          topo,
					Router:        rc,
					Seed:          29,
					Pattern:       pat,
					InjectionRate: 0.95 * topo.UniformCapacity() / 5,
					Routing:       "adaptive:minimal",
				}
				n, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer n.Close()
				var done, doneAtWindowStart int64
				n.OnPacketDone = func(p *flit.Packet, now int64) { done++ }
				for now := int64(0); now < cycles; now++ {
					n.Step(now)
					if now > 0 && now%window == 0 {
						if done == doneAtWindowStart {
							t.Fatalf("no packet completed in cycles [%d,%d): wedged at 95%% load", now-window, now)
						}
						doneAtWindowStart = done
					}
				}
				if done == 0 {
					t.Fatal("no packets completed at all")
				}
			})
		}
	}
}

// TestAdaptiveMatchesCapacityAtLowLoad sanity-checks that adaptive
// routing delivers everything a sub-saturation uniform workload offers:
// same packet count as dor, no drops, no stalls.
func TestAdaptiveDeliversAtLowLoad(t *testing.T) {
	cycles := simCycles(4000)
	for _, spec := range []string{"mesh:k=4", "torus", "hypercube:16"} {
		topo, err := topology.New(spec, 4)
		if err != nil {
			t.Fatal(err)
		}
		rc := router.DefaultConfig(router.VirtualChannel)
		if topo.VCClasses() > 1 {
			rc.VCs = 4
		}
		cfg := Config{
			Topo:          topo,
			Router:        rc,
			Seed:          7,
			InjectionRate: 0.2 * topo.UniformCapacity() / 5,
			Routing:       "adaptive:minimal",
		}
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		created, done := 0, 0
		n.OnPacketCreated = func(p *flit.Packet, now int64) { created++ }
		n.OnPacketDone = func(p *flit.Packet, now int64) { done++ }
		for now := int64(0); now < cycles; now++ {
			n.Step(now)
		}
		n.Close()
		if created == 0 {
			t.Fatalf("%s: no traffic", spec)
		}
		// All but the in-flight tail must have completed.
		if done < created*9/10 {
			t.Errorf("%s: only %d of %d packets completed at 20%% load", spec, done, created)
		}
	}
}

// TestDORPolicyMatchesTopology is the routing seam's differential test:
// for every (cur, dst) of every topology family, the policy the routers
// consult returns exactly the topology's dimension-order port and, on
// dateline topologies, its class mask for that port (every VC
// elsewhere).
func TestDORPolicyMatchesTopology(t *testing.T) {
	const vcs = 4
	for _, spec := range []string{"mesh:k=5", "mesh:k=3,n=3", "torus:k=5", "ring:9", "hypercube:16"} {
		topo, err := topology.New(spec, 8)
		if err != nil {
			t.Fatal(err)
		}
		rc := router.DefaultConfig(router.VirtualChannel)
		rc.VCs = vcs
		net, err := New(Config{Topo: topo, Router: rc})
		if err != nil {
			t.Fatal(err)
		}
		for cur := 0; cur < topo.Nodes(); cur++ {
			for dst := 0; dst < topo.Nodes(); dst++ {
				r := net.Router(cur)
				port, mask := r.RoutingPolicy().Route(r, &flit.Packet{Src: cur, Dst: dst}, 0)
				wantMask := ^uint64(0)
				if topo.VCClasses() > 1 {
					wantMask = topo.VCMask(cur, dst, topo.Route(cur, dst), vcs)
				}
				if port != topo.Route(cur, dst) || mask != wantMask {
					t.Fatalf("%s: policy(%d→%d) = port %d mask %#x, want port %d mask %#x",
						spec, cur, dst, port, mask, topo.Route(cur, dst), wantMask)
				}
			}
		}
	}
}

// TestTablePolicyMatchesFunctional keeps the next-hop table as the
// reference for the computed routes: a fault scheduled past the end of
// the run makes every routing decision a table lookup without ever
// changing a route, so the run must be event-for-event identical to the
// unfaulted one, serial and sharded.
func TestTablePolicyMatchesFunctional(t *testing.T) {
	cycles := simCycles(3000)
	for _, spec := range []string{"mesh:k=4", "torus:k=4", "hypercube:16"} {
		topo, err := topology.New(spec, 8)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Topo:          topo,
			Router:        router.DefaultConfig(router.SpeculativeVC),
			Seed:          5,
			InjectionRate: 0.4 * topo.UniformCapacity() / 5,
		}
		for _, shards := range []int{0, 2} {
			cfg.Shards = shards
			cfg.Faults = ""
			ref := eventTrace(t, cfg, cycles)
			cfg.Faults = fmt.Sprintf("link:0-1@cycle=%d", 10*cycles)
			compareTraces(t, fmt.Sprintf("%s shards=%d table policy", spec, shards), ref, eventTrace(t, cfg, cycles))
		}
	}
}
