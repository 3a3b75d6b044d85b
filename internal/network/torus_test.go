package network

import (
	"testing"

	"routersim/internal/flit"
	"routersim/internal/router"
	"routersim/internal/topology"
)

func torusConfig(kind router.Kind, vcs int, rate float64) Config {
	rc := router.DefaultConfig(kind)
	rc.VCs = vcs
	rc.BufPerVC = 4
	return Config{
		K:             4,
		Topo:          topology.NewTorus(4),
		Router:        rc,
		InjectionRate: rate,
		Seed:          11,
	}
}

// TestTorusValidation: wormhole and odd VC counts are rejected.
func TestTorusValidation(t *testing.T) {
	bad := []Config{
		torusConfig(router.Wormhole, 1, 0.01),
		torusConfig(router.SingleCycleWormhole, 1, 0.01),
		torusConfig(router.VirtualChannel, 3, 0.01),
		torusConfig(router.VirtualChannel, 1, 0.01),
	}
	// The wormhole configs carry VCs != 1 from torusConfig; rebuild
	// them properly so only the torus rule trips.
	bad[0].Router.VCs = 1
	bad[1].Router.VCs = 1
	for i, b := range bad {
		if err := b.Normalize(); err == nil {
			t.Errorf("bad torus config %d validated", i)
		}
	}
	good := torusConfig(router.SpeculativeVC, 2, 0.01)
	if err := good.Normalize(); err != nil {
		t.Errorf("valid torus config rejected: %v", err)
	}
}

// TestTorusDeliversAllTraffic: VC and speculative VC routers on a torus
// with dateline classes must deliver all traffic without deadlock, even
// under sustained load on the wraparound rings.
func TestTorusDeliversAllTraffic(t *testing.T) {
	for _, kind := range []router.Kind{router.VirtualChannel, router.SpeculativeVC} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			// 0.2 flits/node/cycle. Dateline
			// classes leave non-wrapping traffic only half the VCs
			// (class 1), so the torus saturates well below its
			// bisection bound — the cost of this deadlock-avoidance
			// scheme. The point here is liveness, not peak throughput.
			net, err := New(torusConfig(kind, 2, 0.1*2.0/5))
			if err != nil {
				t.Fatal(err)
			}
			created, done := 0, 0
			net.OnPacketCreated = func(p *flit.Packet, now int64) { created++ }
			net.OnPacketDone = func(p *flit.Packet, now int64) { done++ }
			for now := int64(0); now < simCycles(20000); now++ {
				net.Step(now)
			}
			if created == 0 {
				t.Fatal("no packets created")
			}
			if float64(done) < 0.9*float64(created) {
				t.Fatalf("%v on torus: %d/%d packets delivered — possible deadlock",
					kind, done, created)
			}
		})
	}
}

// TestTorusUsesWrapLinks: with minimal routing on a torus, traffic
// between opposite edges must cross the wraparound links (shorter
// latency than the mesh path would give).
func TestTorusUsesWrapLinks(t *testing.T) {
	tor := topology.NewTorus(4)
	// Node (0,0) to (3,0): one hop west around the wrap.
	if d := tor.Distance(tor.Node(0, 0), tor.Node(3, 0)); d != 1 {
		t.Fatalf("wrap distance %d, want 1", d)
	}
	net, err := New(torusConfig(router.SpeculativeVC, 2, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	var maxLatency int64
	net.OnPacketDone = func(p *flit.Packet, now int64) {
		if l := p.Latency(now); l > maxLatency {
			maxLatency = l
		}
	}
	for now := int64(0); now < 8000; now++ {
		net.Step(now)
	}
	// On a 4x4 torus the diameter is 4 hops; with a 3-stage router the
	// worst zero-load packet latency must stay far below the 6-hop mesh
	// diameter equivalent (~40 cycles plus queueing).
	if maxLatency == 0 || maxLatency > 60 {
		t.Errorf("max latency %d cycles implausible for a 4x4 torus at near-zero load", maxLatency)
	}
}

// TestWrapTopologiesDeliverAllTraffic extends the torus liveness check
// to the other wraparound topology (the ring) and the hypercube, each
// built from its spec: sustained load must drain without deadlock.
func TestWrapTopologiesDeliverAllTraffic(t *testing.T) {
	specs := []string{"ring:12", "hypercube:16", "torus:k=3,n=3"}
	for _, spec := range specs {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			t.Parallel()
			topo, err := topology.New(spec, 0)
			if err != nil {
				t.Fatal(err)
			}
			rc := router.DefaultConfig(router.SpeculativeVC)
			cfg := Config{
				Topo:          topo,
				Router:        rc,
				InjectionRate: 0.1 * topo.UniformCapacity() / 5,
				Seed:          11,
			}
			net, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			created, done := 0, 0
			net.OnPacketCreated = func(p *flit.Packet, now int64) { created++ }
			net.OnPacketDone = func(p *flit.Packet, now int64) { done++ }
			for now := int64(0); now < simCycles(20000); now++ {
				net.Step(now)
			}
			if created == 0 {
				t.Fatal("no packets created")
			}
			if float64(done) < 0.9*float64(created) {
				t.Fatalf("%s: %d/%d packets delivered — possible deadlock", spec, done, created)
			}
		})
	}
}

// TestWormholeRejectedOnWrapTopologies: the deadlock-avoidance rule now
// lives behind the topology interface — every topology with VC classes
// must reject wormhole flow control, not just the 2-D torus.
func TestWormholeRejectedOnWrapTopologies(t *testing.T) {
	for _, spec := range []string{"ring:8", "torus:k=4,n=3"} {
		topo, err := topology.New(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		rc := router.DefaultConfig(router.Wormhole)
		cfg := Config{Topo: topo, Router: rc, InjectionRate: 0.01, Seed: 1}
		if err := cfg.Normalize(); err == nil {
			t.Errorf("%s accepted a wormhole router", spec)
		}
	}
	// The hypercube has no VC classes: wormhole is legal there.
	topo, err := topology.New("hypercube:16", 0)
	if err != nil {
		t.Fatal(err)
	}
	rc := router.DefaultConfig(router.Wormhole)
	cfg := Config{Topo: topo, Router: rc, InjectionRate: 0.01, Seed: 1}
	if err := cfg.Normalize(); err != nil {
		t.Errorf("hypercube rejected a wormhole router: %v", err)
	}
}
