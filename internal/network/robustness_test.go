package network

import (
	"testing"

	"routersim/internal/flit"
	"routersim/internal/rng"
	"routersim/internal/router"
	"routersim/internal/topology"
	"routersim/internal/traffic"
)

// TestRandomConfigurationsRunClean drives randomly drawn configurations
// (radix, router kind, VC count, buffer depth, delays, pattern, load)
// for thousands of cycles each. The routers enforce their own safety
// invariants with panics (FIFO overflow, negative credits, misrouted
// ejection); surviving the run is the assertion. This is the simulator's
// failure-injection net: any credit-accounting or state-machine bug
// trips it.
func TestRandomConfigurationsRunClean(t *testing.T) {
	r := rng.New(99)
	kinds := []router.Kind{
		router.Wormhole, router.VirtualChannel, router.SpeculativeVC,
		router.SingleCycleWormhole, router.SingleCycleVC,
	}
	sources := []traffic.SourceSpec{{Kind: "bernoulli"}, {}}
	iters := 30
	if testing.Short() {
		iters = 8
	}
	for i := 0; i < iters; i++ {
		kind := kinds[r.Intn(len(kinds))]
		rc := router.DefaultConfig(kind)
		if kind.UsesVCs() {
			rc.VCs = 1 + r.Intn(4)
			rc.BufPerVC = 1 + r.Intn(8)
		} else {
			rc.BufPerVC = 1 + r.Intn(16)
		}
		k := 2 + r.Intn(4)
		var topo topology.Topology = topology.NewMesh(k)
		if kind.UsesVCs() && rc.VCs%2 == 0 && rc.VCs >= 2 && r.Intn(3) == 0 {
			// Wraparound topologies (dateline VC classes) and the
			// hypercube join the draw once the VC count permits them.
			switch r.Intn(3) {
			case 0:
				topo = topology.NewTorus(k)
			case 1:
				ring, err := topology.NewRing(3 + r.Intn(10))
				if err != nil {
					t.Fatal(err)
				}
				topo = ring
			case 2:
				hc, err := topology.NewHypercube(1 << (2 + r.Intn(3)))
				if err != nil {
					t.Fatal(err)
				}
				topo = hc
			}
		} else if r.Intn(4) == 0 {
			cube, err := topology.NewCube(k, 3, false)
			if err != nil {
				t.Fatal(err)
			}
			topo = cube
		}
		patterns := []traffic.Pattern{
			traffic.Uniform{},
			traffic.BitComplement{},
			traffic.Hotspot{Node: r.Intn(topo.Nodes()), Frac: 0.25},
		}
		cfg := Config{
			K:             k,
			Topo:          topo,
			Router:        rc,
			PacketSize:    1 + r.Intn(8),
			InjectionRate: r.Float64() * 0.15,
			Pattern:       patterns[r.Intn(len(patterns))],
			FlitDelay:     1 + r.Intn(2),
			CreditDelay:   1 + r.Intn(4),
			Source:        sources[r.Intn(2)],
			Seed:          r.Uint64(),
		}
		net, err := New(cfg)
		if err != nil {
			t.Fatalf("iter %d: config rejected: %v (%+v)", i, err, cfg)
		}
		done := 0
		nextSeq := map[int64]int{}
		net.OnFlitEjected = func(f flit.Flit, now int64) {
			if int(f.Seq) != nextSeq[f.Pkt.ID] {
				t.Fatalf("iter %d: packet %d flit disorder", i, f.Pkt.ID)
			}
			nextSeq[f.Pkt.ID]++
		}
		net.OnPacketDone = func(p *flit.Packet, now int64) { done++ }
		cycles := int64(3000)
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Fatalf("iter %d: invariant panic with %v k=%d vcs=%d buf=%d topo=%s pkt=%d: %v",
						i, kind, k, rc.VCs, rc.BufPerVC, topo.Name(), cfg.PacketSize, rec)
				}
			}()
			for now := int64(0); now < cycles; now++ {
				net.Step(now)
			}
		}()
		if cfg.InjectionRate > 0.01 && done == 0 {
			t.Errorf("iter %d: no packets completed (%v on %s at rate %.3f)",
				i, kind, topo.Name(), cfg.InjectionRate)
		}
	}
}
