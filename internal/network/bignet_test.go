package network

import (
	"runtime"
	"strings"
	"testing"

	"routersim/internal/router"
	"routersim/internal/topology"
)

// TestNewMemoryLinear is the regression gate for the memory cliff that
// sat inside the default cap: network.New allocates nothing that grows
// faster than the node count, so a 4,096-node torus builds in well under
// 64 MB (730 MB when every router held route and VC-class tables).
func TestNewMemoryLinear(t *testing.T) {
	topo, err := topology.New("torus:k=64", 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Topo: topo, Router: router.DefaultConfig(router.SpeculativeVC), Seed: 1, InjectionRate: 0.01}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	net, err := New(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6; mb > 64 {
		t.Errorf("network.New(torus:k=64) allocated %.0f MB, want <= 64", mb)
	}
}

// TestFunctionalRoutingAtScale exercises a network past the default
// node cap, which only the cap= opt-in stands in front of: a 129×129
// mesh (16,641 nodes) must build, carry traffic, and stay
// event-trace-identical between the serial engine and the
// lookahead-sharded engine.
func TestFunctionalRoutingAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("16k-node network build is not short-mode material")
	}
	topo, err := topology.New("mesh:k=129,cap=16641", 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Topo:          topo,
		Router:        router.DefaultConfig(router.Wormhole),
		Seed:          13,
		InjectionRate: 0.05 * topo.UniformCapacity() / 5,
	}
	cycles := int64(300)
	ref := eventTrace(t, cfg, cycles)
	ejected := false
	for _, ev := range ref {
		if ev[0] == 'e' {
			ejected = true
			break
		}
	}
	if !ejected {
		t.Fatal("no ejections: the network never delivered a flit")
	}
	cfg.Shards = 4
	got := eventTrace(t, cfg, cycles)
	compareTraces(t, "functional mesh:k=129 shards=4", ref, got)
}

// TestFunctionalRoutingClasses covers the dateline VC classes at the
// same scale. The sharded engine must again match the serial trace
// exactly.
func TestFunctionalRoutingClasses(t *testing.T) {
	if testing.Short() {
		t.Skip("16k-node network build is not short-mode material")
	}
	topo, err := topology.New("torus:k=129,cap=16641", 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Topo:          topo,
		Router:        router.DefaultConfig(router.VirtualChannel),
		Seed:          17,
		InjectionRate: 0.05 * topo.UniformCapacity() / 5,
	}
	cycles := int64(150)
	ref := eventTrace(t, cfg, cycles)
	cfg.Shards = 2
	got := eventTrace(t, cfg, cycles)
	compareTraces(t, "functional torus:k=129 shards=2", ref, got)
}

// TestAdaptiveAtScale: adaptive routing's escape hop is the same
// computed dimension-order hop, so it runs past the default cap like
// everything else. Only a fault plan, which rebuilds nodes² bytes of
// next-hop tables, is still held to topology.MaxNodes.
func TestAdaptiveAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("16k-node network build is not short-mode material")
	}
	topo, err := topology.New("mesh:k=129,cap=16641", 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Topo:          topo,
		Router:        router.DefaultConfig(router.SpeculativeVC),
		Routing:       "adaptive:minimal",
		Seed:          13,
		InjectionRate: 0.05 * topo.UniformCapacity() / 5,
	}
	done := 0
	for _, ev := range eventTrace(t, cfg, 400) {
		if ev[0] == 'd' {
			done++
		}
	}
	if done == 0 {
		t.Fatal("adaptive routing past the default cap delivered no packet")
	}

	cfg.Faults = "link:0-1@cycle=100"
	err = cfg.Normalize()
	if err == nil {
		t.Fatal("fault plan on 16,641 nodes: expected an error, got none")
	}
	for _, sub := range []string{"fault injection", "nodes² bytes"} {
		if !strings.Contains(err.Error(), sub) {
			t.Errorf("error %q does not mention %q", err, sub)
		}
	}
}
