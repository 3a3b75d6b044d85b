package network

import (
	"testing"

	"routersim/internal/router"
	"routersim/internal/topology"
	"routersim/internal/traffic"
)

// TestWiresNeverRegrow is the proof test of the wire sizing in build:
// a credit wire holds at most the fed input port's buffer slots (a
// credit exists only for a slot its counter lacks), a flit wire at most
// what one push per cycle leaves in flight, and a boundary wire of the
// sharded engine at most that plus the window lead. Runs under the
// auditor, over every shape that sizes a wire differently, must leave
// every wire in its arena slab: a ring that grew was sized below its
// bound. The load is bursty and past saturation while a burst lasts,
// so routers and sources fill their downstream buffers and then sleep
// while the credits pile up on their wires — the backlog the bound is
// for.
func TestWiresNeverRegrow(t *testing.T) {
	topo := func(spec string) topology.Topology {
		tp, err := topology.New(spec, 4)
		if err != nil {
			t.Fatal(err)
		}
		return tp
	}
	overrides, err := ParseOverrides("0-5:buf=2;6-11:buf=7;12:vcs=4,buf=3", 16)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		kind   router.Kind
		mutate func(c *Config)
	}{
		{"credit1", router.SpeculativeVC, func(c *Config) {}},
		{"credit4", router.VirtualChannel, func(c *Config) { c.CreditDelay = 4 }},
		{"overrides", router.SpeculativeVC, func(c *Config) { c.Overrides = overrides }},
		{"torus", router.SpeculativeVC, func(c *Config) { c.Topo = topo("torus"); c.Router.VCs = 4 }},
		{"ring", router.VirtualChannel, func(c *Config) { c.Topo = topo("ring:16") }},
		{"hypercube", router.SpeculativeVC, func(c *Config) { c.Topo = topo("hypercube:16") }},
		{"wormhole", router.Wormhole, func(c *Config) {}},
		{"shards2", router.SpeculativeVC, func(c *Config) { c.Shards = 2 }},
		{"shards2-credit4", router.SpeculativeVC, func(c *Config) { c.Shards = 2; c.CreditDelay = 4 }},
		{"faults", router.SpeculativeVC, func(c *Config) { c.Faults = "link:5-6@cycle=300;router:10@cycle=900" }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := Config{K: 4, Router: router.DefaultConfig(tc.kind), Seed: 5, Audit: 7,
				Source: traffic.SourceSpec{Kind: "mmpp", On: 25, Off: 75}}
			tc.mutate(&cfg)
			capacity := 0.5 // the 4×4 mesh's uniform capacity, flits/cycle/node
			if cfg.Topo != nil {
				capacity = cfg.Topo.UniformCapacity()
			}
			cfg.InjectionRate = 0.9 * capacity / 5 // 3.6× that within a burst
			net, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer net.Close()
			for now := int64(0); now < simCycles(3000); now++ {
				net.Step(now)
			}
			for i := range net.wires {
				if n := net.wires[i].flits.Regrown(); n != 0 {
					t.Errorf("shard %d: %d flit wires outgrew their slab rings", i, n)
				}
				if n := net.wires[i].credits.Regrown(); n != 0 {
					t.Errorf("shard %d: %d credit wires outgrew their slab rings", i, n)
				}
			}
		})
	}
}
