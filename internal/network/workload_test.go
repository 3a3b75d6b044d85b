package network

import (
	"fmt"
	"strings"
	"testing"

	"routersim/internal/flit"
	"routersim/internal/router"
	"routersim/internal/topology"
	"routersim/internal/trace"
	"routersim/internal/traffic"
)

// mustTopo builds a topology from its spec.
func mustTopo(t *testing.T, spec string) topology.Topology {
	t.Helper()
	topo, err := topology.New(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestWorkloadIdentity is the identity gate for the workload axes:
// bursty sources, size distributions, and per-router overrides must
// produce the full-scan reference engine's exact event sequence on the
// active-set scheduler. The MMPP/batch cases specifically certify
// parked multi-packet wakes; the override cases certify the generalized
// wake wheel (per-router link delays) and the heterogeneous credit
// sizing.
func TestWorkloadIdentity(t *testing.T) {
	cycles := simCycles(5000)
	base := func(kind router.Kind) Config {
		return Config{K: 4, Router: router.DefaultConfig(kind), Seed: 23, InjectionRate: 0.5 * 1.0 / 5}
	}
	cases := []struct {
		name string
		cfg  func() Config
	}{
		{"mmpp", func() Config {
			c := base(router.SpeculativeVC)
			c.Source = traffic.SourceSpec{Kind: "mmpp", On: 20, Off: 60}
			return c
		}},
		{"batch", func() Config {
			c := base(router.VirtualChannel)
			c.Source = traffic.SourceSpec{Kind: "batch", BatchSize: 4}
			return c
		}},
		{"uniform-sizes", func() Config {
			c := base(router.SpeculativeVC)
			c.Sizes = traffic.UniformSize{Min: 1, Max: 9}
			return c
		}},
		{"bimodal-sizes-bernoulli", func() Config {
			c := base(router.VirtualChannel)
			c.Source = traffic.SourceSpec{Kind: "bernoulli"}
			c.Sizes = traffic.BimodalSize{Small: 1, Large: 9, P: 0.2}
			return c
		}},
		{"hetero-vcs-bufs", func() Config {
			c := base(router.SpeculativeVC)
			c.Overrides = []RouterOverride{
				{Node: 0, VCs: 4, BufPerVC: 8},
				{Node: 5, VCs: 1},
				{Node: 10, BufPerVC: 1},
			}
			return c
		}},
		{"hetero-link-delays", func() Config {
			c := base(router.VirtualChannel)
			c.Overrides = []RouterOverride{
				{Node: 3, LinkDelay: 3},
				{Node: 7, LinkDelay: 2},
				{Node: 12, LinkDelay: 5},
			}
			return c
		}},
		{"hetero-wormhole", func() Config {
			c := base(router.Wormhole)
			c.Overrides = []RouterOverride{
				{Node: 1, BufPerVC: 2, LinkDelay: 2},
				{Node: 9, BufPerVC: 16},
			}
			return c
		}},
		{"mmpp-sizes-overrides", func() Config {
			c := base(router.SpeculativeVC)
			c.Source = traffic.SourceSpec{Kind: "mmpp", On: 40, Off: 40}
			c.Sizes = traffic.BimodalSize{Small: 2, Large: 8, P: 0.3}
			c.Overrides = []RouterOverride{
				{Node: 2, VCs: 4, BufPerVC: 2, LinkDelay: 2},
				{Node: 13, BufPerVC: 8},
			}
			return c
		}},
		{"hetero-ring", func() Config {
			c := base(router.VirtualChannel)
			c.K = 0
			c.Topo = mustTopo(t, "ring:12")
			c.Overrides = []RouterOverride{
				{Node: 4, BufPerVC: 8, LinkDelay: 2},
			}
			return c
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := tc.cfg()
			ref := cfg
			ref.FullScan = true
			compareTraces(t, tc.name+"/active", eventTrace(t, ref, cycles), eventTrace(t, cfg, cycles))
		})
	}
}

// TestTraceRecordReplayIdentity closes the record→replay loop at the
// event level: capture a bursty variable-size workload, replay it, and
// require the replay to reproduce the original run's complete event
// sequence — every creation, ejection, and completion at the same cycle
// in the same order — under every engine variant.
func TestTraceRecordReplayIdentity(t *testing.T) {
	cycles := simCycles(6000)
	cfg := Config{
		K:             4,
		Router:        router.DefaultConfig(router.SpeculativeVC),
		Seed:          77,
		InjectionRate: 0.4 * 1.0 / 5,
		Source:        traffic.SourceSpec{Kind: "mmpp", On: 30, Off: 50},
		Sizes:         traffic.BimodalSize{Small: 1, Large: 9, P: 0.25},
	}

	// Record while tracing the original run.
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(net.Nodes())
	var original []string
	net.OnPacketCreated = func(p *flit.Packet, now int64) {
		rec.Record(now, p.Src, p.Dst, p.Size, p.ID)
		original = append(original, fmt.Sprintf("c %d %d %d %d", now, p.ID, p.Src, p.Dst))
	}
	net.OnFlitEjected = func(f flit.Flit, now int64) {
		original = append(original, fmt.Sprintf("e %d %d %d", now, f.Pkt.ID, f.Seq))
	}
	net.OnPacketDone = func(p *flit.Packet, now int64) {
		original = append(original, fmt.Sprintf("d %d %d %d", now, p.ID, p.Latency(now)))
	}
	for now := int64(0); now < cycles; now++ {
		net.Step(now)
	}
	captured := rec.Trace()
	if err := captured.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(captured.Events) == 0 {
		t.Fatal("recorded no injections")
	}

	// A different seed must not matter during replay: the replayer
	// consumes no RNG.
	replayCfg := Config{
		K:      4,
		Router: cfg.Router,
		Seed:   cfg.Seed + 1000,
		Source: traffic.SourceSpec{Kind: "trace", File: "(in-memory)"},
		Replay: captured,
	}
	for _, v := range []struct {
		name     string
		fullScan bool
	}{
		{"fullscan-serial", true},
		{"active-serial", false},
	} {
		c := replayCfg
		c.FullScan = v.fullScan
		compareTraces(t, "replay/"+v.name, original, eventTrace(t, c, cycles))
	}
}

// TestParseOverridesGrammar covers the override grammar: accepted forms
// (ids, ranges, '*', later-wins merging) and every rejection path.
func TestParseOverridesGrammar(t *testing.T) {
	good := []struct {
		spec string
		want []RouterOverride
	}{
		{"", nil},
		{"3:vcs=4", []RouterOverride{{Node: 3, VCs: 4}}},
		{"3:vcs=4,buf=8;5:delay=2", []RouterOverride{{Node: 3, VCs: 4, BufPerVC: 8}, {Node: 5, LinkDelay: 2}}},
		{"0-2:buf=8", []RouterOverride{{Node: 0, BufPerVC: 8}, {Node: 1, BufPerVC: 8}, {Node: 2, BufPerVC: 8}}},
		// Later groups win per key; untouched keys survive.
		{"1:vcs=2,buf=4;1:vcs=8", []RouterOverride{{Node: 1, VCs: 8, BufPerVC: 4}}},
		{"*:delay=2;0:delay=1", append([]RouterOverride{{Node: 0, LinkDelay: 1}}, func() []RouterOverride {
			var out []RouterOverride
			for i := 1; i < 6; i++ {
				out = append(out, RouterOverride{Node: i, LinkDelay: 2})
			}
			return out
		}()...)},
	}
	for _, tc := range good {
		got, err := ParseOverrides(tc.spec, 6)
		if err != nil {
			t.Fatalf("ParseOverrides(%q): %v", tc.spec, err)
		}
		if len(got) != len(tc.want) {
			t.Fatalf("ParseOverrides(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("ParseOverrides(%q)[%d] = %+v, want %+v", tc.spec, i, got[i], tc.want[i])
			}
		}
	}

	bad := []struct {
		spec, errLike string
	}{
		{"3", "has no ':'"},
		{"3:", "wants KEY=VALUE"},
		{"3:vcs", "wants KEY=VALUE"},
		{"3:banana=2", `unknown parameter "banana"`},
		{"3:vcs=x", "parameter vcs"},
		{"3:vcs=0", "need >= 1"},
		{"9:vcs=2", "outside nodes [0,6)"},
		{"-1:vcs=2", "not LO-HI"},
		{"4-2:buf=8", "empty (lo > hi)"},
		{"2-9:buf=8", "outside nodes [0,6)"},
		{"a-b:buf=8", "not LO-HI"},
		{"x:vcs=2", "not a node id"},
	}
	for _, tc := range bad {
		_, err := ParseOverrides(tc.spec, 6)
		if err == nil {
			t.Fatalf("ParseOverrides(%q): want error containing %q, got nil", tc.spec, tc.errLike)
		}
		if !strings.Contains(err.Error(), tc.errLike) {
			t.Fatalf("ParseOverrides(%q): error %q does not mention %q", tc.spec, err, tc.errLike)
		}
	}
}

// TestWorkloadConfigRejections covers Normalize's workload validation.
func TestWorkloadConfigRejections(t *testing.T) {
	base := func() Config {
		return Config{K: 4, Router: router.DefaultConfig(router.SpeculativeVC), InjectionRate: 0.05}
	}
	smallTrace := &trace.Trace{Nodes: 16, Events: []trace.Event{{Cycle: 0, Src: 0, Dst: 1, Size: 5}}}

	cases := []struct {
		name    string
		mutate  func(*Config)
		errLike string
	}{
		{"unknown source kind", func(c *Config) { c.Source.Kind = "poisson" }, "unknown source kind"},
		{"trace without replay", func(c *Config) { c.Source.Kind = "trace" }, "needs a loaded trace"},
		{"replay without trace source", func(c *Config) { c.Replay = smallTrace }, "Replay is set but"},
		{"node mismatch", func(c *Config) {
			c.Source.Kind = "trace"
			c.Replay = &trace.Trace{Nodes: 9, Events: []trace.Event{{Cycle: 0, Src: 0, Dst: 1, Size: 5}}}
		}, "recorded on 9 nodes"},
		{"empty trace", func(c *Config) {
			c.Source.Kind = "trace"
			c.Replay = &trace.Trace{Nodes: 16}
		}, "empty"},
		{"trace with sizes", func(c *Config) {
			c.Source.Kind = "trace"
			c.Replay = smallTrace
			c.Sizes = traffic.UniformSize{Min: 1, Max: 3}
		}, "sizes distribution conflicts"},
		{"invalid trace", func(c *Config) {
			c.Source.Kind = "trace"
			c.Replay = &trace.Trace{Nodes: 16, Events: []trace.Event{{Cycle: 0, Src: 0, Dst: 99, Size: 5}}}
		}, "destination 99"},
		{"override out of range", func(c *Config) { c.Overrides = []RouterOverride{{Node: 99, VCs: 2}} }, "outside nodes"},
		{"override negative", func(c *Config) { c.Overrides = []RouterOverride{{Node: 1, VCs: -1}} }, "negative field"},
		{"override huge delay", func(c *Config) { c.Overrides = []RouterOverride{{Node: 1, LinkDelay: 9999}} }, "max 1024"},
		{"wormhole vc override", func(c *Config) {
			c.Router = router.DefaultConfig(router.Wormhole)
			c.Overrides = []RouterOverride{{Node: 1, VCs: 2}}
		}, "must have exactly 1 VC"},
		{"vc override on dateline topology", func(c *Config) {
			c.Topo = mustTopo(t, "ring:12")
			c.Overrides = []RouterOverride{{Node: 1, VCs: 4}}
		}, "dateline VC classes"},
		{"ports × VCs over 64", func(c *Config) { c.Router.VCs = 13 }, "5 ports × 13 VCs"},
		{"overridden ports × VCs over 64", func(c *Config) { c.Overrides = []RouterOverride{{Node: 0, VCs: 33}} },
			"override node 0: router: 5 ports × 33 VCs"},
		{"hypercube ports × VCs over 64", func(c *Config) {
			c.Topo = mustTopo(t, "hypercube:64")
			c.Router.VCs = 10
		}, "7 ports × 10 VCs"},
		{"infeasible mmpp rate", func(c *Config) {
			c.Source = traffic.SourceSpec{Kind: "mmpp", On: 1, Off: 99}
			c.InjectionRate = 0.5
		}, "cannot deliver"},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mutate(&cfg)
		_, err := New(cfg)
		if err == nil {
			t.Fatalf("%s: want error containing %q, got nil", tc.name, tc.errLike)
		}
		if !strings.Contains(err.Error(), tc.errLike) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.errLike)
		}
	}
}
