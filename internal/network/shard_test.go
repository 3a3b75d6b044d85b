package network

import (
	"fmt"
	"strings"
	"testing"

	"routersim/internal/flit"
	"routersim/internal/router"
	"routersim/internal/topology"
)

// TestShardedMatchesFullScan is the sharded engine's identity matrix:
// every topology family × load regime × shard count × within-shard
// worker count must reproduce the full-scan reference engine's exact
// event trace — every packet creation, flit ejection, and completion at
// the same cycle in the same order with the same packet IDs. Run under
// -race in CI, this also certifies the window barriers.
func TestShardedMatchesFullScan(t *testing.T) {
	specs := []string{"mesh:k=4", "torus", "ring:12", "hypercube:16"}
	loads := []float64{0.1, 0.4, 0.8}
	cycles := simCycles(4000)
	for _, spec := range specs {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			t.Parallel()
			topo, err := topology.New(spec, 4)
			if err != nil {
				t.Fatal(err)
			}
			for _, load := range loads {
				cfg := Config{
					Topo:          topo,
					Router:        router.DefaultConfig(router.SpeculativeVC),
					Seed:          23,
					InjectionRate: load * topo.UniformCapacity() / 5,
					FullScan:      true,
				}
				ref := eventTrace(t, cfg, cycles)
				if len(ref) == 0 {
					t.Fatalf("load %.1f: no traffic in reference run", load)
				}
				for _, shards := range []int{1, 2, 3, 4} {
					for _, workers := range []int{0, 2} {
						if shards == 3 && workers > 0 {
							continue // off-stride cuts; workers are covered at 2 and 4
						}
						cfg := cfg
						cfg.FullScan = false
						cfg.Shards = shards
						cfg.StepWorkers = workers
						got := eventTrace(t, cfg, cycles)
						label := fmt.Sprintf("load %.1f shards %d workers %d", load, shards, workers)
						compareTraces(t, label, ref, got)
					}
				}
			}
		})
	}
}

// TestShardLookaheadHeterogeneous pins the PR 6 interaction: with
// per-router link-delay overrides the window length must come from the
// minimum boundary link delay, not the global FlitDelay. A 4×4 mesh
// split into two row-slabs has its boundary between rows 1 and 2; node
// 4 drives a delay-1 link north across it while every other link runs
// at delay 3, so the lookahead must shrink to 1 — and the event trace
// must still match the serial engine exactly.
func TestShardLookaheadHeterogeneous(t *testing.T) {
	base := Config{
		K:             4,
		Router:        router.DefaultConfig(router.SpeculativeVC),
		Seed:          7,
		InjectionRate: 0.4 * 0.5 / 5,
		FlitDelay:     3,
		CreditDelay:   3,
	}
	cycles := simCycles(5000)

	// Homogeneous delay-3 boundary: the full window.
	cfg := base
	cfg.Shards = 2
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := net.Lookahead(); got != 3 {
		t.Fatalf("homogeneous lookahead = %d, want 3", got)
	}
	net.Close()

	// A delay-1 router on the boundary: the window must shrink.
	cfg = base
	cfg.Shards = 2
	cfg.Overrides = []RouterOverride{{Node: 4, VCs: base.Router.VCs, BufPerVC: base.Router.BufPerVC, LinkDelay: 1}}
	net, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := net.Lookahead(); got != 1 {
		t.Fatalf("heterogeneous lookahead = %d, want 1 (node 4 drives a delay-1 boundary link)", got)
	}
	net.Close()

	// And the shrunk window must stay byte-identical to the serial
	// engine under the same overrides.
	serial := base
	serial.Overrides = cfg.Overrides
	ref := eventTrace(t, serial, cycles)
	if len(ref) == 0 {
		t.Fatal("no traffic in reference run")
	}
	got := eventTrace(t, cfg, cycles)
	compareTraces(t, "hetero shards=2", ref, got)
}

// TestShardLookaheadCreditLag pins the PR 8 widening: the credit-side
// dependency bound is CreditDelay + creditLag (the receiver pops its
// credit wires creditLag cycles late), not the bare CreditDelay the
// old engine clamped to. With FlitDelay=4, CreditDelay=2, and a
// credit-processing depth of 3, the bounds are flit 4 vs credit 2+3=5,
// so the window must be exactly 4 — the old min(4, 2)=2 rule would
// have halved it. The widened window must stay byte-identical to the
// serial engine.
func TestShardLookaheadCreditLag(t *testing.T) {
	rc := router.DefaultConfig(router.VirtualChannel)
	rc.CreditProcess = 3
	base := Config{
		K:             4,
		Router:        rc,
		Seed:          11,
		InjectionRate: 0.4 * 0.5 / 5,
		FlitDelay:     4,
		CreditDelay:   2,
	}
	cfg := base
	cfg.Shards = 2
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := net.Lookahead(); got != 4 {
		t.Fatalf("deep-credit-pipeline lookahead = %d, want 4 (flit bound 4 < credit bound 2+3)", got)
	}
	if got := net.PairLookahead(0, 1); got != 4 {
		t.Fatalf("PairLookahead(0,1) = %d, want 4", got)
	}
	net.Close()

	cycles := simCycles(5000)
	ref := eventTrace(t, base, cycles)
	if len(ref) == 0 {
		t.Fatal("no traffic in reference run")
	}
	got := eventTrace(t, cfg, cycles)
	compareTraces(t, "credit-lag shards=2", ref, got)
}

// TestShardPairLookaheadHeterogeneous pins the per-pair windows: a
// delay-1 router on ONE boundary of an 8×8 mesh split into four
// row-slab shards must shrink only the pair window it constrains. Node
// 40 (row 5) drives a delay-1 link north across the shard-2/shard-3
// boundary, so that pair's bound drops to 1 while every other pair —
// including the reverse direction across the same boundary — keeps the
// full delay-3 flit bound. The global floor is the min pair bound.
func TestShardPairLookaheadHeterogeneous(t *testing.T) {
	base := Config{
		K:             8,
		Router:        router.DefaultConfig(router.SpeculativeVC),
		Seed:          13,
		InjectionRate: 0.3 * 0.5 / 5,
		FlitDelay:     3,
		CreditDelay:   3,
	}
	cfg := base
	cfg.Shards = 4
	cfg.Overrides = []RouterOverride{{Node: 40, VCs: base.Router.VCs, BufPerVC: base.Router.BufPerVC, LinkDelay: 1}}
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Flit bound 3, credit bound 3+creditLag(1) = 4 on unconstrained
	// pairs; the delay-1 link pulls only (2→3) down to 1.
	wants := []struct {
		from, to int
		want     int64
	}{
		{0, 1, 3}, {1, 0, 3}, {1, 2, 3}, {2, 1, 3}, {3, 2, 3},
		{2, 3, 1},
	}
	for _, w := range wants {
		if got := net.PairLookahead(w.from, w.to); got != w.want {
			t.Errorf("PairLookahead(%d,%d) = %d, want %d", w.from, w.to, got, w.want)
		}
	}
	if got := net.PairLookahead(0, 2); got != 0 {
		t.Errorf("PairLookahead(0,2) = %d, want 0 (no shared boundary)", got)
	}
	if got := net.Lookahead(); got != 1 {
		t.Errorf("global lookahead floor = %d, want 1", got)
	}
	net.Close()

	// The per-pair windows must stay byte-identical to the serial
	// engine under the same overrides.
	cycles := simCycles(5000)
	serial := base
	serial.Overrides = cfg.Overrides
	ref := eventTrace(t, serial, cycles)
	if len(ref) == 0 {
		t.Fatal("no traffic in reference run")
	}
	got := eventTrace(t, cfg, cycles)
	compareTraces(t, "per-pair hetero shards=4", ref, got)
}

// TestShardedFastForward drives the sharded engine the way the sim run
// loop does — jumping straight to NextDue over quiescent spans — and
// checks the event trace against the serial every-cycle engine: window
// buffering, barrier wakes, and parked sources must compose with
// quiescence fast-forward.
func TestShardedFastForward(t *testing.T) {
	base := Config{
		K:             4,
		Router:        router.DefaultConfig(router.VirtualChannel),
		Seed:          31,
		InjectionRate: 0.01, // sparse: long quiescent gaps between packets
	}
	cycles := simCycles(30000)
	ref := eventTrace(t, base, cycles)
	if len(ref) == 0 {
		t.Fatal("no traffic in reference run")
	}

	cfg := base
	cfg.Shards = 4
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	var got []string
	hookTrace(net, &got)
	steps := int64(0)
	for now := int64(0); now < cycles; steps++ {
		net.Step(now)
		next := net.NextDue(now)
		if next <= now {
			t.Fatalf("NextDue(%d) = %d; must be in the future", now, next)
		}
		now = next
	}
	compareTraces(t, "fast-forward shards=4", ref, got)
	if steps >= cycles {
		t.Fatalf("no fast-forward happened: %d steps over %d cycles", steps, cycles)
	}
}

// TestShardedConfigValidation pins the sharding knob's error cases.
func TestShardedConfigValidation(t *testing.T) {
	rc := router.DefaultConfig(router.Wormhole)
	cases := []struct {
		name    string
		cfg     Config
		wantSub string
	}{
		{"negative", Config{K: 4, Router: rc, Shards: -1}, "negative shard count"},
		{"fullscan", Config{K: 4, Router: rc, Shards: 2, FullScan: true}, "active-set"},
		{"too many", Config{K: 4, Router: rc, Shards: 17}, "at most one shard per node"},
	}
	for _, c := range cases {
		if _, err := New(c.cfg); err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error %v does not mention %q", c.name, err, c.wantSub)
		}
	}
}

// TestPartitionNodes pins the shard ranges: row slabs on a mesh whose
// rows divide evenly, and one node per shard at the degenerate limit.
func TestPartitionNodes(t *testing.T) {
	for i, c := range partitionNodes(64, 4)[1:] {
		if want := int32(16 * (i + 1)); c != want {
			t.Fatalf("64 nodes × 4: cut %d = %d, want %d", i+1, c, want)
		}
	}
	for i, c := range partitionNodes(16, 16) {
		if c != int32(i) {
			t.Fatalf("16 nodes × 16: cut %d = %d, want %d", i, c, i)
		}
	}
}

// TestPartitionProperties is the shard ranges' property test: on every
// topology family's node count the ranges cover all nodes exactly
// once, sizes balance within ±1, and each part is a contiguous
// ascending range (the replay-concatenation invariant) that shardOf
// maps its nodes to.
func TestPartitionProperties(t *testing.T) {
	cases := []struct {
		spec    string
		shardsN []int
	}{
		{"mesh:k=6", []int{2, 3, 4, 7}},
		{"torus:k=4", []int{2, 3, 4}},
		{"hypercube:64", []int{2, 4, 8, 5}},
		{"ring:24", []int{2, 3, 6}},
	}
	for _, c := range cases {
		t.Run(c.spec, func(t *testing.T) {
			topo, err := topology.New(c.spec, 4)
			if err != nil {
				t.Fatal(err)
			}
			nodes := topo.Nodes()
			for _, shards := range c.shardsN {
				cuts := partitionNodes(nodes, shards)
				if len(cuts) != shards+1 || cuts[0] != 0 || int(cuts[shards]) != nodes {
					t.Fatalf("%d shards: cuts %v do not span [0, %d]", shards, cuts, nodes)
				}
				lo, hi := nodes/shards, (nodes+shards-1)/shards
				for i := 0; i < shards; i++ {
					if size := int(cuts[i+1] - cuts[i]); size < lo || size > hi {
						t.Errorf("%d shards: part %d has %d nodes, want %d..%d", shards, i, size, lo, hi)
					}
				}
				// The sizes above are positive, so the cuts ascend and the
				// parts are disjoint ascending ranges; each node must map
				// to the one that holds it.
				for id := 0; id < nodes; id++ {
					if s := shardOf(cuts, id); id < int(cuts[s]) || id >= int(cuts[s+1]) {
						t.Fatalf("%d shards: node %d mapped to part %d = [%d, %d)", shards, id, s, cuts[s], cuts[s+1])
					}
				}
			}
		})
	}
}

// hookTrace attaches the eventTrace recording callbacks to an existing
// network (for tests that drive Step/NextDue by hand).
func hookTrace(net *Network, trace *[]string) {
	net.OnPacketCreated = func(p *flit.Packet, now int64) {
		*trace = append(*trace, fmt.Sprintf("c %d %d %d %d", now, p.ID, p.Src, p.Dst))
	}
	net.OnFlitEjected = func(f flit.Flit, now int64) {
		*trace = append(*trace, fmt.Sprintf("e %d %d %d", now, f.Pkt.ID, f.Seq))
	}
	net.OnPacketDone = func(p *flit.Packet, now int64) {
		*trace = append(*trace, fmt.Sprintf("d %d %d %d", now, p.ID, p.Latency()))
	}
}
