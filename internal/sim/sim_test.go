package sim

import (
	"math"
	"testing"

	"routersim/internal/network"
	"routersim/internal/router"
)

// lowLoadCfg builds a near-zero-load run used for zero-load latency
// measurements (paper Section 5.1). Small sample sizes keep unit tests
// fast — halved again under -short for the race-enabled CI loop; the
// latency bands hold at either scale. The experiment harness uses the
// paper's full protocol.
func lowLoadCfg(kind router.Kind, vcs, bufPerVC int) Config {
	rc := router.DefaultConfig(kind)
	rc.VCs = vcs
	rc.BufPerVC = bufPerVC
	cfg := Config{
		Net: network.Config{
			K:      8,
			Router: rc,
			Seed:   1,
		},
		WarmupCycles:   2000,
		MeasurePackets: 800,
	}
	if testing.Short() {
		cfg.WarmupCycles = 1200
		cfg.MeasurePackets = 400
	}
	return cfg
}

func runLoad(t *testing.T, cfg Config, loadFrac float64) Result {
	t.Helper()
	cfg.Net.InjectionRate = loadFrac * 0.5 / 5 // fraction of capacity → pkts/node/cycle
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated {
		t.Fatalf("unexpected saturation at load %.2f: %+v", loadFrac, res)
	}
	return res
}

// TestZeroLoadLatencies reproduces the zero-load latency comparison of
// Figures 13 and 14: wormhole ≈ 29 cycles, non-speculative VC ≈ 35–36
// (one extra pipeline stage per hop), speculative VC ≈ 29–30 (back to
// wormhole latency), and the single-cycle model ≈ 16. Tolerances allow
// for second-order credit-loop effects.
func TestZeroLoadLatencies(t *testing.T) {
	cases := []struct {
		name     string
		kind     router.Kind
		vcs, buf int
		min, max float64
	}{
		{"wormhole 8buf", router.Wormhole, 1, 8, 28, 30.5},
		{"vc 2x8", router.VirtualChannel, 2, 8, 34.5, 37},
		{"specvc 2x8", router.SpeculativeVC, 2, 8, 28, 30.5},
		{"vc 2x4", router.VirtualChannel, 2, 4, 34.5, 40.5},
		{"specvc 2x4", router.SpeculativeVC, 2, 4, 28, 32.5},
		{"single-cycle wh", router.SingleCycleWormhole, 1, 8, 15, 17.5},
		{"single-cycle vc 2x4", router.SingleCycleVC, 2, 4, 15, 17.5},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			res := runLoad(t, lowLoadCfg(c.kind, c.vcs, c.buf), 0.05)
			got := res.Latency.MeanLatency
			if got < c.min || got > c.max {
				t.Errorf("zero-load latency %.2f cycles, want in [%.1f, %.1f]", got, c.min, c.max)
			}
		})
	}
}

// TestSpeculativeMatchesWormholeAtZeroLoad is the paper's headline
// latency claim: the speculative VC router has the same per-hop latency
// as a wormhole router, while the non-speculative VC router pays one
// extra cycle per hop (≈ 6.3 cycles over the average 5.33-hop path plus
// one more traversal).
func TestSpeculativeMatchesWormholeAtZeroLoad(t *testing.T) {
	wh := runLoad(t, lowLoadCfg(router.Wormhole, 1, 8), 0.05).Latency.MeanLatency
	spec := runLoad(t, lowLoadCfg(router.SpeculativeVC, 2, 8), 0.05).Latency.MeanLatency
	vc := runLoad(t, lowLoadCfg(router.VirtualChannel, 2, 8), 0.05).Latency.MeanLatency
	if math.Abs(spec-wh) > 1.0 {
		t.Errorf("spec VC zero-load %.2f vs wormhole %.2f: want equal within 1 cycle", spec, wh)
	}
	if vc-wh < 4.5 || vc-wh > 8.5 {
		t.Errorf("non-spec VC %.2f vs wormhole %.2f: want ≈ +6.3 cycles (one stage/hop)", vc, wh)
	}
}

// TestCreditTurnaround reproduces the buffer-turnaround times of
// Section 5.2 / Figure 16: 4 cycles for wormhole and speculative VC
// routers, 5 for the non-speculative VC router, 2 for single-cycle
// routers. The probe records the reuse interval of each buffer slot; the
// minimum over a congested run is the architectural turnaround.
func TestCreditTurnaround(t *testing.T) {
	cases := []struct {
		name string
		kind router.Kind
		vcs  int
		buf  int
		want int64
	}{
		{"wormhole", router.Wormhole, 1, 4, 4},
		{"vc", router.VirtualChannel, 2, 4, 5},
		{"specvc", router.SpeculativeVC, 2, 4, 4},
		{"single-cycle wh", router.SingleCycleWormhole, 1, 4, 2},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			cfg := lowLoadCfg(c.kind, c.vcs, c.buf)
			cfg.Probe = true
			cfg.WarmupCycles = 500
			cfg.MeasurePackets = 500
			// Drive hard enough to back-pressure buffers.
			cfg.Net.InjectionRate = 0.9 * 0.5 / 5
			cfg.MaxCycles = 30000
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.MinTurnaround != c.want {
				t.Errorf("min buffer turnaround %d cycles, want %d", res.MinTurnaround, c.want)
			}
		})
	}
}

// TestCreditPropagationDelayTurnaround verifies the Figure 18 setup: a
// 4-cycle credit propagation delay stretches the speculative router's
// credit loop from 4 to 7 cycles, as the paper states.
func TestCreditPropagationDelayTurnaround(t *testing.T) {
	cfg := lowLoadCfg(router.SpeculativeVC, 2, 4)
	cfg.Probe = true
	cfg.WarmupCycles = 500
	cfg.MeasurePackets = 500
	cfg.Net.CreditDelay = 4
	cfg.Net.InjectionRate = 0.9 * 0.5 / 5
	cfg.MaxCycles = 30000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MinTurnaround != 7 {
		t.Errorf("min turnaround with 4-cycle credit propagation = %d, want 7", res.MinTurnaround)
	}
}

// TestDeterminism: identical seeds must give bit-identical results.
func TestDeterminism(t *testing.T) {
	cfg := lowLoadCfg(router.SpeculativeVC, 2, 4)
	cfg.Net.InjectionRate = 0.4 * 0.5 / 5
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Latency.MeanLatency != b.Latency.MeanLatency || a.Cycles != b.Cycles ||
		a.TaggedDone != b.TaggedDone {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	cfg.Net.Seed = 999
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Latency.MeanLatency == a.Latency.MeanLatency && c.Cycles == a.Cycles {
		t.Error("different seeds produced identical results (suspicious)")
	}
}

// TestAllTaggedPacketsDelivered: below saturation every tagged packet
// must be received (flit conservation end to end).
func TestAllTaggedPacketsDelivered(t *testing.T) {
	for _, kind := range []router.Kind{router.Wormhole, router.VirtualChannel, router.SpeculativeVC} {
		cfg := lowLoadCfg(kind, 1, 8)
		if kind.UsesVCs() {
			cfg = lowLoadCfg(kind, 2, 4)
		}
		cfg.Net.InjectionRate = 0.3 * 0.5 / 5
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.TaggedDone != res.Tagged || res.Tagged != cfg.MeasurePackets {
			t.Errorf("%v: %d/%d tagged packets delivered", kind, res.TaggedDone, res.Tagged)
		}
		if res.Latency.Packets != res.TaggedDone {
			t.Errorf("%v: latency samples %d != delivered %d", kind, res.Latency.Packets, res.TaggedDone)
		}
	}
}

// TestAcceptedMatchesOfferedBelowSaturation: in steady state below
// saturation, accepted throughput equals offered load.
func TestAcceptedMatchesOfferedBelowSaturation(t *testing.T) {
	cfg := lowLoadCfg(router.SpeculativeVC, 2, 4)
	cfg.MeasurePackets = 3000
	res := runLoad(t, cfg, 0.3)
	if math.Abs(res.AcceptedLoad-0.3) > 0.03 {
		t.Errorf("accepted %.3f, offered 0.30", res.AcceptedLoad)
	}
}

// TestSaturationDetection: far beyond capacity the run must hit its
// cycle cap and be flagged saturated.
func TestSaturationDetection(t *testing.T) {
	cfg := lowLoadCfg(router.Wormhole, 1, 8)
	cfg.MeasurePackets = 2000
	cfg.Net.InjectionRate = 0.95 * 0.5 / 5
	cfg.MaxCycles = 20000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated {
		t.Errorf("wormhole at 95%% capacity should saturate: %+v", res)
	}
	if res.AcceptedLoad >= 0.9 {
		t.Errorf("accepted %.3f should be well below offered 0.95", res.AcceptedLoad)
	}
}

func TestSaturationLoadHelper(t *testing.T) {
	mk := func(mean float64, sat bool) Result {
		var r Result
		r.Latency.MeanLatency = mean
		r.Latency.Packets = 1
		r.Saturated = sat
		return r
	}
	pts := []LoadPoint{
		{Load: 0.2, Result: mk(30, false)},
		{Load: 0.4, Result: mk(45, false)},
		{Load: 0.6, Result: mk(500, true)},
	}
	if sat := SaturationLoad(pts, 140); sat != 0.4 {
		t.Fatalf("saturation %v, want 0.4", sat)
	}
}
