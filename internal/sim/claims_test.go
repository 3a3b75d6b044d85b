package sim

import (
	"testing"

	"routersim/internal/network"
	"routersim/internal/router"
)

// This file asserts the paper's qualitative claims as executable tests,
// complementing the per-figure experiments.

func sweepSat(t *testing.T, kind router.Kind, vcs, buf int, creditDelay int) float64 {
	t.Helper()
	rc := router.DefaultConfig(kind)
	rc.VCs = vcs
	rc.BufPerVC = buf
	cfg := Config{
		Net:            network.Config{K: 8, Router: rc, CreditDelay: creditDelay, Seed: 2},
		WarmupCycles:   3000,
		MeasurePackets: 2500,
	}
	loads := []float64{0.35, 0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70, 0.75}
	pts := make([]LoadPoint, len(loads))
	for i, load := range loads {
		c := cfg
		c.Net.InjectionRate = RateForLoad(load, c.Net)
		res, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		pts[i] = LoadPoint{Load: load, Result: res}
	}
	return SaturationLoad(pts, 140)
}

// TestSpeculationGainDisappearsWithDeepBuffers is Figure 15's finding:
// with 8 buffers per VC the credit loop is covered and the speculative
// router no longer beats the non-speculative one on throughput, whereas
// with 4 buffers per VC (Figure 13) it does.
func TestSpeculationGainDisappearsWithDeepBuffers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	shallowVC := sweepSat(t, router.VirtualChannel, 2, 4, 1)
	shallowSpec := sweepSat(t, router.SpeculativeVC, 2, 4, 1)
	if shallowSpec <= shallowVC {
		t.Errorf("with shallow buffers speculation should add throughput: VC %.2f vs spec %.2f",
			shallowVC, shallowSpec)
	}
	deepVC := sweepSat(t, router.VirtualChannel, 4, 4, 1)
	deepSpec := sweepSat(t, router.SpeculativeVC, 4, 4, 1)
	if diff := deepSpec - deepVC; diff > 0.051 || diff < -0.051 {
		t.Errorf("with 16 buffers/port both VC routers should saturate together: VC %.2f vs spec %.2f",
			deepVC, deepSpec)
	}
}

// TestVirtualChannelsBeatWormhole is the paper's contradiction of
// Chien's conclusion: at equal buffer budgets, virtual-channel flow
// control delivers substantially more throughput than wormhole.
func TestVirtualChannelsBeatWormhole(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	wh := sweepSat(t, router.Wormhole, 1, 16, 1)
	vc := sweepSat(t, router.VirtualChannel, 2, 8, 1)
	spec := sweepSat(t, router.SpeculativeVC, 2, 8, 1)
	if vc <= wh {
		t.Errorf("VC (%.2f) should beat wormhole (%.2f) at 16 bufs/port", vc, wh)
	}
	if spec < vc {
		t.Errorf("speculative (%.2f) should be at least VC (%.2f)", spec, vc)
	}
	// The paper's headline: up to ~40% over wormhole. Allow a wide band
	// around it for the scaled protocol.
	if gain := (spec - wh) / wh; gain < 0.15 {
		t.Errorf("speculative gain over wormhole %.0f%%, expected substantial (paper ≈40%%)", 100*gain)
	}
}

// TestCreditDelayCostsThroughput is Figure 18 as a claim: stretching
// credit propagation 1→4 cycles costs the speculative router roughly
// the paper's 18% of saturation throughput.
func TestCreditDelayCostsThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	fast := sweepSat(t, router.SpeculativeVC, 2, 4, 1)
	slow := sweepSat(t, router.SpeculativeVC, 2, 4, 4)
	if slow >= fast {
		t.Fatalf("slow credits should cost throughput: %.2f vs %.2f", slow, fast)
	}
	if drop := (fast - slow) / fast; drop < 0.08 || drop > 0.35 {
		t.Errorf("throughput drop %.0f%% outside the expected band (paper ≈18%%)", 100*drop)
	}
}

// TestSingleCycleModelOverestimates is the Section 5.2 claim: the
// unit-latency model underestimates latency and overestimates
// throughput relative to the realistic pipeline.
func TestSingleCycleModelOverestimates(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	idealSat := sweepSat(t, router.SingleCycleVC, 2, 4, 1)
	realSat := sweepSat(t, router.VirtualChannel, 2, 4, 1)
	if idealSat <= realSat {
		t.Errorf("single-cycle model should overestimate throughput: %.2f vs %.2f", idealSat, realSat)
	}
	ideal := runLoad(t, lowLoadCfg(router.SingleCycleVC, 2, 4), 0.05).Latency.MeanLatency
	real := runLoad(t, lowLoadCfg(router.VirtualChannel, 2, 4), 0.05).Latency.MeanLatency
	// Paper: 16 vs 36 cycles — a ~56% underestimate.
	if ideal > 0.6*real {
		t.Errorf("single-cycle zero-load %.1f should be far below pipelined %.1f", ideal, real)
	}
}
