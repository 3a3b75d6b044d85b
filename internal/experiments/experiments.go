// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment couples the exact workload and parameters
// of the paper with the modules that implement them, and reports the
// same rows/series the paper plots.
package experiments

import (
	"fmt"

	"routersim/internal/harness"
	"routersim/internal/network"
	"routersim/internal/router"
	"routersim/internal/sim"
)

// Protocol is the measurement protocol of a simulation experiment.
type Protocol struct {
	// Warmup cycles before measurement begins.
	Warmup int64
	// Packets in the tagged sample.
	Packets int
	// Loads swept, as fractions of capacity.
	Loads []float64
	// Seed for reproducibility.
	Seed uint64
}

func defaultLoads() []float64 {
	var loads []float64
	for l := 0.10; l <= 0.901; l += 0.05 {
		loads = append(loads, float64(int(l*100+0.5))/100)
	}
	return loads
}

// PaperProtocol is the paper's protocol (Section 5): 10,000 warm-up
// cycles, 100,000 tagged packets, loads from 10% to 90% of capacity.
func PaperProtocol() Protocol {
	return Protocol{Warmup: 10000, Packets: 100000, Loads: defaultLoads(), Seed: 1}
}

// QuickProtocol is a scaled-down protocol for tests and benchmarks; the
// curves have the same shape with more sampling noise near saturation.
func QuickProtocol() Protocol {
	return Protocol{Warmup: 4000, Packets: 6000, Loads: defaultLoads(), Seed: 1}
}

// Curve is one latency-throughput series, matching one line of a figure.
type Curve struct {
	// Name is the legend label, matching the paper's (e.g.
	// "VC (2vcsX4bufs)").
	Name string
	// Points are the swept (offered load, result) pairs.
	Points []sim.LoadPoint
	// Saturation is the estimated saturation load (fraction of
	// capacity) using the paper's 140-cycle plot clip.
	Saturation float64
	// ZeroLoad is the latency of the lowest swept load, the curve's
	// left intercept.
	ZeroLoad float64
}

// FigureResult is one regenerated figure.
type FigureResult struct {
	ID     string // e.g. "figure13"
	Title  string
	Curves []Curve
}

// curveSpec describes one line of a simulated figure.
type curveSpec struct {
	name        string
	kind        router.Kind
	vcs, buf    int
	creditDelay int
}

func runCurves(pr Protocol, specs []curveSpec) ([]Curve, error) {
	curves := make([]Curve, len(specs))
	for i, cs := range specs {
		sc := harness.Scenario{
			Router:      cs.kind.String(),
			Topology:    "mesh",
			K:           8,
			Pattern:     "uniform",
			VCs:         cs.vcs,
			BufPerVC:    cs.buf,
			PacketSize:  5,
			CreditDelay: cs.creditDelay,
		}
		opts := harness.Options{
			Seed: pr.Seed,
			// Figures are the bit-identical reproduction path: exact
			// latency samples, no streaming approximation, no early
			// CI termination.
			Protocol: harness.Protocol{Warmup: pr.Warmup, Packets: pr.Packets, Exact: true},
		}
		pts, err := harness.Curve(sc, pr.Loads, opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: curve %q: %w", cs.name, err)
		}
		curves[i] = Curve{
			Name:       cs.name,
			Points:     pts,
			Saturation: sim.SaturationLoad(pts, 140),
		}
		if len(pts) > 0 {
			curves[i].ZeroLoad = pts[0].Result.Latency.MeanLatency
		}
	}
	return curves, nil
}

// Figure13 compares wormhole, VC, and speculative VC routers with
// 8 flit buffers per input port (WH 8, VC/spec 2 VCs × 4 buffers).
// Paper: zero-load 29 / 36 / 30 cycles; saturation ≈ 0.40 / 0.50 / 0.55.
func Figure13(pr Protocol) (FigureResult, error) {
	curves, err := runCurves(pr, []curveSpec{
		{"WH (8 bufs)", router.Wormhole, 1, 8, 1},
		{"VC (2vcsX4bufs)", router.VirtualChannel, 2, 4, 1},
		{"specVC (2vcsX4bufs)", router.SpeculativeVC, 2, 4, 1},
	})
	return FigureResult{ID: "figure13", Title: "Latency-throughput, 8 buffers per input port", Curves: curves}, err
}

// Figure14 uses 16 buffers per port with 2 VCs × 8 buffers.
// Paper: zero-load 29 / 35 / 29; saturation ≈ 0.50 / 0.65 / 0.70 — the
// speculative router's 40% improvement over wormhole.
func Figure14(pr Protocol) (FigureResult, error) {
	curves, err := runCurves(pr, []curveSpec{
		{"WH (16 bufs)", router.Wormhole, 1, 16, 1},
		{"VC (2vcsX8bufs)", router.VirtualChannel, 2, 8, 1},
		{"specVC (2vcsX8bufs)", router.SpeculativeVC, 2, 8, 1},
	})
	return FigureResult{ID: "figure14", Title: "Latency-throughput, 16 buffers per input port, 2 VCs", Curves: curves}, err
}

// Figure15 uses 16 buffers per port with 4 VCs × 4 buffers.
// Paper: both VC routers saturate ≈ 0.70 — enough buffering covers the
// credit loop, so speculation no longer buys throughput.
func Figure15(pr Protocol) (FigureResult, error) {
	curves, err := runCurves(pr, []curveSpec{
		{"WH (16 bufs)", router.Wormhole, 1, 16, 1},
		{"VC (4vcsX4bufs)", router.VirtualChannel, 4, 4, 1},
		{"specVC (4vcsX4bufs)", router.SpeculativeVC, 4, 4, 1},
	})
	return FigureResult{ID: "figure15", Title: "Latency-throughput, 16 buffers per input port, 4 VCs", Curves: curves}, err
}

// Figure17 compares the pipelined model against the single-cycle
// ("unit latency") model with 8 buffers per port. Paper: single-cycle
// zero-load 16 for both; single-cycle VC saturates ≈ 0.65 vs 0.50/0.55
// for the realistically pipelined routers.
func Figure17(pr Protocol) (FigureResult, error) {
	curves, err := runCurves(pr, []curveSpec{
		{"WH (8 bufs)", router.Wormhole, 1, 8, 1},
		{"VC (2vcsX4bufs)", router.VirtualChannel, 2, 4, 1},
		{"specVC (2vcsX4bufs)", router.SpeculativeVC, 2, 4, 1},
		{"WH (8 bufs) (single-cycle)", router.SingleCycleWormhole, 1, 8, 1},
		{"VC (2vcsX4bufs) (single-cycle)", router.SingleCycleVC, 2, 4, 1},
	})
	return FigureResult{ID: "figure17", Title: "Pipelined model vs single-cycle router model", Curves: curves}, err
}

// Figure18 sweeps the speculative VC router (2 VCs × 4 buffers) with
// credit propagation delays of 1 and 4 cycles. Paper: saturation drops
// from ≈ 0.55 to ≈ 0.45, an 18% throughput reduction.
func Figure18(pr Protocol) (FigureResult, error) {
	curves, err := runCurves(pr, []curveSpec{
		{"specVC (1-cycle credit propagation)", router.SpeculativeVC, 2, 4, 1},
		{"specVC (4-cycle credit propagation)", router.SpeculativeVC, 2, 4, 4},
	})
	return FigureResult{ID: "figure18", Title: "Effect of credit propagation delay", Curves: curves}, err
}

// SaturationPoint is one adaptive saturation-search outcome: a router
// configuration's knee located by bisection instead of a load grid.
type SaturationPoint struct {
	// Name is the configuration label, matching the figure legends.
	Name string
	// Load is the saturation load (fraction of capacity); the true
	// knee lies within Step above it.
	Load float64
	// Throughput is the accepted load measured at the knee.
	Throughput float64
	// Probes and Cycles are the search's cost.
	Probes int
	Cycles int64
}

// Saturations locates the saturation point of each Figure 13 router
// configuration with the harness's adaptive bisection
// (harness.FindSaturation) at the given load resolution — the paper's
// headline comparison (WH / VC / specVC knees) without sweeping a
// fixed grid past saturation. The searches share the protocol's seed
// chain, so the table is deterministic.
func Saturations(pr Protocol, step float64) ([]SaturationPoint, error) {
	specs := []curveSpec{
		{"WH (8 bufs)", router.Wormhole, 1, 8, 1},
		{"VC (2vcsX4bufs)", router.VirtualChannel, 2, 4, 1},
		{"specVC (2vcsX4bufs)", router.SpeculativeVC, 2, 4, 1},
	}
	out := make([]SaturationPoint, len(specs))
	for i, cs := range specs {
		sc := harness.Scenario{
			Router:      cs.kind.String(),
			Topology:    "mesh",
			K:           8,
			Pattern:     "uniform",
			VCs:         cs.vcs,
			BufPerVC:    cs.buf,
			PacketSize:  5,
			CreditDelay: cs.creditDelay,
		}
		opts := harness.Options{
			Seed:     pr.Seed,
			Protocol: harness.Protocol{Warmup: pr.Warmup, Packets: pr.Packets},
		}
		sr, err := harness.FindSaturation(sc, opts, harness.SearchOptions{Step: step})
		if err != nil {
			return nil, fmt.Errorf("experiments: saturation %q: %w", cs.name, err)
		}
		if sr.Error != "" {
			return nil, fmt.Errorf("experiments: saturation %q: %s", cs.name, sr.Error)
		}
		out[i] = SaturationPoint{
			Name:       cs.name,
			Load:       sr.Load,
			Throughput: sr.Throughput,
			Probes:     len(sr.Probes),
			Cycles:     sr.Cycles,
		}
	}
	return out, nil
}

// Figure16Turnaround measures the buffer turnaround time of every
// router kind with a congested probe run, reproducing the credit-loop
// timeline of Figure 16 / Section 5.2: 4 cycles for wormhole and
// speculative VC routers, 5 for the non-speculative VC router, and 2
// for the single-cycle model.
func Figure16Turnaround(pr Protocol) (map[string]int64, error) {
	cases := []struct {
		name string
		kind router.Kind
		vcs  int
	}{
		{"wormhole", router.Wormhole, 1},
		{"vc", router.VirtualChannel, 2},
		{"specvc", router.SpeculativeVC, 2},
		{"single-cycle", router.SingleCycleWormhole, 1},
	}
	out := make(map[string]int64, len(cases))
	for _, c := range cases {
		rc := router.DefaultConfig(c.kind)
		rc.VCs = c.vcs
		rc.BufPerVC = 4
		cfg := sim.Config{
			Net:            network.Config{K: 8, Router: rc, Seed: pr.Seed},
			WarmupCycles:   500,
			MeasurePackets: 500,
			MaxCycles:      30000,
			Probe:          true,
		}
		cfg.Net.InjectionRate = 0.9 * 0.5 / 5
		res, err := sim.Run(cfg)
		if err != nil {
			return nil, err
		}
		out[c.name] = res.MinTurnaround
	}
	return out, nil
}
