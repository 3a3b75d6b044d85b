// Benchmarks regenerating every table and figure of the paper, plus
// ablation studies of the design choices and micro-benchmarks of the
// hot simulator paths.
//
// The figure benchmarks run a scaled-down measurement protocol (the
// curve shapes match the paper; `sweep -figure N -full` runs the full
// protocol) and report the reproduced quantities as custom metrics:
// zero-load latency in cycles and saturation load in percent of
// capacity.
package routersim_test

import (
	"fmt"
	"strings"
	"testing"

	"routersim"

	"routersim/internal/allocator"
	"routersim/internal/arbiter"
	"routersim/internal/core"
	"routersim/internal/experiments"
	"routersim/internal/network"
	"routersim/internal/router"
	"routersim/internal/sim"
	"routersim/internal/topology"
)

// benchProtocol is small enough for benchmarking while preserving the
// knee positions to within one 5%-of-capacity grid step.
func benchProtocol() routersim.Protocol {
	pr := routersim.QuickProtocol()
	pr.Warmup = 3000
	pr.Packets = 3000
	pr.Loads = []float64{0.1, 0.2, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8}
	return pr
}

// metricReplacer is hoisted to package level: strings.NewReplacer builds
// its lookup machinery on first use, so a fresh one per call would pay
// that cost for every reported metric.
var metricReplacer = strings.NewReplacer(" ", "_", "(", "", ")", "", ",", "")

func metricName(curve string, what string) string {
	return metricReplacer.Replace(curve) + "_" + what
}

func benchFigure(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		fig, err := routersim.Reproduce(id, benchProtocol())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 { // report metrics once, from the final run
			for _, c := range fig.Curves {
				b.ReportMetric(c.ZeroLoad, metricName(c.Name, "zeroload_cycles"))
				b.ReportMetric(100*c.Saturation, metricName(c.Name, "saturation_pct"))
			}
		}
	}
}

// BenchmarkTable1 regenerates Table 1 (analytic delay equations).
func BenchmarkTable1(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, row := range routersim.Table1() {
			sink += row.Model
		}
	}
	rows := routersim.Table1()
	b.ReportMetric(rows[0].Model, "SB_tau4")
	b.ReportMetric(rows[1].Model, "XB_tau4")
	_ = sink
}

// BenchmarkFigure11a regenerates the non-speculative VC router pipelines.
func BenchmarkFigure11a(b *testing.B) {
	var depth4 int
	for i := 0; i < b.N; i++ {
		pts := core.Figure11a(20, core.RangeAll, 32)
		depth4 = 0
		for _, pt := range pts {
			if pt.Pipeline.Depth() == 4 {
				depth4++
			}
		}
	}
	b.ReportMetric(float64(depth4), "configs_fitting_4_stages")
}

// BenchmarkFigure11b regenerates the speculative VC router pipelines.
func BenchmarkFigure11b(b *testing.B) {
	var depth3 int
	for i := 0; i < b.N; i++ {
		pts := core.Figure11b(20, core.RangeVC, 32, core.DefaultSpecOptions())
		depth3 = 0
		for _, pt := range pts {
			if pt.Pipeline.Depth() == 3 {
				depth3++
			}
		}
	}
	// The paper: every configuration up to 16 VCs (8 of 10 grid points)
	// fits the wormhole router's 3 stages.
	b.ReportMetric(float64(depth3), "configs_fitting_3_stages")
}

// BenchmarkFigure12 regenerates the combined-allocation delay sweep.
func BenchmarkFigure12(b *testing.B) {
	var max float64
	for i := 0; i < b.N; i++ {
		for _, pt := range core.Figure12() {
			if pt.DelayRpv > max {
				max = pt.DelayRpv
			}
		}
	}
	b.ReportMetric(max, "max_Rpv_delay_tau4")
}

// BenchmarkFigure13 reproduces the 8-buffer latency-throughput curves.
// Paper: WH sat 40%, VC 50%, specVC 55%; zero-load 29/36/30 cycles.
func BenchmarkFigure13(b *testing.B) { benchFigure(b, "figure13") }

// BenchmarkFigure14 reproduces the 16-buffer, 2-VC curves.
// Paper: WH 50%, VC 65%, specVC 70%; zero-load 29/35/29 cycles.
func BenchmarkFigure14(b *testing.B) { benchFigure(b, "figure14") }

// BenchmarkFigure15 reproduces the 16-buffer, 4-VC curves.
// Paper: both VC routers saturate ≈70%.
func BenchmarkFigure15(b *testing.B) { benchFigure(b, "figure15") }

// BenchmarkFigure16 measures buffer turnaround per router kind.
// Paper: WH 4, VC 5, specVC 4, single-cycle 2 cycles.
func BenchmarkFigure16(b *testing.B) {
	var turns map[string]int64
	for i := 0; i < b.N; i++ {
		var err error
		turns, err = routersim.Turnarounds(benchProtocol())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, k := range experiments.SortedTurnaroundKeys(turns) {
		b.ReportMetric(float64(turns[k]), k+"_turnaround_cycles")
	}
}

// BenchmarkFigure17 reproduces the pipelined vs single-cycle comparison.
// Paper: single-cycle zero-load 16 cycles; single-cycle VC sat 65%.
func BenchmarkFigure17(b *testing.B) { benchFigure(b, "figure17") }

// BenchmarkFigure18 reproduces the credit-propagation-delay experiment.
// Paper: specVC saturation 55% → 45% when credits take 4 cycles.
func BenchmarkFigure18(b *testing.B) { benchFigure(b, "figure18") }

// ---------------------------------------------------------------------
// Ablations of the router design choices
// ---------------------------------------------------------------------

func ablationConfig(kind router.Kind, vcs, buf int) sim.Config {
	rc := router.DefaultConfig(kind)
	rc.VCs = vcs
	rc.BufPerVC = buf
	return sim.Config{
		Net:            network.Config{K: 8, Router: rc, Seed: 1},
		WarmupCycles:   3000,
		MeasurePackets: 3000,
	}
}

func saturationOf(b *testing.B, cfg sim.Config) float64 {
	b.Helper()
	loads := []float64{0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75}
	pts, err := sim.SweepLoads(cfg, loads)
	if err != nil {
		b.Fatal(err)
	}
	return sim.SaturationLoad(pts, 140)
}

// BenchmarkAblationSpecPriority disables the non-speculative-over-
// speculative priority rule: the paper argues the rule is what makes
// speculation conservative.
func BenchmarkAblationSpecPriority(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		cfg := ablationConfig(router.SpeculativeVC, 2, 4)
		with = saturationOf(b, cfg)
		cfg.Net.Router.SpecPriority = false
		without = saturationOf(b, cfg)
	}
	b.ReportMetric(100*with, "with_priority_sat_pct")
	b.ReportMetric(100*without, "without_priority_sat_pct")
}

// BenchmarkAblationCreditPipeline sweeps the credit-processing pipeline
// depth of the speculative router (a continuous Figure 18).
func BenchmarkAblationCreditPipeline(b *testing.B) {
	sats := make([]float64, 4)
	for i := 0; i < b.N; i++ {
		for d := 0; d < 4; d++ {
			cfg := ablationConfig(router.SpeculativeVC, 2, 4)
			cfg.Net.Router.CreditProcess = d
			sats[d] = saturationOf(b, cfg)
		}
	}
	for d, s := range sats {
		b.ReportMetric(100*s, fmt.Sprintf("creditpipe%d_sat_pct", d))
	}
}

// BenchmarkAblationBuffers compares VC-count/buffer-depth splits at a
// fixed 16-flit input-port budget.
func BenchmarkAblationBuffers(b *testing.B) {
	splits := []struct {
		vcs, buf int
	}{{1, 16}, {2, 8}, {4, 4}, {8, 2}}
	sats := make([]float64, len(splits))
	for i := 0; i < b.N; i++ {
		for j, s := range splits {
			sats[j] = saturationOf(b, ablationConfig(router.SpeculativeVC, s.vcs, s.buf))
		}
	}
	for j, s := range splits {
		b.ReportMetric(100*sats[j], fmt.Sprintf("%dvcs_x_%dbufs_sat_pct", s.vcs, s.buf))
	}
}

// BenchmarkAblationArbiterPolicy swaps the matrix arbiters for
// round-robin and fixed-priority arbiters.
func BenchmarkAblationArbiterPolicy(b *testing.B) {
	policies := []struct {
		name string
		f    arbiter.Factory
	}{{"matrix", arbiter.MatrixFactory}, {"roundrobin", arbiter.RoundRobinFactory}, {"fixed", arbiter.FixedFactory}}
	sats := make([]float64, len(policies))
	for i := 0; i < b.N; i++ {
		for j, p := range policies {
			cfg := ablationConfig(router.SpeculativeVC, 2, 4)
			cfg.Net.Router.Arb = p.f
			sats[j] = saturationOf(b, cfg)
		}
	}
	for j, p := range policies {
		b.ReportMetric(100*sats[j], p.name+"_sat_pct")
	}
}

// ---------------------------------------------------------------------
// Micro-benchmarks of hot paths
// ---------------------------------------------------------------------

func BenchmarkMatrixArbiterGrant(b *testing.B) {
	m := arbiter.NewMatrix(5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Grant(0b10111)
	}
}

// BenchmarkBankGrantCold is the cold twin of the benchmark above: it
// walks 4,096 banks of the VC allocator's stage-2 shape (10 arbiters
// over 10 requestors, 800 bytes of rows each — 3.3 MB in all) round
// robin with one requester per grant, so every grant finds its bank out
// of the near caches, as a 1,024-router network's grants do at low
// load. The memory layout moves this number; it must not move the warm
// one.
func BenchmarkBankGrantCold(b *testing.B) {
	banks := make([]arbiter.Bank, 4096)
	for i := range banks {
		banks[i] = arbiter.NewBank(10, 10, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		banks[i&4095].Grant(i%10, 1<<(i%7))
	}
}

func BenchmarkSeparableSwitchAllocate(b *testing.B) {
	s := allocator.NewSeparableSwitch(5, 2, nil)
	reqs := []allocator.SwitchRequest{
		{In: 0, VC: 0, Out: 3}, {In: 1, VC: 1, Out: 3},
		{In: 2, VC: 0, Out: 4}, {In: 3, VC: 1, Out: 0},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Allocate(reqs)
	}
}

func BenchmarkVCAllocatorAllocate(b *testing.B) {
	a := allocator.NewVCAllocator(5, 2, nil)
	reqs := []allocator.VCRequest{
		{In: 0, VC: 0, Out: 1, Candidates: 0b11},
		{In: 1, VC: 1, Out: 1, Candidates: 0b11},
		{In: 2, VC: 0, Out: 3, Candidates: 0b01},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Allocate(reqs)
	}
}

// benchCycles times steady-state Network.Step over a prebuilt config.
func benchCycles(b *testing.B, cfg network.Config, warm int64) {
	b.Helper()
	net, err := network.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(net.Close)
	for now := int64(0); now < warm; now++ {
		net.Step(now) // warm the network before timing
	}
	b.ResetTimer()
	b.ReportAllocs()
	steps := 0
	for i := 0; i < b.N; i++ {
		net.Step(warm + int64(i))
		steps += net.ActiveRouters()
	}
	if steps > 0 {
		// Σ step time ÷ Σ len(active): what one router-step costs. On
		// the 1,024-router low-load network each router is touched once
		// every few cycles and its state has left the caches in between
		// — the cold per-router cost the 64-router benchmarks cannot see.
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/router-step")
	}
}

// BenchmarkNetworkCycle measures whole-network cycle cost (64 routers,
// one shard) at a moderate load — the simulator's inner loop.
func BenchmarkNetworkCycle(b *testing.B) {
	rc := router.DefaultConfig(router.SpeculativeVC)
	benchCycles(b, network.Config{K: 8, Router: rc, Seed: 1, InjectionRate: 0.4 * 0.5 / 5}, 2000)
}

// BenchmarkNetworkCycleAudit is the same network with the invariant
// auditor firing every 100 cycles — the amortized cost of a
// self-checking run. The audit-off benchmark above must stay at
// 0 allocs/op: with auditing disabled the only hot-path residue is the
// shard's two flit counters, bumped once per injected and per ejected
// flit.
func BenchmarkNetworkCycleAudit(b *testing.B) {
	rc := router.DefaultConfig(router.SpeculativeVC)
	benchCycles(b, network.Config{K: 8, Router: rc, Seed: 1, InjectionRate: 0.4 * 0.5 / 5, Audit: 100}, 2000)
}

// lowLoadCfg is a 1,024-router mesh at 5% load: the light-duty regime
// (zero-load latency points, sub-saturation saturation-search probes)
// where per-cycle cost should scale with in-flight work, not node
// count. TestNetworkStepZeroAllocLowLoad pins this exact config's
// steady-state allocation behaviour.
func lowLoadCfg(tb testing.TB) network.Config {
	tb.Helper()
	topo, err := topology.New("mesh:k=32", 0)
	if err != nil {
		tb.Fatal(err)
	}
	return network.Config{
		Topo:          topo,
		Router:        router.DefaultConfig(router.SpeculativeVC),
		Seed:          1,
		InjectionRate: 0.05 * topo.UniformCapacity() / 5,
	}
}

// BenchmarkNetworkCycleLowLoad measures the active-set worklists where
// they matter: 1,024 routers, 5% load — only the few dozen routers with
// in-flight work are visited.
func BenchmarkNetworkCycleLowLoad(b *testing.B) {
	benchCycles(b, lowLoadCfg(b), 4000)
}

// shardBenchCfg is a 4,096-router mesh at 30% load: large enough that
// the per-shard work dominates the per-window barrier, the regime the
// lookahead-sharded engine targets. The CI scaling smoke runs this same
// shape through netsim at shards=1 vs 4 and records wall-clock.
func shardBenchCfg(tb testing.TB) network.Config {
	tb.Helper()
	topo, err := topology.New("mesh:k=64", 0)
	if err != nil {
		tb.Fatal(err)
	}
	return network.Config{
		Topo:          topo,
		Router:        router.DefaultConfig(router.SpeculativeVC),
		Seed:          1,
		InjectionRate: 0.3 * topo.UniformCapacity() / 5,
	}
}

// shardBenchWarm: the 4,096-router ramp (in-flight population, packet
// pools, boundary rings reaching their high-water marks) takes several
// thousand cycles; timing from cycle 2,000 measured mid-ramp, where the
// network is still allocating and per-cycle work is still climbing.
// 8,000 cycles reaches the true steady state, so allocs/op reads 0 and
// ns/op is comparable across runs regardless of b.N.
const shardBenchWarm = 8000

// BenchmarkNetworkCycleSharded measures whole-network cycle cost with
// the network split into 4 lookahead shards stepping concurrently.
// On a multi-core machine this should approach a 4× speedup over
// BenchmarkNetworkCycleShardedBaseline; on one core it instead bounds
// the sharding overhead (window buffering + barrier exchange).
func BenchmarkNetworkCycleSharded(b *testing.B) {
	cfg := shardBenchCfg(b)
	cfg.Shards = 4
	benchCycles(b, cfg, shardBenchWarm)
}

// BenchmarkNetworkCycleShardedBaseline is the identical network as one
// shard — the denominator of the scaling claim.
func BenchmarkNetworkCycleShardedBaseline(b *testing.B) {
	benchCycles(b, shardBenchCfg(b), shardBenchWarm)
}

// BenchmarkNetworkCycleShardedLowLoad composes the two scaling layers:
// the 1,024-router 5%-load mesh from BenchmarkNetworkCycleLowLoad,
// split into 4 lookahead shards. Each shard runs its own active-set
// scheduler — parked sources, wake wheel, shard-local quiescence skip —
// so per-cycle cost should track the in-flight work per shard, not node
// count, while the wide windows keep barrier crossings rare.
func BenchmarkNetworkCycleShardedLowLoad(b *testing.B) {
	cfg := lowLoadCfg(b)
	cfg.Shards = 4
	benchCycles(b, cfg, 4000)
}

// BenchmarkDrainTail runs a complete ultra-low-load measurement through
// sim.Run on a 256-router mesh: at ~1 packet per source per 50,000
// cycles the run is dominated by quiescent gaps, zero-load warm-up
// idle, and the post-sample drain tail — exactly the spans the
// scheduler's NextDue fast-forward collapses to a handful of stepped
// cycles.
func BenchmarkDrainTail(b *testing.B) {
	cfg := sim.Config{
		Net: network.Config{
			K:      16,
			Router: router.DefaultConfig(router.SpeculativeVC),
			Seed:   1,
		},
		WarmupCycles:   10000,
		MeasurePackets: 100,
	}
	cfg.Net.InjectionRate = 0.00002
	var cycles int64
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "simulated_cycles")
}

// BenchmarkPipelineDesign measures the EQ-1 packer in its hot-sweep
// shape: one reused core.Packer across design points (the form the
// Figure 11/12 grids and the harness's per-scenario delay model use).
// A warm packer must not touch the heap.
func BenchmarkPipelineDesign(b *testing.B) {
	params := core.PaperParams()
	var pk core.Packer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := pk.Design(core.SpeculativeVC, params, core.DefaultSpecOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
