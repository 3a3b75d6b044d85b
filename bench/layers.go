package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"routersim/internal/allocator"
	"routersim/internal/arbiter"
	"routersim/internal/checkpoint"
	"routersim/internal/core"
	"routersim/internal/experiments"
	"routersim/internal/flit"
	"routersim/internal/harness"
	"routersim/internal/link"
	"routersim/internal/pool"
	"routersim/internal/queue"
	"routersim/internal/rng"
	"routersim/internal/router"
	"routersim/internal/sim"
	"routersim/internal/stats"
	"routersim/internal/traffic"
)

// Micro-benchmarks of single layers, timed from outside through each
// layer's exported functions. They do not depend on the workload, and
// every traced run repeats them, so that a layer's own cost can be read
// beside the workload metrics it should move. Each takes the median of
// microSamples batches of microBatch.
const (
	microSamples = 5
	microBatch   = 4 * time.Millisecond
)

func micro(op func()) float64 { return timeOp(microSamples, microBatch, op) }

func layerMicros(e *env, t *tracer) error {
	// arbiter, allocator: the p=5, v=2 request sets of bench_test.go.
	m := arbiter.NewMatrix(5)
	t.set("arbiter.matrix_grant_ns", micro(func() { m.Grant(0b10111) }))

	sw := allocator.NewSeparableSwitch(5, 2, nil)
	swReqs := []allocator.SwitchRequest{{In: 0, VC: 0, Out: 3}, {In: 1, VC: 1, Out: 3}, {In: 2, VC: 0, Out: 4}, {In: 3, VC: 1, Out: 0}}
	t.set("allocator.switch_ns", micro(func() { sw.Allocate(swReqs) }))

	spec := allocator.NewSpeculativeSwitch(5, 2, nil)
	spec.PrioritizeNonSpec = true
	specReqs := []allocator.SwitchRequest{{In: 0, VC: 1, Out: 4}, {In: 4, VC: 0, Out: 3}}
	t.set("allocator.spec_switch_ns", micro(func() { spec.Allocate(swReqs, specReqs) }))

	va := allocator.NewVCAllocator(5, 2, nil)
	vaReqs := []allocator.VCRequest{{In: 0, VC: 0, Out: 1, Candidates: 0b11}, {In: 1, VC: 1, Out: 1, Candidates: 0b11}, {In: 2, VC: 0, Out: 3, Candidates: 0b01}}
	t.set("allocator.vc_ns", micro(func() { va.Allocate(vaReqs) }))

	wh := allocator.NewWormholeSwitch(5, nil)
	whReqs := []allocator.PortRequest{{In: 0, Out: 3}, {In: 1, Out: 3}, {In: 2, Out: 4}}
	t.set("allocator.wormhole_ns", micro(func() {
		for _, g := range wh.Arbitrate(whReqs) {
			wh.Release(g.Out)
		}
	}))

	// router: the single-router testbench.
	clock := clockCost()
	t.clockNS = clock
	const warm, cycles = 2000, 20000
	for _, k := range []struct {
		kind router.Kind
		name string
	}{{router.Wormhole, "wormhole"}, {router.VirtualChannel, "vc"}, {router.SpeculativeVC, "specvc"}} {
		rt := newTestbench(k.kind).saturate(warm, cycles, false, clock)
		t.set("router.step_ns."+k.name, rt.stepNS)
		t.set("router.head_latency_cycles."+k.name, float64(headLatency(k.kind)))
		if k.kind == router.SpeculativeVC {
			t.set("router.flits_per_cycle.specvc", rt.flitsPerCycle)
		}
	}
	rt := newTestbench(router.SpeculativeVC).saturate(warm, cycles, true, clock)
	t.set("router.deliver_ns.specvc", rt.deliverNS)
	t.set("router.compute_ns.specvc", rt.computeNS)
	idle := newTestbench(router.SpeculativeVC)
	t.set("router.idle_step_ns", micro(func() { idle.r.Step(idle.now); idle.now++ }))

	// link, queue: one item through and out again.
	wire := link.NewWire[flit.Flit](1)
	var wnow int64
	t.set("link.push_pop_ns", micro(func() {
		wire.Push(wnow, flit.Flit{})
		wnow++
		wire.Pop(wnow)
	}))
	fifo := queue.NewFIFO(4)
	t.set("queue.push_pop_ns", micro(func() {
		_ = fifo.Push(flit.Flit{}) // an empty four-slot FIFO cannot be full
		fifo.Pop()
	}))

	// traffic.
	r := rng.New(e.seed)
	var uni traffic.Uniform
	t.set("traffic.uniform_dest_ns", micro(func() { uni.Dest(5, 1024, r) }))
	cr := traffic.NewConstantRate(0.04, 0.5)
	t.set("traffic.constrate_tick_ns", micro(func() { cr.Tick() }))

	// stats: the accumulators sim.Run feeds once per packet.
	stream := stats.NewStream()
	lat := &stats.Latency{}
	batch := stats.NewBatchMeans(150)
	var v int64
	next := func() int64 { v = (v*31 + 17) % 400; return 20 + v }
	t.set("stats.stream_add_ns", micro(func() { stream.Add(next()) }))
	t.set("stats.latency_add_ns", micro(func() { lat.Add(next()) }))
	t.set("stats.batch_add_ns", micro(func() { batch.Add(float64(next())) }))
	exact := &stats.Latency{}
	for i := 0; i < 100000; i++ {
		exact.Add(next())
	}
	start := time.Now()
	exact.Percentile(0.95) // the first percentile after an Add sorts the samples
	t.set("stats.latency_p95_us", us(time.Since(start)))

	// pool, core.
	t.set("pool.run_empty_us", micro(func() { pool.Run(1024, e.workers, func(int) {}) })/1e3)
	gang := pool.NewGang(2)
	t.set("pool.gang_run_ns", micro(func() { gang.Run(2, func(int) {}) }))
	gang.Close()
	var pk core.Packer
	params := core.PaperParams()
	t.set("core.design_ns", micro(func() {
		_, _ = pk.Design(core.SpeculativeVC, params, core.DefaultSpecOptions()) // the paper's point always packs
	}))

	// harness: matrix bookkeeping around the simulations.
	t.set("harness.expand_us", micro(func() { sweepMatrix.Expand() })/1e3)
	start = time.Now()
	if err := sweepMatrix.Validate(); err != nil {
		return err
	}
	t.set("harness.validate_ms", us(time.Since(start))/1e3)
	overhead, err := jobOverhead(e)
	if err != nil {
		return err
	}
	t.set("harness.job_overhead_us", overhead)

	// experiments: rendering a figure of Figure 13's shape.
	fig := cannedFigure()
	t.set("experiments.render_us", micro(func() {
		_ = experiments.WriteTable(io.Discard, fig) // io.Discard never fails
		_ = experiments.WriteCSV(io.Discard, fig)
	})/1e3)

	return checkpointMicros(e, t)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// jobOverhead is what the harness adds to one simulation: RunScenario
// minus sim.Run of the very same configuration. The simulation is kept
// to a few hundred microseconds, and the two alternate and each keeps
// its fastest of twenty, so that the difference is not all noise.
func jobOverhead(e *env) (float64, error) {
	sc := harness.Scenario{Router: "spec-vc", Load: 0.2}
	opts := harness.Options{Workers: 1, Seed: e.seed, Protocol: harness.Protocol{Warmup: 10, Packets: 10}}
	cfg, err := sc.SimConfig(rng.Derive(opts.Seed, 0), opts.Protocol)
	if err != nil {
		return 0, err
	}
	viaHarness, direct := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < 20; i++ {
		start := time.Now()
		if _, err := harness.RunScenario(sc, opts); err != nil {
			return 0, err
		}
		viaHarness = min(viaHarness, time.Since(start))
		start = time.Now()
		if _, err := sim.Run(cfg); err != nil {
			return 0, err
		}
		direct = min(direct, time.Since(start))
	}
	return us(viaHarness - direct), nil
}

// cannedFigure has the shape of Figure 13 — three curves of thirteen
// points — without running a simulation.
func cannedFigure() experiments.FigureResult {
	fig := experiments.FigureResult{ID: "figure13", Title: "canned"}
	for _, name := range []string{"WH (8 bufs)", "VC (2vcsX4bufs)", "specVC (2vcsX4bufs)"} {
		c := experiments.Curve{Name: name, Saturation: 0.5, ZeroLoad: 30}
		for _, l := range fig13Loads {
			c.Points = append(c.Points, sim.LoadPoint{Load: l, Result: sim.Result{
				OfferedLoad: l, AcceptedLoad: l, Cycles: 5000, Tagged: 3000, TaggedDone: 3000,
				Latency: stats.Summary{MeanLatency: 30 + 40*l, P50: 30, P95: 60, MaxLatency: 90, Packets: 3000},
			}})
		}
		fig.Curves = append(fig.Curves, c)
	}
	return fig
}

// checkpointMicros times the store on a payload the size of a real job
// result: fifty Puts (each an fsync), then Gets of the same entries.
func checkpointMicros(e *env, t *tracer) error {
	payload := make([]byte, 900)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}
	part := []byte("routersim-engine-1")
	t.set("checkpoint.key_ns", micro(func() { checkpoint.Key(part, payload[:300], payload[:8], payload[:40]) }))

	dir, err := os.MkdirTemp(e.dir, "ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := checkpoint.Open(filepath.Join(dir, "store"))
	if err != nil {
		return err
	}
	const entries = 50
	puts := make([]float64, entries)
	gets := make([]float64, entries)
	keys := make([][32]byte, entries)
	for i := range keys {
		keys[i] = checkpoint.Key(part, []byte{byte(i)})
		start := time.Now()
		if err := store.Put(keys[i], payload); err != nil {
			return err
		}
		puts[i] = us(time.Since(start))
	}
	for i, k := range keys {
		start := time.Now()
		if _, ok, err := store.Get(k); err != nil || !ok {
			return fmt.Errorf("checkpoint: entry %d just put is missing (err %v)", i, err)
		}
		gets[i] = us(time.Since(start))
	}
	sort.Float64s(puts)
	sort.Float64s(gets)
	t.set("checkpoint.put_us_p50", quantile(puts, 0.5))
	t.set("checkpoint.put_us_p99", quantile(puts, 0.99))
	t.set("checkpoint.get_us_p50", quantile(gets, 0.5))
	return nil
}
