package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"routersim"
	"routersim/internal/checkpoint"
	"routersim/internal/harness"
	"routersim/internal/network"
	"routersim/internal/rng"
	"routersim/internal/router"
	"routersim/internal/sim"
	"routersim/internal/topology"
)

// env is what a workload sees of one benchmark process: the seed every
// simulator seed derives from, the worker count (never above the cores),
// and a scratch directory inside the checkout.
type env struct {
	seed    uint64
	workers int
	dir     string
	// coldOutput is what the sweep that filled sweep-cached's store
	// serialized to; every cached pass must reproduce it byte for byte.
	coldOutput []byte
}

// outcome is what one execution of a workload's timed region produced.
type outcome struct {
	// digest is the SHA-256 of the canonical output bytes.
	digest [sha256.Size]byte
	// routerCycles is Σ Result.Cycles × nodes over the simulations whose
	// results the region delivered — a deterministic count.
	routerCycles int64
	// attempted and failed count operations: one simulation job, or one
	// job loaded from the checkpoint store.
	attempted, failed int
	// problems describes each failed operation.
	problems []string
	// wall is the region's wall time in seconds; allocMB and mallocs are
	// the runtime.MemStats TotalAlloc and Mallocs deltas across it.
	wall    float64
	allocMB float64
	mallocs uint64
}

func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// add counts another region's operations and failures into o.
func (o *outcome) add(other outcome) {
	o.attempted += other.attempted
	o.failed += other.failed
	o.problems = append(o.problems, other.problems...)
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// setup builds, and throws away, everything the timed region
	// consumes; its wall time is setup_s.
	setup func(e *env) error
	// prepare creates inputs that are neither set-up nor timed (the
	// filled store sweep-cached reads); nil for most workloads.
	prepare func(e *env) error
	// run executes the timed region once.
	run func(e *env) (outcome, error)
	// trace produces the workload's own per-layer metrics (trace.go).
	trace func(e *env, t *tracer) error
}

// Workload sizes. The issue's prototype sizes (4.4 s fig13, 3.3 s
// mesh8, 9 s sweep-cold) were scaled down uniformly so that a
// 10-second run holds at least five timed regions per workload: the
// driver's total-time cap leaves about 20 s per run, and a median over
// fewer than five regions did not hold the spread under a third of the
// bound. README.md lists the sizes next to the issue's.
var (
	fig13Loads   = []float64{0.1, 0.2, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8}
	fig13Warmup  = int64(1000)
	fig13Packets = 1000

	mesh8 = netWorkload{topo: "mesh:k=8", load: 0.40, warmup: 5000, packets: 70000, runs: 1, twin: "audit"}
	low32 = netWorkload{topo: "mesh:k=32", load: 0.05, warmup: 2000, packets: 11500, runs: 1, twin: "fullscan"}
	shd32 = netWorkload{topo: "mesh:k=32", load: 0.30, warmup: 1500, packets: 10000, runs: 1, shards: 2, twin: "shards"}
	drain = netWorkload{topo: "mesh:k=16", rate: 0.00002, warmup: 10000, packets: 100, runs: 50}

	sweepMatrix = harness.Matrix{
		Routers:    []string{"vc", "spec-vc"},
		Topologies: []string{"mesh", "torus", "hypercube:64"},
		Patterns:   []string{"uniform", "transpose"},
		VCs:        []int{2, 4},
		Loads:      []float64{0.1, 0.3},
	}
	sweepProtocol = harness.Protocol{Warmup: 600, Packets: 500}
	cachedPasses  = 500
)

func workloads() []*workload {
	return []*workload{
		fig13Workload(),
		mesh8.workload("mesh8-load40",
			"64 always-busy routers: router, allocator and arbiter dominate; scheduler and shards idle"),
		low32.workload("mesh32-load05",
			"1,024 routers, a few dozen active per cycle: the active-set scheduler in network dominates"),
		shd32.workload("mesh32-load30-shards2",
			"the sharded engine on real cores: run, barrier, exchange, replay; the only multi-core single run"),
		drain.workload("drain-tail",
			"50 short runs, nearly all cycles skipped: network.New, the sim loop and NextDue fast-forward dominate"),
		sweepColdWorkload(),
		sweepCachedWorkload(),
	}
}

// ---------------------------------------------------------------------
// Single-network workloads
// ---------------------------------------------------------------------

// netWorkload is a workload made of runs sim.Run calls on one network
// shape with the speculative-VC router defaults.
type netWorkload struct {
	topo    string
	load    float64 // fraction of capacity, or
	rate    float64 // packets/node/cycle when load is 0
	shards  int
	warmup  int64
	packets int
	runs    int
	// twin names the differential twins the traced run adds: "audit",
	// "fullscan" or "shards".
	twin string
}

// config parses the topology spec and lowers run i to a sim.Config.
func (nw netWorkload) config(e *env, i int) (sim.Config, error) {
	topo, err := topology.New(nw.topo, 0)
	if err != nil {
		return sim.Config{}, err
	}
	ncfg := network.Config{
		Topo:   topo,
		Router: router.DefaultConfig(router.SpeculativeVC),
		Shards: nw.shards,
		Seed:   rng.Derive(e.seed, uint64(i+1)),
	}
	ncfg.InjectionRate = nw.rate
	if nw.load > 0 {
		ncfg.InjectionRate = sim.RateForLoad(nw.load, ncfg)
	}
	return sim.Config{Net: ncfg, WarmupCycles: nw.warmup, MeasurePackets: nw.packets}, nil
}

func (nw netWorkload) workload(name, why string) *workload {
	return &workload{
		name: name,
		why:  why,
		setup: func(e *env) error {
			cfg, err := nw.config(e, 0)
			if err != nil {
				return err
			}
			return buildNetwork(cfg.Net)
		},
		run: func(e *env) (outcome, error) {
			cfgs, err := nw.configs(e)
			if err != nil {
				return outcome{}, err
			}
			o, _ := runSims(cfgs)
			return o, nil
		},
		trace: func(e *env, t *tracer) error { return traceNet(e, t, nw) },
	}
}

func (nw netWorkload) configs(e *env) ([]sim.Config, error) {
	cfgs := make([]sim.Config, nw.runs)
	for i := range cfgs {
		var err error
		if cfgs[i], err = nw.config(e, i); err != nil {
			return nil, err
		}
	}
	return cfgs, nil
}

// runSims is the timed region of a single-network workload: sim.Run of
// every configuration in turn. It also returns the cycles each run
// simulated, which the traced twin replays.
func runSims(cfgs []sim.Config) (outcome, []int64) {
	cycles := make([]int64, len(cfgs))
	return timedRegion(func(o *outcome, out *bytes.Buffer) {
		for i, cfg := range cfgs {
			res, err := sim.Run(cfg)
			o.attempted++
			if err != nil {
				o.fail(1, "run %d: %v", i, err)
				continue
			}
			cycles[i] = res.Cycles
			o.routerCycles += res.Cycles * int64(cfg.Net.Topo.Nodes())
			checkDrained(o, fmt.Sprintf("run %d", i), res, true)
			writeJSON(out, res)
		}
	}), cycles
}

// buildNetwork is the network part of set-up: construct and release.
func buildNetwork(cfg network.Config) error {
	net, err := network.New(cfg)
	if err != nil {
		return err
	}
	net.Close()
	return nil
}

// timedRegion runs and times body and hashes the canonical bytes it
// wrote. The collection before the clock starts gives every repetition
// the same heap to begin from.
func timedRegion(body func(o *outcome, out *bytes.Buffer)) outcome {
	var o outcome
	var out bytes.Buffer
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	body(&o, &out)
	o.wall = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	o.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	o.mallocs = after.Mallocs - before.Mallocs
	o.digest = sha256.Sum256(out.Bytes())
	return o
}

func writeJSON(out *bytes.Buffer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("bench: result not serializable: %v", err)) // plain-value structs; unreachable
	}
	out.Write(b)
	out.WriteByte('\n')
}

// checkDrained applies the output gate that holds at any seed: a run
// that reports itself unsaturated received every tagged packet, and a
// run the workload places below the knee is not saturated.
func checkDrained(o *outcome, what string, res sim.Result, belowKnee bool) {
	switch {
	case belowKnee && res.Saturated:
		o.fail(1, "%s: saturated below the knee (%d of %d tagged packets received)", what, res.TaggedDone, res.Tagged)
	case !res.Saturated && (res.TaggedDone != res.Tagged || res.Latency.Censored != 0):
		o.fail(1, "%s: unsaturated but %d of %d tagged packets received", what, res.TaggedDone, res.Tagged)
	}
}

// ---------------------------------------------------------------------
// fig13
// ---------------------------------------------------------------------

func fig13Protocol(e *env) routersim.Protocol {
	return routersim.Protocol{
		Warmup:  fig13Warmup,
		Packets: fig13Packets,
		Loads:   fig13Loads,
		Seed:    rng.Derive(e.seed, 13),
	}
}

// fig13Curves are the three router configurations of Figure 13, in the
// order Reproduce returns them.
var fig13Curves = []harness.Scenario{
	{Router: "wormhole", VCs: 1, BufPerVC: 8},
	{Router: "vc", VCs: 2, BufPerVC: 4},
	{Router: "spec-vc", VCs: 2, BufPerVC: 4},
}

func fig13Workload() *workload {
	return &workload{
		name: "fig13",
		why:  "the paper's headline figure as users run it: 39 simulations on both sides of the knee, through experiments, harness and pool",
		setup: func(e *env) error {
			for _, sc := range fig13Curves {
				cfg, err := sc.SimConfig(1, harness.Protocol{Warmup: 1, Packets: 1})
				if err != nil {
					return err
				}
				if err := buildNetwork(cfg.Net); err != nil {
					return err
				}
			}
			return nil
		},
		run: func(e *env) (outcome, error) {
			pr := fig13Protocol(e)
			return timedRegion(func(o *outcome, out *bytes.Buffer) {
				o.attempted = len(fig13Curves) * len(pr.Loads)
				fig, err := routersim.Reproduce("figure13", pr)
				if err != nil {
					o.fail(o.attempted, "Reproduce: %v", err)
					return
				}
				fig13Outcome(o, out, fig)
			}), nil
		},
		trace: traceFig13,
	}
}

// fig13Outcome writes the figure's canonical form and applies the gate.
func fig13Outcome(o *outcome, out *bytes.Buffer, fig routersim.FigureResult) {
	for _, c := range fig.Curves {
		fmt.Fprintf(out, "%s zeroload=%v saturation=%v\n", c.Name, c.ZeroLoad, c.Saturation)
		for _, pt := range c.Points {
			o.routerCycles += pt.Result.Cycles * 64
			checkDrained(o, fmt.Sprintf("%s load %v", c.Name, pt.Load), pt.Result, pt.Load <= 0.3)
			writeJSON(out, pt)
		}
	}
}

// paperFig13 holds the only reference the model is validated against:
// the six numbers read off the paper's Figure 13.
var paperFig13 = []struct {
	zeroLoad, saturation float64
}{{29, 0.40}, {36, 0.50}, {30, 0.55}}

// fig13Error returns the figure's distance from the paper: the largest
// relative zero-load latency error in percent, and the largest
// saturation error in points of capacity.
func fig13Error(fig routersim.FigureResult) (zeroLoadPct, satPts float64) {
	for i, c := range fig.Curves {
		ref := paperFig13[i]
		if d := 100 * math.Abs(c.ZeroLoad-ref.zeroLoad) / ref.zeroLoad; d > zeroLoadPct {
			zeroLoadPct = d
		}
		if d := 100 * math.Abs(c.Saturation-ref.saturation); d > satPts {
			satPts = d
		}
	}
	return zeroLoadPct, satPts
}

// ---------------------------------------------------------------------
// sweep-cold and sweep-cached
// ---------------------------------------------------------------------

func sweepOptions(e *env) harness.Options {
	return harness.Options{
		Workers:  e.workers,
		Seed:     rng.Derive(e.seed, 72),
		Protocol: sweepProtocol,
	}
}

// sweepSetup builds every distinct network of the matrix once.
func sweepSetup(e *env) error {
	seen := make(map[harness.Scenario]bool)
	for _, sc := range sweepMatrix.Expand() {
		sc.Load = sweepMatrix.Loads[0]
		if seen[sc] {
			continue
		}
		seen[sc] = true
		cfg, err := sc.SimConfig(1, sweepProtocol)
		if err != nil {
			return err
		}
		if err := buildNetwork(cfg.Net); err != nil {
			return err
		}
	}
	return nil
}

// sweep runs the matrix against the store in dir and serializes it the
// way cmd/sweep does: the whole timed region of sweep-cold, one pass of
// sweep-cached. ran is how many jobs were simulated, not loaded.
func sweep(e *env, dir string, o *outcome, out *bytes.Buffer) (results []harness.JobResult, ran int) {
	store, err := checkpoint.Open(dir)
	if err != nil {
		o.fail(1, "open store: %v", err)
		return nil, 0
	}
	opts := sweepOptions(e)
	opts.Progress = func(int, int, harness.JobResult) { ran++ } // the harness reports only jobs it ran
	results, err = harness.RunResumable(sweepMatrix, opts, store)
	if err != nil {
		o.fail(1, "sweep: %v", err)
	}
	if err := harness.WriteJSON(out, results); err != nil {
		o.fail(1, "WriteJSON: %v", err)
	}
	if err := harness.WriteCSV(out, results); err != nil {
		o.fail(1, "WriteCSV: %v", err)
	}
	return results, ran
}

func sweepOutcome(o *outcome, results []harness.JobResult) {
	for _, r := range results {
		if r.Error != "" || r.Result == nil {
			o.fail(1, "%s: %s", r.Scenario.Label(), r.Error)
			continue
		}
		o.routerCycles += r.Result.Cycles * 64 // every topology of the matrix has 64 nodes
		checkDrained(o, r.Scenario.Label(), *r.Result, r.Scenario.Load <= 0.1 && r.Scenario.Pattern == "uniform")
	}
}

func sweepColdWorkload() *workload {
	return &workload{
		name:  "sweep-cold",
		why:   "the sweep matrix users run: mixed topologies and saturated points on the pool, plus the harness write path (JSON, Store.Put, fsync)",
		setup: sweepSetup,
		run: func(e *env) (outcome, error) {
			dir, err := os.MkdirTemp(e.dir, "cold-")
			if err != nil {
				return outcome{}, err
			}
			defer os.RemoveAll(dir)
			return timedRegion(func(o *outcome, out *bytes.Buffer) {
				results, _ := sweep(e, dir, o, out)
				o.attempted = len(results)
				sweepOutcome(o, results)
			}), nil
		},
		trace: traceSweepCold,
	}
}

// cachedDir is where prepare leaves the store sweep-cached reads.
func cachedDir(e *env) string { return filepath.Join(e.dir, "cached-store") }

func sweepCachedWorkload() *workload {
	return &workload{
		name: "sweep-cached",
		why:  "the same matrix resumed from a full checkpoint store: Store.Get, checksum and JSON decode with no simulation, the read side of the harness",
		prepare: func(e *env) error {
			var o outcome
			var out bytes.Buffer
			sweep(e, cachedDir(e), &o, &out)
			if o.failed > 0 {
				return fmt.Errorf("filling the store: %v", o.problems)
			}
			e.coldOutput = out.Bytes()
			return nil
		},
		setup: func(e *env) error {
			store, err := checkpoint.Open(cachedDir(e))
			if err != nil {
				return err
			}
			_, err = store.Len()
			return err
		},
		run: func(e *env) (outcome, error) {
			return timedRegion(func(o *outcome, out *bytes.Buffer) {
				var results []harness.JobResult
				for pass := 0; pass < cachedPasses; pass++ {
					out.Reset()
					var ran int
					results, ran = sweep(e, cachedDir(e), o, out)
					o.attempted += len(results)
					if ran > 0 {
						o.fail(ran, "pass %d: %d jobs ran instead of loading", pass, ran)
					}
					if !bytes.Equal(out.Bytes(), e.coldOutput) {
						o.fail(len(results)-ran, "pass %d: output differs from the cold sweep's", pass)
					}
				}
				// The router-cycles the loaded results stand for: work a
				// resumed sweep delivers without redoing it.
				sweepOutcome(o, results)
				o.routerCycles *= int64(cachedPasses)
			}), nil
		},
		trace: traceSweepCached,
	}
}
