package main

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"routersim/internal/checkpoint"
	"routersim/internal/flit"
	"routersim/internal/harness"
	"routersim/internal/link"
	"routersim/internal/network"
	"routersim/internal/sim"
)

// perLayer lists the metrics of single layers, named layer.metric. They
// come from the traced run only. A metric that does not apply to the
// workload being traced reads 0; README.md says which apply where and
// which end-to-end metric each should move.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// Micro-benchmarks: the same on every workload.
		{"arbiter.matrix_grant_ns", "ns", "lower"},
		{"allocator.switch_ns", "ns", "lower"},
		{"allocator.spec_switch_ns", "ns", "lower"},
		{"allocator.vc_ns", "ns", "lower"},
		{"allocator.wormhole_ns", "ns", "lower"},
		{"router.step_ns.wormhole", "ns", "lower"},
		{"router.step_ns.vc", "ns", "lower"},
		{"router.step_ns.specvc", "ns", "lower"},
		{"router.deliver_ns.specvc", "ns", "lower"},
		{"router.compute_ns.specvc", "ns", "lower"},
		{"router.idle_step_ns", "ns", "lower"},
		{"router.flits_per_cycle.specvc", "flits/cycle", "higher"},
		{"router.head_latency_cycles.wormhole", "cycles", "lower"},
		{"router.head_latency_cycles.vc", "cycles", "lower"},
		{"router.head_latency_cycles.specvc", "cycles", "lower"},
		{"link.push_pop_ns", "ns", "lower"},
		{"queue.push_pop_ns", "ns", "lower"},
		{"traffic.uniform_dest_ns", "ns", "lower"},
		{"traffic.constrate_tick_ns", "ns", "lower"},
		{"stats.stream_add_ns", "ns", "lower"},
		{"stats.latency_add_ns", "ns", "lower"},
		{"stats.batch_add_ns", "ns", "lower"},
		{"stats.latency_p95_us", "us", "lower"},
		{"pool.run_empty_us", "us", "lower"},
		{"pool.gang_run_ns", "ns", "lower"},
		{"core.design_ns", "ns", "lower"},
		{"harness.expand_us", "us", "lower"},
		{"harness.validate_ms", "ms", "lower"},
		{"harness.job_overhead_us", "us", "lower"},
		{"experiments.render_us", "us", "lower"},
		{"checkpoint.key_ns", "ns", "lower"},
		{"checkpoint.put_us_p50", "us", "lower"},
		{"checkpoint.put_us_p99", "us", "lower"},
		{"checkpoint.get_us_p50", "us", "lower"},

		// Single-network workloads: the traced twin and its variants.
		{"topology.new_us", "us", "lower"},
		{"network.new_s", "s", "lower"},
		{"network.step_us_p50", "us", "lower"},
		{"network.step_us_p99", "us", "lower"},
		{"network.ns_per_router_cycle", "ns", "lower"},
		{"network.ns_per_flit", "ns", "lower"},
		{"network.steady_mallocs", "count", "lower"},
		{"network.audit100_overhead_frac", "ratio", "lower"},
		{"network.stepworkers2_speedup", "ratio", "higher"},
		{"sched.active_router_frac", "ratio", "lower"},
		{"sched.fullscan_slowdown", "ratio", "higher"},
		{"sched.nextdue_ns", "ns", "lower"},
		{"sched.stepped_cycles", "count", "lower"},
		{"sched.ff_cycle_frac", "ratio", "higher"},
		{"shard.speedup", "ratio", "higher"},
		{"shard.parallel_eff", "ratio", "higher"},
		{"shard.overhead_1proc", "ratio", "lower"},
		{"shard.build_s", "s", "lower"},
		{"shard.step_us_p99_over_p50", "ratio", "lower"},
		{"shard.lookahead_cycles", "cycles", "higher"},
		{"sim.run_s", "s", "lower"},
		{"sim.self_s", "s", "lower"},
		{"sim.cycles", "cycles", "lower"},
		{"sim.run_mallocs", "count", "lower"},
		{"sim.run_alloc_mb", "MB", "lower"},

		// fig13 and the sweeps: jobs on the pool, output, the store.
		{"experiments.fig13_jobs", "count", "lower"},
		{"experiments.fig13_mallocs", "count", "lower"},
		{"experiments.paper_zeroload_err_pct", "%", "lower"},
		{"experiments.paper_sat_err_pts", "points", "lower"},
		{"harness.pool_util", "ratio", "higher"},
		{"harness.job_wall_ms_p50", "ms", "lower"},
		{"harness.job_wall_ms_max", "ms", "lower"},
		{"harness.write_json_us", "us", "lower"},
		{"harness.write_csv_us", "us", "lower"},
		{"harness.resume_load_us_per_job", "us", "lower"},
		{"checkpoint.entry_bytes", "bytes", "lower"},
		{"checkpoint.hits", "count", "higher"},
		{"checkpoint.misses", "count", "lower"},

		{"trace.overhead_frac", "ratio", "lower"},
	}
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{"cpu_frac." + l, "ratio", "lower"})
	}
	return defs
}()

// tracer collects what a traced run produces: spans, per-layer metric
// values, and the operations the traced twins attempted.
type tracer struct {
	rec        *recorder
	values     map[string]float64
	unresolved map[string]string
	outcome    outcome // operations of the traced run, with their failures
	digest     [32]byte
	// untraced and traced are the wall times trace.overhead_frac compares.
	untraced, traced float64
	// jobParent is the span the harness's jobs are running under, and
	// jobWallsMS their wall times so far (onJob).
	jobParent  int
	jobWallsMS []float64
	// clockNS is the cost of one pair of clock reads, taken off the
	// nanosecond-scale calls that are timed one by one.
	clockNS float64
}

func (t *tracer) set(name string, v float64) {
	if _, ok := t.values[name]; !ok {
		panic("bench: " + name + " is not in the per-layer metric table") // a typo in this package
	}
	t.values[name] = v
}

// span opens a span and returns the function that closes it.
func (t *tracer) span(name string, parent int) (id int, end func()) {
	id = t.rec.begin(name, parent)
	return id, func() { t.rec.end(id) }
}

// profileSeconds bounds how long a traced run repeats the workload
// under the CPU profiler.
const profileSeconds = 2.0

// runTraced is the traced run of one workload: layer micro-benchmarks,
// the workload's own traced twin, and a CPU profile of the untraced
// region. End-to-end metrics are never taken from here.
func runTraced(e *env, w *workload, seconds float64, dir string, golden map[string]string, stderr io.Writer) (report, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return report{}, err
	}
	t := &tracer{rec: newRecorder(), values: make(map[string]float64), unresolved: make(map[string]string)}
	for _, d := range perLayer {
		t.values[d.Name] = 0
	}
	t.rec.trace = fmt.Sprintf("%s/seed%d", w.name, e.seed)

	if w.prepare != nil {
		if err := w.prepare(e); err != nil {
			return report{}, err
		}
	}
	if err := layerMicros(e, t); err != nil {
		return report{}, fmt.Errorf("layer micro-benchmarks: %w", err)
	}
	if err := w.trace(e, t); err != nil {
		return report{}, err
	}
	if t.untraced > 0 {
		t.set("trace.overhead_frac", t.traced/t.untraced-1)
	}
	checkGolden(e, w, golden, &t.outcome, t.digest)

	shares, err := profileCPU(filepath.Join(dir, w.name+".cpu.pprof"), func() error {
		budget := min(profileSeconds, seconds/4)
		for spent := 0.0; spent < budget; {
			o, err := w.run(e)
			if err != nil {
				return err
			}
			spent += o.wall
		}
		return nil
	})
	if err != nil {
		// Attribution needs the go tool; the rest of the traced run does not.
		fmt.Fprintf(stderr, "bench: %s: no CPU attribution: %v\n", w.name, err)
		for _, l := range cpuLayers {
			t.unresolved["cpu_frac."+l] = "go tool pprof failed"
		}
	}
	for l, share := range shares {
		t.set("cpu_frac."+l, share)
	}
	if err := t.rec.write(filepath.Join(dir, w.name+".spans.json")); err != nil {
		return report{}, err
	}

	rep := report{
		Workload:   w.name,
		Seed:       e.seed,
		Traced:     true,
		Digest:     hex.EncodeToString(t.digest[:]),
		Problems:   t.outcome.problems,
		Unresolved: t.unresolved,
		Result: result{
			Correct:   t.outcome.failed == 0,
			Attempted: t.outcome.attempted,
			Failed:    t.outcome.failed,
			Metrics:   make(map[string]value, len(perLayer)),
		},
	}
	for _, d := range perLayer {
		rep.Result.Metrics[d.Name] = value{t.values[d.Name], d.Unit}
	}
	printSelfTimes(stderr, t.rec.spans)
	return rep, nil
}

// printSelfTimes prints total and self time per span name.
func printSelfTimes(out io.Writer, spans []span) {
	total, self := selfTimes(spans)
	names := make([]string, 0, len(total))
	for name := range total {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "spans: %-28s %12s %12s\n", "name", "total s", "self s")
	for _, name := range names {
		fmt.Fprintf(out, "spans: %-28s %12.6f %12.6f\n", name, float64(total[name])/1e9, float64(self[name])/1e9)
	}
}

// ---------------------------------------------------------------------
// Single-network workloads: the twin
// ---------------------------------------------------------------------

// twin is what driving one network from outside measured: the benchmark
// builds it with network.New and calls Step and NextDue itself, for
// exactly the cycles the untraced sim.Run reported.
type twin struct {
	newS          float64   // network.New
	stepNS        []float64 // every Step call
	stepS         float64   // Σ Step
	nextDueS      float64   // Σ NextDue
	nextDues      int
	wallS         float64 // whole twin, New to Close
	flits         int64   // flits ejected, counted through OnFlitEjected
	activeSum     float64 // Σ over samples of the share of routers not idle
	activeSamples int
	steadyMallocs uint64 // Mallocs from the end of warm-up to the end
	lookahead     int64
	nodes         int
}

// add accumulates another run of the same network shape into tw.
func (tw *twin) add(o twin) {
	tw.newS += o.newS
	tw.stepNS = append(tw.stepNS, o.stepNS...)
	tw.stepS += o.stepS
	tw.nextDueS += o.nextDueS
	tw.nextDues += o.nextDues
	tw.wallS += o.wallS
	tw.flits += o.flits
	tw.activeSum += o.activeSum
	tw.activeSamples += o.activeSamples
	tw.steadyMallocs += o.steadyMallocs
	tw.lookahead, tw.nodes = o.lookahead, o.nodes
}

// runTwin drives cfg's network for cycles simulated cycles, stepping
// and fast-forwarding as sim.Run does. With spans set, every call is
// also recorded under parent; the same two clock reads serve both.
func runTwin(t *tracer, spans bool, parent int, cfg sim.Config, cycles int64) (twin, error) {
	var tw twin
	rec := t.rec
	wall := time.Now()
	t0 := rec.now()
	net, err := network.New(cfg.Net)
	if err != nil {
		return tw, err
	}
	defer net.Close()
	t1 := rec.now()
	if spans {
		rec.add("network.New", "", parent, t0, t1)
	}
	tw.newS = float64(t1-t0) / 1e9
	tw.lookahead = net.Lookahead()
	tw.nodes = net.Nodes()
	net.OnFlitEjected = func(flit.Flit, int64) { tw.flits++ }

	var ms runtime.MemStats
	var steadyFrom uint64
	steady := false
	for now := int64(0); now < cycles; now++ {
		if !steady && now >= cfg.WarmupCycles {
			steady = true
			runtime.ReadMemStats(&ms)
			steadyFrom = ms.Mallocs
		}
		t0 := rec.now()
		net.Step(now)
		t1 := rec.now()
		next := net.NextDue(now)
		t2 := rec.now()
		if spans {
			rec.add("network.Step", "", parent, t0, t1)
			rec.add("network.NextDue", "", parent, t1, t2)
		}
		tw.stepNS = append(tw.stepNS, float64(t1-t0))
		tw.stepS += float64(t1-t0) / 1e9
		tw.nextDueS += float64(t2-t1) / 1e9
		tw.nextDues++
		if len(tw.stepNS)%64 == 0 {
			// A router has work when it holds flits or grants, or a flit
			// is on its way to it. (Router.Idle also counts credits a
			// sleeping router has not collected, so it cannot be used.)
			active := 0
			for id := 0; id < tw.nodes; id++ {
				if r := net.Router(id); !r.ComputeIdle() || r.NextArrival() != link.NeverDue {
					active++
				}
			}
			tw.activeSum += float64(active) / float64(tw.nodes)
			tw.activeSamples++
		}
		if next > now+1 {
			// Fast-forward as sim.Run does: never across the end of
			// warm-up, never past the end of the run.
			if now < cfg.WarmupCycles && next > cfg.WarmupCycles {
				next = cfg.WarmupCycles
			}
			now = min(next, cycles) - 1
		}
	}
	if steady {
		runtime.ReadMemStats(&ms)
		tw.steadyMallocs = ms.Mallocs - steadyFrom
	}
	tw.wallS = time.Since(wall).Seconds()
	return tw, nil
}

// traceNet is the traced run of a single-network workload.
func traceNet(e *env, t *tracer, nw netWorkload) error {
	root, endRoot := t.span("workload", -1)
	defer endRoot()

	// The untraced reference: the workload's own timed region, which also
	// tells the twin how many cycles each run simulates.
	start := time.Now()
	cfgs, err := nw.configs(e)
	if err != nil {
		return err
	}
	t.set("topology.new_us", us(time.Since(start))/float64(nw.runs))
	_, endRun := t.span("sim.Run", root)
	ref, cycles := runSims(cfgs)
	endRun()
	t.outcome, t.digest = ref, ref.digest
	if ref.failed > 0 {
		return nil
	}
	var simCycles int64
	for _, c := range cycles {
		simCycles += c
	}
	t.set("sim.run_s", ref.wall)
	t.set("sim.cycles", float64(simCycles))
	t.set("sim.run_mallocs", float64(ref.mallocs))
	t.set("sim.run_alloc_mb", ref.allocMB)

	// The traced twin, run for run.
	twinSpan, endTwin := t.span("twin", root)
	var all twin
	for i, cfg := range cfgs {
		tw, err := runTwin(t, true, twinSpan, cfg, cycles[i])
		if err != nil {
			return err
		}
		all.add(tw)
	}
	endTwin()
	t.untraced, t.traced = ref.wall, all.wallS
	sort.Float64s(all.stepNS)
	t.set("network.new_s", all.newS/float64(nw.runs))
	t.set("network.step_us_p50", quantile(all.stepNS, 0.5)/1e3)
	t.set("network.step_us_p99", quantile(all.stepNS, 0.99)/1e3)
	t.set("network.ns_per_router_cycle", all.stepS*1e9/float64(simCycles*int64(all.nodes)))
	if all.flits > 0 {
		t.set("network.ns_per_flit", all.stepS*1e9/float64(all.flits))
	} else {
		t.outcome.fail(1, "the twin ejected no flit in %d cycles", simCycles)
	}
	t.set("network.steady_mallocs", float64(all.steadyMallocs))
	if all.activeSamples > 0 {
		t.set("sched.active_router_frac", all.activeSum/float64(all.activeSamples))
	}
	t.set("sched.nextdue_ns", max(all.nextDueS*1e9/float64(all.nextDues)-t.clockNS/2, 0)) // each call is bracketed by one more read
	t.set("sched.stepped_cycles", float64(len(all.stepNS)))
	t.set("sched.ff_cycle_frac", 1-float64(len(all.stepNS))/float64(simCycles))
	// sim.Run's own share: everything it did that the twin's three calls
	// did not (statistics, tagging, the watchdog, the result).
	t.set("sim.self_s", max(ref.wall-(all.newS+all.stepS+all.nextDueS), 0))

	// Differential twins: the same network on another engine, over the
	// same cycles of run 0. Each must eject exactly the flits the base
	// twin did, and each is compared with a base twin run the same way.
	base, err := runTwin(t, false, -1, cfgs[0], cycles[0])
	if err != nil {
		return err
	}
	variant := func(name string, change func(*network.Config)) (twin, error) {
		cfg := cfgs[0]
		change(&cfg.Net)
		tw, err := runTwin(t, false, -1, cfg, cycles[0])
		t.outcome.attempted++
		if err == nil && tw.flits != base.flits {
			t.outcome.fail(1, "%s twin ejected %d flits, the base twin %d", name, tw.flits, base.flits)
		}
		return tw, err
	}
	switch nw.twin {
	case "audit":
		tw, err := variant("audit", func(c *network.Config) { c.Audit = 100 })
		if err != nil {
			return err
		}
		t.set("network.audit100_overhead_frac", tw.stepS/base.stepS-1)
	case "fullscan":
		tw, err := variant("full-scan", func(c *network.Config) { c.FullScan = true })
		if err != nil {
			return err
		}
		t.set("sched.fullscan_slowdown", tw.stepS/base.stepS)
	case "shards":
		if runtime.NumCPU() < 2 {
			// Two shards on one core measure only their own overhead; a
			// speed-up figure from there would mislead.
			for _, d := range perLayer {
				if strings.HasPrefix(d.Name, "shard.") || d.Name == "network.stepworkers2_speedup" {
					t.unresolved[d.Name] = "needs 2 cores"
				}
			}
			break
		}
		serial, err := variant("serial", func(c *network.Config) { c.Shards = 0 })
		if err != nil {
			return err
		}
		gang, err := variant("step-workers", func(c *network.Config) { c.Shards, c.StepWorkers = 0, 2 })
		if err != nil {
			return err
		}
		procs := runtime.GOMAXPROCS(1)
		oneProc, err := variant("one-proc", func(*network.Config) {})
		runtime.GOMAXPROCS(procs)
		if err != nil {
			return err
		}
		speedup := serial.stepS / base.stepS
		t.set("shard.speedup", speedup)
		t.set("shard.parallel_eff", speedup/float64(nw.shards))
		t.set("shard.overhead_1proc", oneProc.stepS/serial.stepS-1)
		t.set("shard.build_s", base.newS-serial.newS)
		t.set("shard.lookahead_cycles", float64(base.lookahead))
		t.set("network.stepworkers2_speedup", serial.stepS/gang.stepS)
		sort.Float64s(base.stepNS)
		t.set("shard.step_us_p99_over_p50", quantile(base.stepNS, 0.99)/quantile(base.stepNS, 0.5))
	}
	return nil
}

// ---------------------------------------------------------------------
// fig13
// ---------------------------------------------------------------------

// onJob is the harness Progress callback of the traced runs: it rebuilds
// one span per job, under jobParent, from the moment the harness reports
// the job and the wall time it carries.
func (t *tracer) onJob(_, _ int, r harness.JobResult) {
	end := t.rec.now()
	t.rec.add("harness.job", r.Scenario.Label(), t.jobParent, end-r.Wall.Nanoseconds(), end)
	t.jobWallsMS = append(t.jobWallsMS, float64(r.Wall.Nanoseconds())/1e6)
}

// poolMetrics sets the pool's view of a batch of jobs: the share of the
// workers' time that was spent inside jobs, and the job times whose
// maximum sets the tail.
func (t *tracer) poolMetrics(e *env, wallS float64) {
	if len(t.jobWallsMS) == 0 {
		return
	}
	var sum float64
	for _, ms := range t.jobWallsMS {
		sum += ms
	}
	s := summarize(t.jobWallsMS)
	t.set("harness.pool_util", sum/1e3/(float64(e.workers)*wallS))
	t.set("harness.job_wall_ms_p50", s.Median)
	t.set("harness.job_wall_ms_max", s.Max)
}

func traceFig13(e *env, t *tracer) error {
	root, endRoot := t.span("workload", -1)
	defer endRoot()
	w := fig13Workload()

	_, endRef := t.span("routersim.Reproduce", root)
	ref, err := w.run(e)
	endRef()
	if err != nil {
		return err
	}
	t.outcome, t.digest = ref, ref.digest
	t.set("experiments.fig13_jobs", float64(ref.attempted))
	t.set("experiments.fig13_mallocs", float64(ref.mallocs))

	// The traced twin: what experiments.Figure13 does, curve by curve,
	// with the harness's progress callback giving the per-job spans that
	// Reproduce does not expose.
	pr := fig13Protocol(e)
	fig := cannedFigure()
	twinSpan, endTwin := t.span("twin", root)
	start := time.Now()
	opts := harness.Options{
		Seed:     pr.Seed,
		Protocol: harness.Protocol{Warmup: pr.Warmup, Packets: pr.Packets, Exact: true},
		Progress: t.onJob,
	}
	for i, sc := range fig13Curves {
		var endCurve func()
		t.jobParent, endCurve = t.span("harness.Curve", twinSpan)
		pts, err := harness.Curve(sc, pr.Loads, opts)
		endCurve()
		if err != nil {
			return err
		}
		fig.Curves[i].Points = pts
		fig.Curves[i].Saturation = sim.SaturationLoad(pts, 140)
		fig.Curves[i].ZeroLoad = pts[0].Result.Latency.MeanLatency
	}
	t.traced = time.Since(start).Seconds()
	endTwin()
	t.untraced = ref.wall
	t.poolMetrics(e, t.traced)

	twinOut := timedRegion(func(o *outcome, out *bytes.Buffer) { fig13Outcome(o, out, fig) })
	t.outcome.attempted += len(t.jobWallsMS)
	if twinOut.digest != ref.digest {
		t.outcome.fail(len(t.jobWallsMS), "the traced figure's digest %x differs from Reproduce's %x", twinOut.digest[:6], ref.digest[:6])
	}
	zero, sat := fig13Error(fig)
	t.set("experiments.paper_zeroload_err_pct", zero)
	t.set("experiments.paper_sat_err_pts", sat)
	return nil
}

// ---------------------------------------------------------------------
// sweeps
// ---------------------------------------------------------------------

// entryBytes sets checkpoint.entry_bytes to the mean size of the
// store's entry files.
func (t *tracer) entryBytes(dir string) error {
	files, err := filepath.Glob(filepath.Join(dir, "*.ck"))
	if err != nil || len(files) == 0 {
		return err
	}
	var total int64
	for _, f := range files {
		info, err := os.Stat(f)
		if err != nil {
			return err
		}
		total += info.Size()
	}
	t.set("checkpoint.entry_bytes", float64(total)/float64(len(files)))
	return nil
}

// tracedSweep is sweep with a span around each call into a layer. ran
// is how many jobs were simulated, not loaded.
func tracedSweep(e *env, t *tracer, parent int, dir string, o *outcome, out *bytes.Buffer) (results []harness.JobResult, ran int) {
	_, end := t.span("checkpoint.Open", parent)
	store, err := checkpoint.Open(dir)
	end()
	if err != nil {
		o.fail(1, "open store: %v", err)
		return nil, 0
	}
	before, err := store.Len()
	if err != nil {
		o.fail(1, "list store: %v", err)
	}

	opts := sweepOptions(e)
	t.jobParent, end = t.span("harness.RunResumable", parent)
	opts.Progress = t.onJob
	jobsBefore := len(t.jobWallsMS)
	start := time.Now()
	results, err = harness.RunResumable(sweepMatrix, opts, store)
	resume := time.Since(start)
	end()
	if err != nil {
		o.fail(1, "sweep: %v", err)
	}
	after, err := store.Len()
	if err != nil {
		o.fail(1, "list store: %v", err)
	}

	_, end = t.span("harness.WriteJSON", parent)
	start = time.Now()
	err = harness.WriteJSON(out, results)
	t.set("harness.write_json_us", us(time.Since(start)))
	end()
	if err != nil {
		o.fail(1, "WriteJSON: %v", err)
	}
	_, end = t.span("harness.WriteCSV", parent)
	start = time.Now()
	err = harness.WriteCSV(out, results)
	t.set("harness.write_csv_us", us(time.Since(start)))
	end()
	if err != nil {
		o.fail(1, "WriteCSV: %v", err)
	}

	// Every job of the matrix either was in the store before the sweep
	// or is new in it afterwards.
	t.set("checkpoint.hits", float64(before))
	t.set("checkpoint.misses", float64(after-before))
	ran = len(t.jobWallsMS) - jobsBefore
	if ran == 0 && len(results) > 0 {
		t.set("harness.resume_load_us_per_job", us(resume)/float64(len(results)))
	}
	return results, ran
}

func traceSweepCold(e *env, t *tracer) error {
	root, endRoot := t.span("workload", -1)
	defer endRoot()
	_, endRef := t.span("sweep untraced", root)
	ref, err := sweepColdWorkload().run(e)
	endRef()
	if err != nil {
		return err
	}
	t.outcome, t.digest, t.untraced = ref, ref.digest, ref.wall

	dir, err := os.MkdirTemp(e.dir, "cold-traced-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	twinSpan, endTwin := t.span("twin", root)
	traced := timedRegion(func(o *outcome, out *bytes.Buffer) {
		results, _ := tracedSweep(e, t, twinSpan, dir, o, out)
		o.attempted = len(results)
		sweepOutcome(o, results)
	})
	endTwin()
	t.traced = traced.wall
	t.poolMetrics(e, traced.wall)
	if err := t.entryBytes(dir); err != nil {
		return err
	}
	t.outcome.add(traced)
	if traced.digest != ref.digest {
		t.outcome.fail(traced.attempted-traced.failed, "the traced sweep's digest %x differs from the untraced one's %x", traced.digest[:6], ref.digest[:6])
	}
	return nil
}

func traceSweepCached(e *env, t *tracer) error {
	root, endRoot := t.span("workload", -1)
	defer endRoot()
	_, endRef := t.span("sweep untraced", root)
	ref, err := sweepCachedWorkload().run(e)
	endRef()
	if err != nil {
		return err
	}
	t.outcome, t.digest, t.untraced = ref, ref.digest, ref.wall

	twinSpan, endTwin := t.span("twin", root)
	traced := timedRegion(func(o *outcome, out *bytes.Buffer) {
		for pass := 0; pass < cachedPasses; pass++ {
			out.Reset()
			passSpan, endPass := t.span("pass", twinSpan)
			results, ran := tracedSweep(e, t, passSpan, cachedDir(e), o, out)
			endPass()
			o.attempted += len(results)
			if ran > 0 {
				o.fail(ran, "pass %d: %d jobs ran instead of loading", pass, ran)
			}
			if !bytes.Equal(out.Bytes(), e.coldOutput) {
				o.fail(len(results)-ran, "pass %d: output differs from the cold sweep's", pass)
			}
		}
	})
	endTwin()
	t.traced = traced.wall
	t.outcome.add(traced)
	return t.entryBytes(cachedDir(e))
}
