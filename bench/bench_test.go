package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"routersim/internal/router"
)

func TestQuantilesAndSummary(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	s := summarize(vals)
	if s.N != 5 || s.Min != 1 || s.Q1 != 2 || s.Median != 3 || s.Q3 != 4 || s.Max != 5 {
		t.Errorf("summarize(%v) = %+v", vals, s)
	}
	if vals[0] != 5 {
		t.Errorf("summarize sorted its argument in place: %v", vals)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
	if got := quantile([]float64{10, 20}, 0.99); math.Abs(got-19.9) > 1e-9 {
		t.Errorf("quantile interpolates: got %v, want 19.9", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing should be NaN")
	}
	if got := lateReps([]float64{1, 1, 1.2, 1.3, 1}); len(got) != 1 || got[0] != 3 {
		t.Errorf("lateReps = %v, want [3]: only 1.3 is beyond 1.25x the median", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		// Two overlapping children: [10,60] ∪ [40,80] covers 70, not 90.
		{ID: 1, Parent: 0, Name: "job", Start: 10, End: 60},
		{ID: 2, Parent: 0, Name: "job", Start: 40, End: 80},
		// A child reaching outside its parent is clipped to it.
		{ID: 3, Parent: 0, Name: "late", Start: 90, End: 130},
		// A grandchild is taken off its own parent only.
		{ID: 4, Parent: 1, Name: "leaf", Start: 20, End: 30},
		// A child covering its whole parent leaves self time 0, not less.
		{ID: 5, Parent: -1, Name: "thin", Start: 200, End: 210},
		{ID: 6, Parent: 5, Name: "wide", Start: 190, End: 220},
	}
	total, self := selfTimes(spans)
	want := map[string][2]int64{
		"root": {100, 100 - 70 - 10},
		"job":  {50 + 40, 50 - 10 + 40},
		"late": {40, 40},
		"leaf": {10, 10},
		"thin": {10, 0},
		"wide": {30, 30},
	}
	for name, w := range want {
		if total[name] != w[0] || self[name] != w[1] {
			t.Errorf("%s: total %d self %d, want %d %d", name, total[name], self[name], w[0], w[1])
		}
	}
	for name, s := range self {
		if s < 0 {
			t.Errorf("%s: negative self time %d", name, s)
		}
	}
}

const cannedTop = `File: routersim-bench
Type: cpu
Time: Sep 28, 2026 at 4:00pm (UTC)
Duration: 2.01s, Total samples = 2s (99.50%)
Showing nodes accounting for 2s, 100% of 2s total
      flat  flat%   sum%        cum   cum%
     0.50s 25.00% 25.00%      1.20s 60.00%  routersim/internal/router.(*Router).allocSpec
     0.30s 15.00% 40.00%      0.30s 15.00%  routersim/internal/link.(*Wire[go.shape.struct { Kind routersim/internal/flit.Type; Seq int }]).Pop
     0.20s 10.00% 50.00%      0.20s 10.00%  routersim/internal/arbiter.(*Matrix).Grant
     0.20s 10.00% 60.00%      0.40s 20.00%  runtime.mallocgc
     0.10s  5.00% 65.00%      0.10s  5.00%  runtime.(*mspan).sweep
     0.10s  5.00% 70.00%      0.10s  5.00%  runtime.futex
     0.10s  5.00% 75.00%      0.10s  5.00%  internal/runtime/atomic.(*Uint32).Load
     0.20s 10.00% 85.00%      0.20s 10.00%  encoding/json.(*decodeState).object
     100ms  5.00% 90.00%      100ms  5.00%  routersim/internal/pool.Run.func1
     0.10s  5.00% 95.00%      0.10s  5.00%  routersim/internal/experiments.runCurves
     0.10s  5.00%   100%      0.10s  5.00%  main.(*testbench).offer
         0     0%   100%      1.50s 75.00%  routersim/internal/sim.(*Runner).Run
`

func TestCPUShares(t *testing.T) {
	got := cpuShares(cannedTop)
	want := map[string]float64{
		"router": 0.25, "link": 0.15, "arbiter": 0.10, "runtime_gc": 0.15, "runtime_other": 0.10,
		"stdlib": 0.10, "pool": 0.05, "other": 0.10, "sim": 0,
	}
	var sum float64
	for _, l := range cpuLayers {
		sum += got[l]
		if w, ok := want[l]; ok && math.Abs(got[l]-w) > 1e-9 {
			t.Errorf("cpu_frac.%s = %v, want %v", l, got[l], w)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if len(got) != len(cpuLayers) {
		t.Errorf("%d shares for %d layers", len(got), len(cpuLayers))
	}
	for _, share := range cpuShares("no table here") {
		if share != 0 {
			t.Error("a profile without samples must give zero shares")
		}
	}
}

func TestTestbench(t *testing.T) {
	// The paper's pipeline depths: Figures 2, 3 and 4c.
	for kind, want := range map[router.Kind]int64{router.Wormhole: 3, router.VirtualChannel: 4, router.SpeculativeVC: 3} {
		if got := headLatency(kind); got != want {
			t.Errorf("%v: head flit spends %d cycles in the router, want %d", kind, got, want)
		}
	}
	a := newTestbench(router.SpeculativeVC).saturate(500, 2000, false, 0)
	b := newTestbench(router.SpeculativeVC).saturate(500, 2000, true, 0)
	if a.flitsPerCycle != b.flitsPerCycle {
		t.Errorf("Step and Deliver+Compute moved different traffic: %v and %v flits/cycle", a.flitsPerCycle, b.flitsPerCycle)
	}
	// Five inputs offer one flit a cycle each; some is lost to contention.
	if a.flitsPerCycle < 2 || a.flitsPerCycle > 5 {
		t.Errorf("saturated throughput %v flits/cycle is outside (2, 5]", a.flitsPerCycle)
	}
	if a.stepNS <= 0 || b.deliverNS <= 0 || b.computeNS <= 0 {
		t.Errorf("router times not positive: %+v %+v", a, b)
	}
}

// smallDrain is drain-tail shrunk to a 16-router mesh and three runs.
var smallDrain = netWorkload{topo: "mesh:k=4", rate: 0.0005, warmup: 500, packets: 20, runs: 3, twin: "fullscan"}

func testEnv(t *testing.T, seed uint64) *env {
	return &env{seed: seed, workers: 2, dir: t.TempDir()}
}

func TestUntracedSmoke(t *testing.T) {
	w := smallDrain.workload("drain-tail", "smoke")
	rep, err := runUntraced(testEnv(t, 2), w, 0.05, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Result.Correct || rep.Result.Failed != 0 || rep.Result.Attempted < 3*minReps {
		t.Fatalf("result %+v, problems %v", rep.Result, rep.Problems)
	}
	for _, d := range endToEnd {
		if v, ok := rep.Result.Metrics[d.Name]; !ok || v.Value <= 0 || v.Unit != d.Unit {
			t.Errorf("%s = %+v, want a positive value in %s", d.Name, v, d.Unit)
		}
	}
	if len(rep.Result.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want exactly the %d end-to-end ones", len(rep.Result.Metrics), len(endToEnd))
	}

	// The same workload at seed 1 without a golden digest fails every
	// operation: the gate cannot be passed by leaving the entry out.
	rep, err = runUntraced(testEnv(t, 1), w, 0.05, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Correct || rep.Result.Failed != rep.Result.Attempted {
		t.Errorf("seed 1 without a golden digest: %+v", rep.Result)
	}

	var out bytes.Buffer
	printReport(&out, w, rep)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, out.String())
	}
}

func TestTracedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the layer micro-benchmarks and go tool pprof")
	}
	w := smallDrain.workload("drain-tail", "smoke")
	dir := t.TempDir()
	rep, err := runTraced(testEnv(t, 2), w, 0.2, dir, nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Result.Correct {
		t.Fatalf("result %+v, problems %v", rep.Result, rep.Problems)
	}
	if len(rep.Result.Metrics) != len(perLayer) {
		t.Errorf("%d metrics, want every one of the %d per-layer ones", len(rep.Result.Metrics), len(perLayer))
	}
	for _, name := range []string{"network.new_s", "sched.stepped_cycles", "sched.ff_cycle_frac", "sched.fullscan_slowdown", "sim.run_s", "router.step_ns.specvc", "checkpoint.put_us_p50"} {
		if rep.Result.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want a positive value", name, rep.Result.Metrics[name].Value)
		}
	}
	b, err := os.ReadFile(dir + "/drain-tail.spans.json")
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, s := range spans {
		names[s.Name] = true
		if s.End < s.Start || s.Parent >= s.ID {
			t.Fatalf("malformed span %+v", s)
		}
	}
	for _, name := range []string{"workload", "sim.Run", "twin", "network.New", "network.Step", "network.NextDue"} {
		if !names[name] {
			t.Errorf("no %q span in spans.json", name)
		}
	}
	if _, err := os.Stat(dir + "/drain-tail.cpu.pprof"); err != nil {
		t.Error(err)
	}
}

func TestFlags(t *testing.T) {
	if code := run([]string{"-workload", "nonesuch"}, io.Discard, io.Discard); code != 2 {
		t.Errorf("unknown workload: exit code %d, want 2", code)
	}
	if code := run([]string{"stray"}, io.Discard, io.Discard); code != 2 {
		t.Errorf("stray argument: exit code %d, want 2", code)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to this package's tables and to
// the limits of the contract it is written to.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			metricDef
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bm); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}

	ws := workloads()
	if len(bm.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(bm.Workloads), len(ws))
	}
	for i, w := range ws {
		check(w.name)
		if bm.Workloads[i].Name != w.name || bm.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, this package %q: %q", i, bm.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	if len(bm.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d here", len(bm.EndToEnd), len(endToEnd))
	}
	setupBound, maxBound := 0.0, 0.0
	for i, d := range endToEnd {
		check(d.Name)
		got := bm.EndToEnd[i]
		if got.metricDef != d || !unitRE.MatchString(d.Unit) || got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, this package %+v", i, got, d)
		}
		if d.Name == "setup_s" {
			setupBound = got.Bound
		}
		maxBound = max(maxBound, got.Bound)
	}
	if setupBound == 0 || setupBound != maxBound {
		t.Errorf("setup_s must be there and carry the largest bound; got %v of %v", setupBound, maxBound)
	}
	if len(bm.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d here (at most 128)", len(bm.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		check(d.Name)
		if bm.PerLayer[i] != d || !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, this package %+v", i, bm.PerLayer[i], d)
		}
	}
	if len(bm.Paths) != 1 || bm.Paths[0] != "bench" || bm.RunSeconds < 1 || bm.RunSeconds > 60 || len(bm.Command) == 0 {
		t.Errorf("paths %v, run_seconds %d, command %v", bm.Paths, bm.RunSeconds, bm.Command)
	}
}
