package harness

import (
	"encoding/csv"
	"math"
	"strings"
	"testing"

	"routersim/internal/sim"
)

// satOptions is the scaled-down protocol the saturation-search tests
// share; large enough that the knee estimate is stable per seed.
func satOptions() Options {
	return Options{Seed: 2, Protocol: Protocol{Warmup: 2000, Packets: 1500}}
}

// TestFindSaturationAgreesWithGrid is the engine's acceptance check on
// the paper's 8×8 mesh: the adaptive bisection must land within one
// grid step of the fixed-grid knee while simulating fewer total cycles
// than the grid sweep it replaces.
func TestFindSaturationAgreesWithGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	sc := Scenario{Router: "spec-vc", Topology: "mesh", K: 8}
	opts := satOptions()
	const step = 0.05

	var loads []float64
	for l := step; l < 1.0-1e-9; l += step {
		loads = append(loads, math.Round(l*100)/100)
	}
	pts, err := Curve(sc, loads, opts)
	if err != nil {
		t.Fatal(err)
	}
	gridKnee := sim.SaturationLoad(pts, 140)
	var gridCycles int64
	for _, p := range pts {
		gridCycles += p.Result.Cycles
	}

	sr, err := FindSaturation(sc, opts, SearchOptions{Step: step})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Error != "" {
		t.Fatal(sr.Error)
	}
	if math.Abs(sr.Load-gridKnee) > step+1e-9 {
		t.Errorf("bisection knee %.2f vs grid knee %.2f: want within one %.2f step", sr.Load, gridKnee, step)
	}
	if sr.Cycles >= gridCycles {
		t.Errorf("bisection simulated %d cycles, grid %d: the search must be cheaper", sr.Cycles, gridCycles)
	}
	if len(sr.Probes) >= len(loads) {
		t.Errorf("bisection ran %d probes, grid %d points: want fewer", len(sr.Probes), len(loads))
	}
	if sr.Upper-sr.Load > step+1e-9 {
		t.Errorf("final bracket (%.3f, %.3f] wider than one step", sr.Load, sr.Upper)
	}
	if sr.Load > 0 && sr.Throughput <= 0 {
		t.Errorf("stable knee %.2f carries no measured throughput", sr.Load)
	}
	t.Logf("grid knee %.2f (%d cycles, %d runs) vs bisection %.2f (%d cycles, %d probes)",
		gridKnee, gridCycles, len(loads), sr.Load, sr.Cycles, len(sr.Probes))
}

// TestFindSaturationDeterministic: same scenario + seed ⇒ identical
// probes and knee, any time.
func TestFindSaturationDeterministic(t *testing.T) {
	sc := Scenario{Router: "spec-vc", K: 4}
	so := SearchOptions{Step: 0.1, MaxProbes: 4}
	a, err := FindSaturation(sc, satOptions(), so)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FindSaturation(sc, satOptions(), so)
	if err != nil {
		t.Fatal(err)
	}
	if a.Load != b.Load || a.Cycles != b.Cycles || len(a.Probes) != len(b.Probes) {
		t.Fatalf("search diverged across runs: %+v vs %+v", a, b)
	}
	for i := range a.Probes {
		if a.Probes[i].Load != b.Probes[i].Load || a.Probes[i].Saturated != b.Probes[i].Saturated {
			t.Errorf("probe %d diverged", i)
		}
	}
}

// TestFindSaturationBracket: the reported knee is always inside the
// bracket, on the step grid, and the probe count respects MaxProbes.
func TestFindSaturationBracket(t *testing.T) {
	sc := Scenario{Router: "spec-vc", K: 4}
	so := SearchOptions{Lo: 0.1, Hi: 0.9, Step: 0.1, MaxProbes: 3}
	sr, err := FindSaturation(sc, satOptions(), so)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Load < so.Lo-1e-9 || sr.Upper > so.Hi+1e-9 || sr.Load >= sr.Upper {
		t.Errorf("bracket [%v, %v] escaped [%v, %v]", sr.Load, sr.Upper, so.Lo, so.Hi)
	}
	if len(sr.Probes) > so.MaxProbes {
		t.Errorf("%d probes exceed MaxProbes %d", len(sr.Probes), so.MaxProbes)
	}
}

func TestFindSaturationRejectsBadInput(t *testing.T) {
	opts := satOptions()
	if _, err := FindSaturation(Scenario{Router: "nonsense"}, opts, SearchOptions{}); err == nil {
		t.Error("unknown router should fail up front")
	}
	if _, err := FindSaturation(Scenario{Router: "spec-vc", K: 4}, opts, SearchOptions{Lo: 0.9, Hi: 0.2}); err == nil {
		t.Error("inverted bracket should be rejected")
	}
	if _, err := FindSaturations(Matrix{Routers: []string{"spec-vc"}}, opts, SearchOptions{Lo: -1}); err == nil {
		t.Error("negative Lo should be rejected")
	}
	if _, err := FindSaturations(Matrix{Sources: []string{"", "trace:file=run.trace"}}, opts, SearchOptions{}); err == nil || !strings.Contains(err.Error(), "trace") {
		t.Errorf("a trace source sets its own rate, leaving no load to bisect; got %v", err)
	}
}

// TestFindSaturationsMatrix: the matrix form searches every scenario,
// records per-scenario errors without sinking the run, and is
// deterministic across worker counts.
func TestFindSaturationsMatrix(t *testing.T) {
	m := Matrix{
		Routers: []string{"spec-vc"},
		Ks:      []int{6},
		// bit-reversal cannot exist on a 36-node network: job 1 must
		// fail alone.
		Patterns: []string{"uniform", "bit-reversal"},
		Loads:    []float64{0.3, 0.7}, // ignored: the search owns the load axis
	}
	so := SearchOptions{Step: 0.2, MaxProbes: 3}
	run := func(workers int) []SaturationResult {
		opts := satOptions()
		opts.Workers = workers
		results, err := FindSaturations(m, opts, so)
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	results := run(1)
	if len(results) != 2 {
		t.Fatalf("%d results, want 2 (loads axis must collapse)", len(results))
	}
	if results[0].Error != "" {
		t.Errorf("uniform search failed: %s", results[0].Error)
	}
	if len(results[0].Probes) == 0 || results[0].Cycles == 0 {
		t.Errorf("uniform search ran no probes: %+v", results[0])
	}
	if results[1].Error == "" {
		t.Error("bit-reversal on 36 nodes should record an error")
	}
	if results[0].Seed == results[1].Seed {
		t.Error("per-scenario seeds must differ")
	}

	var a, b strings.Builder
	if err := WriteSaturationCSV(&a, results); err != nil {
		t.Fatal(err)
	}
	if err := WriteSaturationCSV(&b, run(4)); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("saturation CSV diverged across worker counts")
	}
	if !strings.HasPrefix(a.String(), SaturationCSVHeader+"\n") {
		t.Fatalf("CSV header wrong:\n%s", a.String())
	}
	rows, err := csv.NewReader(strings.NewReader(a.String())).ReadAll()
	if err != nil {
		t.Fatalf("CSV does not parse: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d CSV rows, want header + 2:\n%s", len(rows), a.String())
	}
	wantCols := len(strings.Split(SaturationCSVHeader, ","))
	for _, row := range rows {
		if len(row) != wantCols {
			t.Errorf("row has %d columns, want %d: %q", len(row), wantCols, row)
		}
	}

	var js strings.Builder
	if err := WriteSaturationJSON(&js, results); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"saturation_load"`) {
		t.Errorf("JSON missing saturation_load: %s", js.String())
	}
	var empty strings.Builder
	if err := WriteSaturationJSON(&empty, nil); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(empty.String()) != "[]" {
		t.Errorf("empty result set should serialize as []: %q", empty.String())
	}
}

// TestProtocolModesLower: Exact and CITarget must reach the simulation
// config, and a CI-capped sub-saturation run may legitimately shorten
// its sample — but must never be marked saturated for it.
func TestProtocolModesLower(t *testing.T) {
	sc := Scenario{Router: "spec-vc", K: 4, Load: 0.2}
	cfg, err := sc.SimConfig(1, Protocol{Warmup: 100, Packets: 100, Exact: true, CITarget: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.ExactLatency || cfg.CITarget != 0.05 {
		t.Fatalf("protocol modes not lowered: %+v", cfg)
	}

	opts := Options{Seed: 1, Protocol: Protocol{Warmup: 2000, Packets: 4000, CITarget: 0.05}}
	r, err := RunScenario(sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Error != "" {
		t.Fatal(r.Error)
	}
	res := r.Result
	if res.Saturated {
		t.Errorf("CI-terminated run marked saturated: %+v", res)
	}
	if res.Latency.Censored != 0 {
		t.Errorf("clean early stop reports %d censored packets", res.Latency.Censored)
	}
	if res.Tagged > 4000 || res.Tagged < 1 {
		t.Errorf("tagged sample %d outside (0, 4000]", res.Tagged)
	}
	if res.Tagged == 4000 {
		t.Logf("note: CI target not reached before the full sample at this seed")
	}
}
