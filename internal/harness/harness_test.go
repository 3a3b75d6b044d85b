package harness

import (
	"math"
	"strings"
	"testing"

	"routersim/internal/router"
)

func tinyOptions() Options {
	return Options{Seed: 1, Protocol: Protocol{Warmup: 300, Packets: 150}}
}

func TestMatrixExpandOrderAndSize(t *testing.T) {
	m := Matrix{
		Routers:  []string{"wormhole", "spec-vc"},
		Patterns: []string{"uniform", "transpose"},
		Loads:    []float64{0.1, 0.2, 0.3},
	}
	scs := m.Expand()
	if len(scs) != m.Size() || len(scs) != 12 {
		t.Fatalf("expanded %d scenarios, Size()=%d, want 12", len(scs), m.Size())
	}
	// Loads are the innermost axis, routers the outermost.
	if scs[0].Load != 0.1 || scs[1].Load != 0.2 || scs[2].Load != 0.3 {
		t.Errorf("loads not innermost: %+v", scs[:3])
	}
	if scs[0].Router != "wormhole" || scs[11].Router != "spec-vc" {
		t.Errorf("routers not outermost: first %+v last %+v", scs[0], scs[11])
	}
	if scs[0].Pattern != "uniform" || scs[3].Pattern != "transpose" {
		t.Errorf("pattern axis misordered: %+v %+v", scs[0], scs[3])
	}
	// Defaults fill the unspecified axes.
	if scs[0].K != 8 || scs[0].Topology != "mesh" || scs[0].PacketSize != 5 {
		t.Errorf("defaults not applied: %+v", scs[0])
	}
}

// TestExpandCanonicalizesWormholeVCs: the VCs axis does not apply to
// non-VC router kinds; expansion must pin them to 1 VC (so labels and
// serialized results state the configuration that actually runs) and
// collapse the duplicates this creates.
func TestExpandCanonicalizesWormholeVCs(t *testing.T) {
	m := Matrix{
		Routers: []string{"wormhole", "vc"},
		VCs:     []int{2, 4},
		Loads:   []float64{0.1},
	}
	scs := m.Expand()
	// wormhole×{2,4} collapses to one vcs=1 job; vc keeps both.
	if len(scs) != 3 || m.Size() != 3 {
		t.Fatalf("expanded %d scenarios, want 3: %+v", len(scs), scs)
	}
	if scs[0].Router != "wormhole" || scs[0].VCs != 1 {
		t.Errorf("wormhole not canonicalized to 1 VC: %+v", scs[0])
	}
	if scs[1].VCs != 2 || scs[2].VCs != 4 {
		t.Errorf("vc axis lost: %+v %+v", scs[1], scs[2])
	}
}

// TestExpandCanonicalizesZeroAxisValues: a zero axis value means "the
// default" — the expanded scenario must state the value that actually
// runs, never serialize the placeholder 0.
func TestExpandCanonicalizesZeroAxisValues(t *testing.T) {
	m := Matrix{
		Ks:           []int{0},
		VCs:          []int{0},
		BufsPerVC:    []int{0},
		PacketSizes:  []int{0},
		CreditDelays: []int{0},
		Loads:        []float64{0.1},
	}
	scs := m.Expand()
	if len(scs) != 1 {
		t.Fatalf("expanded %d scenarios, want 1", len(scs))
	}
	sc := scs[0]
	if sc.K != 8 || sc.VCs != 2 || sc.BufPerVC != 4 || sc.PacketSize != 5 || sc.CreditDelay != 1 {
		t.Errorf("zero axis values not canonicalized to the running defaults: %+v", sc)
	}
}

// TestSimConfigRejectsNonpositiveResources: negative axis values are
// errors, not silent substitutions.
func TestSimConfigRejectsNonpositiveResources(t *testing.T) {
	bad := []Scenario{
		{Router: "vc", VCs: -1, Load: 0.1},
		{Router: "vc", BufPerVC: -4, Load: 0.1},
		{Router: "vc", PacketSize: -5, Load: 0.1},
		{Router: "vc", K: 1, Load: 0.1},
	}
	for i, sc := range bad {
		if _, err := sc.SimConfig(1, Protocol{Warmup: 1, Packets: 1}); err == nil {
			t.Errorf("case %d: invalid scenario accepted: %+v", i, sc)
		}
	}
}

// TestSimConfigRejectsNonFiniteLoad: a NaN or infinite load is an
// error at validation, not a hang inside network.New (NaN < 0 is false,
// so the negative-load check alone let it through).
func TestSimConfigRejectsNonFiniteLoad(t *testing.T) {
	for _, load := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		sc := Scenario{Router: "spec-vc", K: 4, Load: load}
		if _, err := sc.SimConfig(1, Protocol{Warmup: 1, Packets: 1}); err == nil {
			t.Errorf("load %v accepted", load)
		}
	}
}

// TestRunScenarioStrict: an explicit single scenario is validated
// strictly — the matrix pin must not silently rewrite it.
func TestRunScenarioStrict(t *testing.T) {
	if _, err := RunScenario(Scenario{Router: "wormhole", VCs: 4, Load: 0.1}, tinyOptions()); err == nil {
		t.Error("RunScenario should reject wormhole with 4 VCs")
	}
	r, err := RunScenario(Scenario{Router: "spec-vc", K: 4, Load: 0.1}, tinyOptions())
	if err != nil || r.Error != "" {
		t.Fatalf("valid scenario failed: %v %q", err, r.Error)
	}
	if r.Scenario.VCs != 2 || r.Scenario.BufPerVC != 4 {
		t.Errorf("result scenario not canonicalized: %+v", r.Scenario)
	}
}

// TestCurveRejectsDuplicateLoads: duplicate loads would be collapsed by
// matrix dedup, silently shortening the curve.
func TestCurveRejectsDuplicateLoads(t *testing.T) {
	sc := Scenario{Router: "spec-vc", K: 4}
	if _, err := Curve(sc, []float64{0.1, 0.1}, tinyOptions()); err == nil {
		t.Error("duplicate loads should be rejected")
	}
}

// TestCurveStrictAsRunScenario: Curve refuses a scenario RunScenario
// refuses, with the same error, instead of running what the matrix
// engine canonicalizes it to (a wormhole router at 1 VC).
func TestCurveStrictAsRunScenario(t *testing.T) {
	sc := Scenario{Router: "wormhole", K: 4, VCs: 2}
	_, want := RunScenario(sc, tinyOptions())
	if want == nil {
		t.Fatal("RunScenario accepted a wormhole router with 2 VCs")
	}
	if _, err := Curve(sc, []float64{0.1}, tinyOptions()); err == nil || err.Error() != want.Error() {
		t.Errorf("Curve: got %v, want RunScenario's %v", err, want)
	}
}

// TestSimConfigRejectsWormholeVCs: a hand-built scenario must not run
// a different configuration than it states.
func TestSimConfigRejectsWormholeVCs(t *testing.T) {
	sc := Scenario{Router: "wormhole", VCs: 4, BufPerVC: 8, Load: 0.1}
	if _, err := sc.SimConfig(1, Protocol{Warmup: 1, Packets: 1}); err == nil {
		t.Error("wormhole with 4 VCs should be rejected")
	}
}

// TestScenarioRejectsTooManyInputVCs: a scenario whose routers would
// need more than 64 input VCs (Ports×VCs) is an ordinary job error that
// names the limit — not a panic out of network.New for the harness to
// recover and retry with back-off.
func TestScenarioRejectsTooManyInputVCs(t *testing.T) {
	sc := Scenario{Router: "spec-vc", K: 4, VCs: 13, Load: 0.1}
	if _, err := RunScenario(sc, tinyOptions()); err == nil || !strings.Contains(err.Error(), "5 ports × 13 VCs") {
		t.Errorf("RunScenario: got %v, want an error naming 5 ports × 13 VCs", err)
	}
	rs, err := Run(Matrix{Routers: []string{"spec-vc"}, Ks: []int{4}, VCs: []int{2, 16}, Loads: []float64{0.1}}, tinyOptions())
	if err != nil || len(rs) != 2 {
		t.Fatalf("Run: %v, %d results", err, len(rs))
	}
	if rs[0].Error != "" {
		t.Errorf("2-VC job failed: %s", rs[0].Error)
	}
	if !strings.Contains(rs[1].Error, "at most 64") || rs[1].Failure != nil {
		t.Errorf("16-VC job: error %q, failure %+v; want a plain error naming the limit", rs[1].Error, rs[1].Failure)
	}
}

func TestMatrixValidate(t *testing.T) {
	good := Matrix{Routers: []string{"vc"}, Patterns: []string{"bit-reversal"}, Ks: []int{4}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid matrix rejected: %v", err)
	}
	cases := []Matrix{
		{Routers: []string{"nonsense"}},
		{Topologies: []string{"klein-bottle"}},
		{Topologies: []string{"hypercube"}, Ks: []int{6}}, // 6 nodes: not a power of two
		{Patterns: []string{"nonsense"}},
		{Patterns: []string{"bit-reversal"}, Ks: []int{6}},             // 36 nodes: not a power of two
		{Topologies: []string{"torus"}, Routers: []string{"wormhole"}}, // torus needs VCs
		{Topologies: []string{"ring:8"}, Routers: []string{"wormhole"}},
		{Topologies: []string{"torus"}, VCs: []int{3}}, // dateline classes need even VCs
		{Loads: []float64{-0.5}},
		{Ks: []int{32}, VCs: []int{12}, BufsPerVC: []int{4096}}, // 11 GB of router state
	}
	for i, m := range cases {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: invalid matrix validated: %+v", i, m)
		}
	}
}

func TestRunRecordsPerJobErrors(t *testing.T) {
	// One good pattern and one that cannot exist on a 6×6 network; the
	// bad job must fail alone without sinking the run.
	m := Matrix{
		Ks:       []int{6},
		Patterns: []string{"uniform", "bit-reversal"},
		Loads:    []float64{0.1},
	}
	results, err := Run(m, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("%d results, want 2", len(results))
	}
	if results[0].Error != "" || results[0].Result == nil {
		t.Errorf("good job failed: %+v", results[0])
	}
	if results[1].Error == "" || results[1].Result != nil {
		t.Errorf("bad job succeeded: %+v", results[1])
	}
}

// TestRunRecordsUnboundedDelayAsJobError: a credit delay past the
// network's 1024-cycle cap used to kill the process with a runtime
// out-of-memory fatal that panic isolation cannot catch, losing every
// job of the sweep; it must fail its own job as an error row.
func TestRunRecordsUnboundedDelayAsJobError(t *testing.T) {
	m := Matrix{
		Ks:           []int{4},
		CreditDelays: []int{1, 200000000, 2},
		Loads:        []float64{0.1},
	}
	results, err := Run(m, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("%d results, want 3", len(results))
	}
	for i, r := range results {
		if bad := r.Scenario.CreditDelay > 1024; bad != (r.Error != "") || bad != (r.Result == nil) {
			t.Errorf("job %d (credit delay %d): error %q, result %v", i, r.Scenario.CreditDelay, r.Error, r.Result != nil)
		}
	}
	if !strings.Contains(results[1].Error, "at most 1024") {
		t.Errorf("error row does not name the limit: %q", results[1].Error)
	}
}

func TestRunEmptyMatrix(t *testing.T) {
	if _, err := Run(Matrix{Loads: []float64{}, Routers: []string{}}.Normalize(), tinyOptions()); err != nil {
		t.Errorf("normalized empty matrix should run defaults: %v", err)
	}
}

func TestPerJobSeedsDiffer(t *testing.T) {
	m := Matrix{Loads: []float64{0.1, 0.15, 0.2}}
	results, err := Run(m, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Seed == results[1].Seed || results[1].Seed == results[2].Seed {
		t.Errorf("derived seeds collide: %d %d %d", results[0].Seed, results[1].Seed, results[2].Seed)
	}
}

// TestExpandDedupesRepeatedAxisValues: listing the same axis value
// twice must not double the jobs.
func TestExpandDedupesRepeatedAxisValues(t *testing.T) {
	m := Matrix{Loads: []float64{0.1, 0.1, 0.1}}
	if scs := m.Expand(); len(scs) != 1 {
		t.Fatalf("expanded %d scenarios from a repeated load, want 1", len(scs))
	}
}

func TestProgressAndOrderedStreaming(t *testing.T) {
	m := Matrix{Loads: []float64{0.05, 0.1, 0.15, 0.2}}
	opts := tinyOptions()
	opts.Workers = 4
	var progressed int
	var streamed []int
	opts.Progress = func(done, total int, r JobResult) {
		progressed++
		if total != 4 {
			t.Errorf("total %d, want 4", total)
		}
		if r.Wall < 0 {
			t.Errorf("negative wall time")
		}
	}
	opts.OnResult = func(r JobResult) { streamed = append(streamed, r.Index) }
	if _, err := Run(m, opts); err != nil {
		t.Fatal(err)
	}
	if progressed != 4 {
		t.Errorf("progress called %d times, want 4", progressed)
	}
	for i, idx := range streamed {
		if idx != i {
			t.Fatalf("OnResult out of order: %v", streamed)
		}
	}
	if len(streamed) != 4 {
		t.Fatalf("streamed %d results, want 4", len(streamed))
	}
}

func TestCurveMatchesScenario(t *testing.T) {
	sc := Scenario{Router: "spec-vc", Topology: "mesh", K: 4, Pattern: "uniform",
		VCs: 2, BufPerVC: 4, PacketSize: 5, CreditDelay: 1}
	pts, err := Curve(sc, []float64{0.1, 0.2}, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Load != 0.1 || pts[1].Load != 0.2 {
		t.Fatalf("curve points wrong: %+v", pts)
	}
	if pts[0].Result.Latency.Packets == 0 {
		t.Error("curve point carries no measurements")
	}
}

func TestTorusScenario(t *testing.T) {
	m := Matrix{
		Topologies: []string{"torus"},
		Routers:    []string{"spec-vc"},
		Ks:         []int{4},
		Loads:      []float64{0.1},
	}
	results, err := Run(m, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Error != "" {
		t.Fatalf("torus job failed: %s", results[0].Error)
	}
	if results[0].Result.Latency.Packets == 0 {
		t.Error("torus job measured nothing")
	}
}

// TestMultiTopologyMatrix: one matrix crossing all four topology
// families must run every job and report the delay model evaluated at
// each topology's actual port count.
func TestMultiTopologyMatrix(t *testing.T) {
	m := Matrix{
		Topologies: []string{"mesh", "torus", "ring:16", "hypercube:16", "torus:k=4,n=3"},
		Routers:    []string{"spec-vc"},
		Ks:         []int{4},
		Loads:      []float64{0.1},
	}
	results, err := Run(m, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("%d jobs, want 5", len(results))
	}
	// Canonicalization factors sizes out of the spec strings.
	wantPorts := map[string]int{
		"mesh": 5, "torus": 5, "ring": 3, "hypercube": 5, "torus:n=3": 7,
	}
	for _, r := range results {
		if r.Error != "" {
			t.Fatalf("%s failed: %s", r.Scenario.Label(), r.Error)
		}
		if r.Result.Latency.Packets == 0 {
			t.Errorf("%s measured nothing", r.Scenario.Label())
		}
		if r.Model == nil {
			t.Fatalf("%s carries no delay model", r.Scenario.Label())
		}
		if want := wantPorts[r.Scenario.Topology]; r.Model.Ports != want {
			t.Errorf("%s: model ports %d, want %d", r.Scenario.Label(), r.Model.Ports, want)
		}
		if r.Model.Stages < 1 {
			t.Errorf("%s: model stages %d", r.Scenario.Label(), r.Model.Stages)
		}
	}
}

// TestPinnedTopologySizeCanonicalizesK: a spec that states its own size
// must override the K axis (and collapse duplicates across K values).
func TestPinnedTopologySizeCanonicalizesK(t *testing.T) {
	m := Matrix{
		Topologies: []string{"hypercube:64"},
		Ks:         []int{4, 8},
		Loads:      []float64{0.1},
	}
	scs := m.Expand()
	if len(scs) != 1 {
		t.Fatalf("pinned-size spec expanded to %d jobs across the K axis, want 1", len(scs))
	}
	if scs[0].K != 64 || scs[0].Topology != "hypercube" {
		t.Errorf("pinned size not factored into K: %+v", scs[0])
	}
	if got := scs[0].Label(); strings.Contains(got, "hypercube:6464") {
		t.Errorf("label duplicates the pinned size: %q", got)
	}
}

// TestEquivalentSpecsDeduplicate: every spelling of the same network —
// bare spec + K axis, pinned node count, pinned dimension — must
// canonicalize to one scenario and run once.
func TestEquivalentSpecsDeduplicate(t *testing.T) {
	m := Matrix{
		Topologies: []string{"hypercube", "hypercube:16", "hypercube:n=4"},
		Ks:         []int{16},
		Loads:      []float64{0.1},
	}
	scs := m.Expand()
	if len(scs) != 1 {
		t.Fatalf("equivalent spec spellings expanded to %d jobs, want 1: %+v", len(scs), scs)
	}
	if scs[0].Topology != "hypercube" || scs[0].K != 16 {
		t.Errorf("canonical scenario wrong: %+v", scs[0])
	}
}

// TestSimulatedDepthVersusDelayModel writes down where the simulated
// pipeline (router.Kind.Stages, derived from the kind's stage plan)
// departs from the depth EQ 1 prescribes at the same (p, v): the
// simulator runs one plan per kind whatever the parameters, the model
// repacks the stages. The list is exact — closing a gap (a plan chosen
// from the model) or opening one must edit it — and empty at the paper's
// point, p=5 v=2.
func TestSimulatedDepthVersusDelayModel(t *testing.T) {
	type point struct {
		kind router.Kind
		p, v int
	}
	type depths struct{ model, simulated int }
	want := map[point]depths{
		// One VC per port needs no VC allocation stage; the VC router
		// simulates one regardless.
		{router.VirtualChannel, 3, 1}: {3, 4},
		{router.VirtualChannel, 5, 1}: {3, 4},
		{router.VirtualChannel, 7, 1}: {3, 4},
		{router.VirtualChannel, 9, 1}: {3, 4},
		// Eight VCs on a high-radix router push allocation past one cycle.
		{router.VirtualChannel, 7, 8}:  {5, 4},
		{router.VirtualChannel, 9, 8}:  {5, 4},
		{router.VirtualChannel, 13, 8}: {5, 4},
		{router.SpeculativeVC, 7, 8}:   {4, 3},
		{router.SpeculativeVC, 9, 8}:   {4, 3},
		{router.SpeculativeVC, 13, 8}:  {4, 3},
	}
	got := map[point]depths{}
	for _, kind := range router.Kinds() {
		for _, p := range []int{3, 5, 7, 9, 13} {
			for _, v := range []int{1, 2, 4, 8} {
				if v > 1 && !kind.UsesVCs() {
					continue
				}
				model, ok := modelStages(kind, p, v)
				if !ok {
					continue // single-cycle kinds: the model does not describe them
				}
				if model != kind.Stages() {
					got[point{kind, p, v}] = depths{model, kind.Stages()}
				}
				if p == 5 && v == 2 && model != kind.Stages() {
					t.Errorf("%v at the paper's point: model %d stages, simulated %d", kind, model, kind.Stages())
				}
			}
		}
	}
	for pt, d := range got {
		if want[pt] != d {
			t.Errorf("%v p=%d v=%d: model %d, simulated %d; listed %+v", pt.kind, pt.p, pt.v, d.model, d.simulated, want[pt])
		}
	}
	for pt := range want {
		if _, ok := got[pt]; !ok {
			t.Errorf("%v p=%d v=%d is listed as a gap but model and simulation agree", pt.kind, pt.p, pt.v)
		}
	}
}

// TestRouterAliasesDeduplicate: every spelling of one router kind is one
// job with one label and one checkpoint key, and the canonical spelling
// keeps its bytes.
func TestRouterAliasesDeduplicate(t *testing.T) {
	m := Matrix{
		Routers: []string{"specvc", "spec-vc", "wh", "wormhole"},
		Ks:      []int{4},
		Loads:   []float64{0.1},
	}
	scs := m.Expand()
	if len(scs) != 2 || scs[0].Router != "spec-vc" || scs[1].Router != "wormhole" {
		t.Fatalf("router aliases expanded to %d jobs, want spec-vc and wormhole: %+v", len(scs), scs)
	}
	if got := scs[0].Label(); !strings.HasPrefix(got, "spec-vc/") {
		t.Errorf("label %q does not use the canonical router name", got)
	}
	pr := protocolJSON(Protocol{Warmup: 300, Packets: 150})
	for alias, canon := range map[string]string{"specvc": "spec-vc", "wh": "wormhole", "virtual-channel": "vc", "wh-1cycle": "wormhole-1cycle"} {
		a, c := Scenario{Router: alias, Load: 0.1}, Scenario{Router: canon, Load: 0.1}
		if a.canonical() != c.canonical() || c.canonical().Router != canon {
			t.Errorf("%s does not canonicalize to %s: %+v", alias, canon, a.canonical())
		}
		if jobKey(a, 7, pr) != jobKey(c, 7, pr) {
			t.Errorf("%s and %s have different checkpoint keys", alias, canon)
		}
	}
}

// TestDelayModelPerKind: the delay model describes the three paper
// routers but not the single-cycle baselines, and its depth matches the
// paper's pipelines at the mesh point (WH 3 / VC 4 / specVC 3 with the
// deterministic R→p allocator).
func TestDelayModelPerKind(t *testing.T) {
	wantStages := map[string]int{"wormhole": 3, "vc": 4, "spec-vc": 3}
	for kind, want := range wantStages {
		sc := Scenario{Router: kind, Load: 0.1}
		m := sc.DelayModel()
		if m == nil {
			t.Fatalf("%s: no delay model", kind)
		}
		if m.Ports != 5 || m.Stages != want {
			t.Errorf("%s: model p=%d stages=%d, want p=5 stages=%d", kind, m.Ports, m.Stages, want)
		}
	}
	if m := (Scenario{Router: "wormhole-1cycle", Load: 0.1}).DelayModel(); m != nil {
		t.Errorf("single-cycle kind carries a delay model: %+v", m)
	}
}

func TestWriteJSONEmpty(t *testing.T) {
	var b strings.Builder
	if err := WriteJSON(&b, nil); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(b.String()) != "[]" {
		t.Errorf("empty result set should serialize as []: %q", b.String())
	}
}

func TestWriteCSVShape(t *testing.T) {
	m := Matrix{Loads: []float64{0.1, 0.2}}
	results, err := Run(m, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteCSV(&b, results); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d CSV lines, want header + 2 rows:\n%s", len(lines), b.String())
	}
	if lines[0] != CSVHeader {
		t.Errorf("header mismatch: %q", lines[0])
	}
	wantCols := len(strings.Split(CSVHeader, ","))
	for _, l := range lines[1:] {
		if got := len(strings.Split(l, ",")); got != wantCols {
			t.Errorf("row has %d columns, want %d: %q", got, wantCols, l)
		}
	}
}

func TestCSVEscape(t *testing.T) {
	cases := map[string]string{
		"plain":      "plain",
		"a,b":        `"a,b"`,
		`say "hi"`:   `"say ""hi"""`,
		"line\nfeed": "\"line\nfeed\"",
	}
	for in, want := range cases {
		if got := csvEscape(in); got != want {
			t.Errorf("csvEscape(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestSimConfigDoesNotSize: lowering a job's scenario normalizes its
// network configuration but does not run the network's counting pass —
// network.New does, once per network it builds, and Validate once per
// shape. With the count (a []shardSlabs and the layout, ≈100 µs at
// k=16) SimConfig made 14 allocations; without it, 10. The race
// detector adds allocations of its own, so the bound is checked only
// without it.
func TestSimConfigDoesNotSize(t *testing.T) {
	sc := Scenario{Router: "spec-vc", K: 16, Load: 0.3}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := sc.SimConfig(1, QuickProtocol()); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("SimConfig: %.0f allocations", allocs)
	if allocs > 10 && !raceEnabled {
		t.Errorf("SimConfig allocates %.0f times, want <= 10", allocs)
	}
}
