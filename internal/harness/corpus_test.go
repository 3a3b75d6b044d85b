package harness

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"routersim/internal/flit"
	"routersim/internal/network"
	"routersim/internal/router"
	"routersim/internal/sim"
)

var updateCorpus = flag.Bool("update-corpus", false,
	"rewrite testdata/corpus.txt from this build (only ever at the commit a refactor starts from)")

// corpusPlan is the corpus's fault plan: a link, a router and a random
// link die while the trace window runs, on every topology of the corpus.
const corpusPlan = "link:0-1@cycle=200;router:5@cycle=400;rand:links=1@cycle=600"

// corpusTraceFile replays a bursty sized workload captured on a 4×4
// mesh with
//
//	go run ./cmd/netsim -router spec-vc -k 4 -load 0.15 \
//	  -source mmpp:on=30,off=50 -sizes bimodal:small=1,large=9,p=0.1 \
//	  -warmup 150 -packets 150 -seed 5 \
//	  -record internal/sim/testdata/replay_fixture.jsonl
const corpusTraceFile = "trace:file=../sim/testdata/replay_fixture.jsonl"

// corpus is the conformance corpus: every row runs on every engine
// variant and is pinned by digest in testdata/corpus.txt. The first 26
// rows are the router-kind golden that predates the corpus (every kind
// on both sides of its knee, wraparound VC classes, adaptive re-picks,
// a long credit loop, heterogeneous neighbours), with their digests
// unchanged. The rows after them make the list cover every valid pair
// of corpusAxes values (TestCorpusCoversPairs). The last row is the
// vanishing load, 2e-5 packets per node per cycle on the 8×8 mesh:
// every injection is placed by ConstantRate's binade jump, which the
// full-scan variant ticks one cycle at a time. A fixed list keeps the
// digests stable when the test code changes; append rows, never edit
// one.
var corpus = []Scenario{
	{Router: "wormhole", K: 4, Load: 0.1},
	{Router: "wormhole", K: 4, Load: 0.6},
	{Router: "wormhole", K: 4, CreditDelay: 4, Load: 0.3},
	{Router: "wormhole", K: 4, Overrides: "5:buf=2;9-10:delay=2", Load: 0.3},
	{Router: "vc", K: 4, Load: 0.1},
	{Router: "vc", K: 4, Load: 0.6},
	{Router: "vc", K: 4, Topology: "torus", Load: 0.3},
	{Router: "vc", K: 4, Routing: "adaptive:minimal", Load: 0.3},
	{Router: "vc", K: 4, CreditDelay: 4, Load: 0.3},
	{Router: "vc", K: 4, Overrides: "0:vcs=4,buf=2;5:buf=2;9-10:delay=2", Load: 0.3},
	{Router: "spec-vc", K: 4, Load: 0.1},
	{Router: "spec-vc", K: 4, Load: 0.6},
	{Router: "spec-vc", K: 4, Topology: "torus", Load: 0.3},
	{Router: "spec-vc", K: 4, Routing: "adaptive:minimal", Load: 0.3},
	{Router: "spec-vc", K: 4, CreditDelay: 4, Load: 0.3},
	{Router: "spec-vc", K: 4, Overrides: "0:vcs=4,buf=2;5:buf=2;9-10:delay=2", Load: 0.3},
	{Router: "wormhole-1cycle", K: 4, Load: 0.1},
	{Router: "wormhole-1cycle", K: 4, Load: 0.6},
	{Router: "wormhole-1cycle", K: 4, CreditDelay: 4, Load: 0.3},
	{Router: "wormhole-1cycle", K: 4, Overrides: "5:buf=2;9-10:delay=2", Load: 0.3},
	{Router: "vc-1cycle", K: 4, Load: 0.1},
	{Router: "vc-1cycle", K: 4, Load: 0.6},
	{Router: "vc-1cycle", K: 4, Topology: "torus", Load: 0.3},
	{Router: "vc-1cycle", K: 4, Routing: "adaptive:minimal", Load: 0.3},
	{Router: "vc-1cycle", K: 4, CreditDelay: 4, Load: 0.3},
	{Router: "vc-1cycle", K: 4, Overrides: "0:vcs=4,buf=2;5:buf=2;9-10:delay=2", Load: 0.3},
	{Router: "vc-1cycle", Topology: "hypercube:16", K: 4, VCs: 4, BufPerVC: 2, PacketSize: 1, CreditDelay: 4, Source: corpusTraceFile, Overrides: "3:delay=3;9-10:delay=2", Routing: "adaptive:minimal", Faults: corpusPlan},
	{Router: "spec-vc", Topology: "hypercube:16", K: 4, VCs: 1, BufPerVC: 8, PacketSize: 1, Source: "mmpp:on=20,off=60", Sizes: "bimodal:small=1,large=9,p=0.2", Overrides: "0:vcs=4,buf=2;5:buf=2", Faults: corpusPlan, Load: 0.02},
	{Router: "vc", Topology: "torus:k=3,n=3", K: 4, VCs: 4, BufPerVC: 2, Source: "batch:size=4", Sizes: "uniform:min=1,max=9", Overrides: "3:delay=3;9-10:delay=2", Load: 0.02},
	{Router: "vc", Topology: "ring:12", K: 4, VCs: 2, BufPerVC: 4, PacketSize: 1, CreditDelay: 4, Source: "bernoulli", Sizes: "bimodal:small=1,large=9,p=0.2", Faults: corpusPlan, Load: 0.02},
	{Router: "spec-vc", Topology: "ring:12", K: 4, VCs: 4, BufPerVC: 2, Source: "bernoulli", Sizes: "bimodal:small=1,large=9,p=0.2", Overrides: "3:delay=3;9-10:delay=2", Routing: "adaptive:minimal", Load: 0.6},
	{Router: "vc-1cycle", K: 4, VCs: 4, BufPerVC: 2, PacketSize: 1, CreditDelay: 4, Source: "batch:size=4", Sizes: "uniform:min=1,max=9", Overrides: "0:vcs=4,buf=2;5:buf=2", Faults: corpusPlan, Load: 0.3},
	{Router: "vc", Topology: "hypercube:16", K: 4, VCs: 2, BufPerVC: 4, CreditDelay: 4, Source: "mmpp:on=20,off=60", Sizes: "uniform:min=1,max=9", Overrides: "0:vcs=4,buf=2;5:buf=2", Load: 0.6},
	{Router: "spec-vc", Topology: "torus", K: 4, VCs: 4, BufPerVC: 2, CreditDelay: 4, Source: "batch:size=4", Sizes: "uniform:min=1,max=9", Routing: "adaptive:minimal", Faults: corpusPlan, Load: 0.6},
	{Router: "vc-1cycle", Topology: "torus:k=3,n=3", K: 4, VCs: 2, BufPerVC: 4, PacketSize: 1, CreditDelay: 4, Sizes: "bimodal:small=1,large=9,p=0.2", Overrides: "3:delay=3;9-10:delay=2", Faults: corpusPlan, Load: 0.3},
	{Router: "wormhole", K: 4, VCs: 1, BufPerVC: 8, PacketSize: 1, Source: corpusTraceFile, Overrides: "3:delay=3;9-10:delay=2"},
	{Router: "wormhole-1cycle", Topology: "hypercube:16", K: 4, VCs: 1, BufPerVC: 8, PacketSize: 1, Source: "bernoulli", Sizes: "uniform:min=1,max=9", Faults: corpusPlan, Load: 0.3},
	{Router: "vc-1cycle", Topology: "ring:12", K: 4, VCs: 4, BufPerVC: 2, PacketSize: 1, Source: "mmpp:on=20,off=60", Overrides: "3:delay=3;9-10:delay=2", Routing: "adaptive:minimal", Load: 0.3},
	{Router: "wormhole-1cycle", K: 4, VCs: 1, BufPerVC: 8, CreditDelay: 4, Source: "batch:size=4", Sizes: "bimodal:small=1,large=9,p=0.2", Overrides: "3:delay=3;9-10:delay=2", Load: 0.02},
	{Router: "vc-1cycle", Topology: "torus", K: 4, VCs: 4, BufPerVC: 2, PacketSize: 1, Source: "bernoulli", Overrides: "3:delay=3;9-10:delay=2", Routing: "adaptive:minimal", Load: 0.02},
	{Router: "spec-vc", Topology: "torus:k=3,n=3", K: 4, VCs: 2, BufPerVC: 4, CreditDelay: 4, Source: "mmpp:on=20,off=60", Faults: corpusPlan, Load: 0.6},
	{Router: "vc", Topology: "ring:12", K: 4, VCs: 4, BufPerVC: 2, Sizes: "uniform:min=1,max=9", Overrides: "3:delay=3;9-10:delay=2", Load: 0.02},
	{Router: "spec-vc", K: 4, VCs: 2, BufPerVC: 4, Source: corpusTraceFile, Overrides: "0:vcs=4,buf=2;5:buf=2"},
	{Router: "wormhole", Topology: "hypercube:16", K: 4, VCs: 1, BufPerVC: 8, CreditDelay: 4, Source: "batch:size=4", Sizes: "uniform:min=1,max=9", Faults: corpusPlan, Load: 0.6},
	{Router: "vc", K: 4, VCs: 1, BufPerVC: 8, PacketSize: 1, CreditDelay: 4, Source: "bernoulli", Sizes: "bimodal:small=1,large=9,p=0.2", Overrides: "0:vcs=4,buf=2;5:buf=2", Faults: corpusPlan, Load: 0.3},
	{Router: "vc-1cycle", Topology: "hypercube:16", K: 4, VCs: 1, BufPerVC: 8, CreditDelay: 4, Sizes: "uniform:min=1,max=9", Overrides: "0:vcs=4,buf=2;5:buf=2", Load: 0.02},
	{Router: "vc", Topology: "torus", K: 4, VCs: 4, BufPerVC: 2, PacketSize: 1, CreditDelay: 4, Source: corpusTraceFile},
	{Router: "wormhole", K: 4, VCs: 1, BufPerVC: 8, PacketSize: 1, CreditDelay: 4, Source: "mmpp:on=20,off=60", Sizes: "bimodal:small=1,large=9,p=0.2", Faults: corpusPlan, Load: 0.02},
	{Router: "vc-1cycle", Topology: "ring:12", K: 4, VCs: 2, BufPerVC: 4, PacketSize: 1, CreditDelay: 4, Source: "batch:size=4", Overrides: "3:delay=3;9-10:delay=2", Faults: corpusPlan, Load: 0.3},
	{Router: "vc-1cycle", Topology: "torus", K: 4, VCs: 2, BufPerVC: 4, Source: "mmpp:on=20,off=60", Sizes: "bimodal:small=1,large=9,p=0.2", Overrides: "3:delay=3;9-10:delay=2", Load: 0.3},
	{Router: "vc", Topology: "torus:k=3,n=3", K: 4, VCs: 2, BufPerVC: 4, PacketSize: 1, CreditDelay: 4, Source: "bernoulli", Sizes: "uniform:min=1,max=9", Faults: corpusPlan, Load: 0.3},
	{Router: "wormhole-1cycle", Topology: "hypercube:16", K: 4, VCs: 1, BufPerVC: 8, PacketSize: 1, CreditDelay: 4, Source: "mmpp:on=20,off=60", Sizes: "uniform:min=1,max=9", Load: 0.02},
	{Router: "wormhole-1cycle", K: 4, VCs: 1, BufPerVC: 8, PacketSize: 1, CreditDelay: 4, Source: corpusTraceFile, Faults: corpusPlan},
	{Router: "wormhole", Topology: "hypercube:16", K: 4, VCs: 1, BufPerVC: 8, PacketSize: 1, CreditDelay: 4, Source: "bernoulli", Sizes: "bimodal:small=1,large=9,p=0.2", Overrides: "3:delay=3;9-10:delay=2", Load: 0.02},
	{Router: "spec-vc", K: 8, Load: 2e-4},
}

// corpusAxis is one axis the corpus covers pairwise: set writes one of
// its values into a scenario.
type corpusAxis struct {
	name   string
	values []string
	set    func(s *Scenario, v string)
}

// corpusAxes are the axes and values whose every valid pair some row
// of the corpus must hold. Every value parses; a pair is valid when
// corpusBase with both values set passes check, so the harness's own
// rules exclude what cannot run (wormhole on a wraparound topology,
// adaptive routing on one VC, a trace on a network of another size).
var corpusAxes = []corpusAxis{
	{"router", []string{"wormhole", "vc", "spec-vc", "wormhole-1cycle", "vc-1cycle"},
		func(s *Scenario, v string) { s.Router = v }},
	{"topology", []string{"mesh", "torus", "torus:k=3,n=3", "ring:12", "hypercube:16"},
		func(s *Scenario, v string) { s.Topology, s.K = v, 4 }},
	{"vcs×buf", []string{"1×8", "2×4", "4×2"},
		func(s *Scenario, v string) { fmt.Sscanf(v, "%d×%d", &s.VCs, &s.BufPerVC) }},
	{"packet size", []string{"1", "5"}, func(s *Scenario, v string) { fmt.Sscan(v, &s.PacketSize) }},
	{"credit delay", []string{"1", "4"}, func(s *Scenario, v string) { fmt.Sscan(v, &s.CreditDelay) }},
	{"routing", []string{"dor", "adaptive:minimal"}, func(s *Scenario, v string) { s.Routing = v }},
	{"faults", []string{"", corpusPlan}, func(s *Scenario, v string) { s.Faults = v }},
	{"source", []string{"const", "bernoulli", "mmpp:on=20,off=60", "batch:size=4", corpusTraceFile},
		func(s *Scenario, v string) { s.Source = v }},
	{"sizes", []string{"", "uniform:min=1,max=9", "bimodal:small=1,large=9,p=0.2"},
		func(s *Scenario, v string) { s.Sizes = v }},
	{"overrides", []string{"", "0:vcs=4,buf=2;5:buf=2", "3:delay=3;9-10:delay=2"},
		func(s *Scenario, v string) { s.Overrides = v }},
	{"load", []string{"0.02", "0.3", "0.6"},
		func(s *Scenario, v string) { fmt.Sscan(v, &s.Load) }},
}

// holds reports whether row runs value v of axis a: setting v changes
// nothing that runs. A value the row states in another spelling, or one
// canonicalization makes moot (the load of a trace replay), counts.
func holds(row Scenario, a corpusAxis, v string) bool {
	set := row
	a.set(&set, v)
	return set.canonical() == row.canonical()
}

// corpusPair is two axis values, each as (axis index, value index).
type corpusPair struct{ a, i, b, j int }

func (p corpusPair) String() string {
	return fmt.Sprintf("%s=%s × %s=%s", corpusAxes[p.a].name, corpusAxes[p.a].values[p.i],
		corpusAxes[p.b].name, corpusAxes[p.b].values[p.j])
}

// corpusBase is the scenario a pair of values is tried on: the harness
// defaults (Matrix.Normalize's) on a 16-node mesh.
var corpusBase = Scenario{Router: "spec-vc", K: 4}

// validPairs lists every pair of values, on two different axes, that
// the base scenario runs.
func validPairs() []corpusPair {
	var out []corpusPair
	for a := range corpusAxes {
		for b := a + 1; b < len(corpusAxes); b++ {
			for i, u := range corpusAxes[a].values {
				for j, v := range corpusAxes[b].values {
					sc := corpusBase
					corpusAxes[a].set(&sc, u)
					corpusAxes[b].set(&sc, v)
					if sc.check(false) == nil {
						out = append(out, corpusPair{a, i, b, j})
					}
				}
			}
		}
	}
	return out
}

// uncovered returns the valid pairs no row of rows holds.
func uncovered(rows []Scenario) []corpusPair {
	type value struct{ a, i int }
	held := make([]map[value]bool, len(rows))
	for r, row := range rows {
		held[r] = map[value]bool{}
		for a, axis := range corpusAxes {
			for i, v := range axis.values {
				held[r][value{a, i}] = holds(row, axis, v)
			}
		}
	}
	var out []corpusPair
	for _, p := range validPairs() {
		found := false
		for r := range rows {
			found = found || held[r][value{p.a, p.i}] && held[r][value{p.b, p.j}]
		}
		if !found {
			out = append(out, p)
		}
	}
	return out
}

// TestCorpusCoversPairs: every valid pair of corpusAxes values appears
// in at least one row of the corpus.
func TestCorpusCoversPairs(t *testing.T) {
	for _, p := range uncovered(corpus) {
		t.Errorf("no corpus row holds %v", p)
	}
}

// corpusProtocol is every row's measurement protocol, and corpusCycles
// the length of every trace.
var corpusProtocol = Protocol{Warmup: 500, Packets: 400}

const corpusCycles = 1500

// corpusVariants are the engines every row runs on. The full-scan
// scheduler (one shard, every router every cycle, no fast-forward) is
// the reference; the active set runs with the auditor off, and on 1 to
// 4 shards with it on at an off-stride interval, so audit deadlines
// land mid-burst and mid-window. Under the race detector only the
// variants with more than one shard run.
var corpusVariants = []struct {
	name     string
	fullScan bool
	shards   int
	audit    int
}{
	{"fullscan", true, 1, 0},
	{"active", false, 1, 0},
	{"active-audit7", false, 1, 7},
	{"shards2-audit7", false, 2, 7},
	{"shards3-audit7", false, 3, 7},
	{"shards4-audit7", false, 4, 7},
}

// corpusTrace steps a network of cfg every cycle for corpusCycles
// cycles and returns its event trace: one line per packet creation,
// flit ejection and packet completion, in order.
func corpusTrace(t *testing.T, cfg network.Config) []byte {
	t.Helper()
	net, err := network.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	var trace []byte
	net.OnPacketCreated = func(p *flit.Packet, now int64) {
		trace = fmt.Appendf(trace, "c %d %d %d %d\n", now, p.ID, p.Src, p.Dst)
	}
	net.OnFlitEjected = func(f flit.Flit, now int64) {
		trace = fmt.Appendf(trace, "e %d %d %d\n", now, f.Pkt.ID, f.Seq)
	}
	net.OnPacketDone = func(p *flit.Packet, now int64) {
		trace = fmt.Appendf(trace, "d %d %d %d\n", now, p.ID, p.Latency(now))
	}
	for now := int64(0); now < corpusCycles; now++ {
		net.Step(now)
	}
	return trace
}

// firstDiff names the first line where two traces differ.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range min(len(g), len(w)) {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("event %d: %q, reference %q", i, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d events, reference %d", len(g)-1, len(w)-1)
}

// corpusJob runs a row's seed-1 job, audited, and returns it with the
// SHA-256 of its JSON.
func corpusJob(t *testing.T, sc Scenario) (JobResult, [sha256.Size]byte) {
	t.Helper()
	jr, err := RunScenario(sc, Options{Workers: 1, Seed: 1, Audit: 50, Protocol: corpusProtocol})
	if err != nil {
		t.Fatal(err)
	}
	if jr.Error != "" {
		t.Fatal(jr.Error)
	}
	var js bytes.Buffer
	if err := WriteJSON(&js, []JobResult{jr}); err != nil {
		t.Fatal(err)
	}
	return jr, sha256.Sum256(js.Bytes())
}

// corpusRow runs one row: the job RunScenario runs, pinned by the
// SHA-256 of its JSON, then every engine variant on the same lowered
// configuration. Each variant's sim.Result must equal the job's and
// each variant's event trace the reference's. It returns the row's
// corpus.txt line.
func corpusRow(t *testing.T, sc Scenario) string {
	jr, digest := corpusJob(t, sc)
	cfg, err := sc.SimConfig(jr.Seed, corpusProtocol)
	if err != nil {
		t.Fatal(err)
	}
	var ref []byte
	var refName string
	for _, v := range corpusVariants {
		if raceEnabled && v.shards < 2 {
			// One goroutine, no race to find: the plain run checks it,
			// and the pinned trace digest stands in for the reference.
			continue
		}
		vc := cfg
		vc.Net.FullScan, vc.Net.Shards, vc.Net.Audit = v.fullScan, min(v.shards, vc.Net.Topo.Nodes()), v.audit
		res, err := sim.Run(vc)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if !reflect.DeepEqual(res, *jr.Result) {
			t.Errorf("%s: result\n%+v\ndiffers from the job's\n%+v", v.name, res, *jr.Result)
		}
		trace := corpusTrace(t, vc.Net)
		if ref == nil {
			ref, refName = trace, v.name
			if len(ref) == 0 {
				t.Errorf("%s: no event in %d cycles", v.name, corpusCycles)
			}
		} else if !bytes.Equal(trace, ref) {
			t.Errorf("%s: trace differs from %s at %s", v.name, refName, firstDiff(trace, ref))
		}
	}
	return fmt.Sprintf("%x %x %s", digest, sha256.Sum256(ref), jr.Scenario.Label())
}

// TestCorpus is the conformance gate for router timing and the engines:
// every corpus row's seed-1 job and reference trace must hash to the
// SHA-256s that testdata/corpus.txt records, and every engine variant
// must agree with them. Digests are regenerated with -update-corpus
// only at the commit a refactor starts from, never to make a change
// pass.
func TestCorpus(t *testing.T) {
	const path = "testdata/corpus.txt"
	want, err := os.ReadFile(path)
	pinned := strings.Split(string(want), "\n")
	if !*updateCorpus && (err != nil || len(pinned) != len(corpus)+1) {
		t.Fatalf("%s pins %d rows, the corpus has %d (%v)", path, len(pinned)-1, len(corpus), err)
	}
	lines := make([]string, len(corpus))
	t.Run("rows", func(t *testing.T) {
		for i, sc := range corpus {
			t.Run(sc.canonical().Label(), func(t *testing.T) {
				t.Parallel()
				lines[i] = corpusRow(t, sc)
				if !*updateCorpus && lines[i] != pinned[i] {
					t.Errorf("got %q,\n%s:%d pins %q", lines[i], path, i+1, pinned[i])
				}
			})
		}
	})
	if *updateCorpus && !t.Failed() {
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// kindRows is how many leading corpus rows are the router-kind golden.
const kindRows = 26

// TestKindsGolden pins every router kind bit for bit on its own, without
// the engine variants: each of the first kindRows corpus rows (every
// kind on both sides of its knee, plus the axes whose code paths differ
// per kind) must still serialize to the job digest testdata/corpus.txt
// records, the one recorded before the five step bodies were folded
// into one stepper. The single-cycle kinds have no other exact test
// outside the corpus (no benchmark digest runs them).
func TestKindsGolden(t *testing.T) {
	const path = "testdata/corpus.txt"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pinned := strings.Split(string(want), "\n")
	if len(pinned) < kindRows {
		t.Fatalf("%s pins %d rows, fewer than the %d kind rows", path, len(pinned)-1, kindRows)
	}
	kinds := map[string]bool{}
	for i, sc := range corpus[:kindRows] {
		kinds[sc.Router] = true
		jr, digest := corpusJob(t, sc)
		if got := fmt.Sprintf("%x", digest); !strings.HasPrefix(pinned[i], got+" ") {
			t.Errorf("%s: job digest %s, %s:%d pins %q", jr.Scenario.Label(), got, path, i+1, pinned[i])
		}
	}
	for _, kind := range router.Kinds() {
		if !kinds[kind.String()] {
			t.Errorf("no kind row runs %s", kind)
		}
	}
}
