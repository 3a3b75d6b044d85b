package harness

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"flag"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"routersim/internal/sim"
)

// TestAxisTableComplete: the axis table covers Scenario exactly, row i
// is field i of Scenario.fields and slice i of Matrix.slices, each key is
// its field's json tag (omitempty included), and every Matrix slice
// belongs to exactly one row. A retired row has a retired field and no
// slice and flag.
func TestAxisTableComplete(t *testing.T) {
	var sc Scenario
	var m Matrix
	fieldPtrs, slicePtrs := sc.fields(), m.slices()
	st, mt := reflect.TypeOf(sc), reflect.TypeOf(m)
	live := 0
	for _, a := range axes {
		if a.parse != nil {
			live++
		}
	}
	if st.NumField() != len(axes) || mt.NumField() != live {
		t.Fatalf("Scenario has %d fields and Matrix %d, the table %d rows, %d live", st.NumField(), mt.NumField(), len(axes), live)
	}
	seenField, seenSlice := map[int]bool{}, map[int]bool{}
	for i, a := range axes {
		fi := fieldAt(t, reflect.ValueOf(&sc).Elem(), fieldPtrs[i])
		if seenField[fi] {
			t.Errorf("%s: Scenario field %d is in two rows", a.key, fi)
		}
		seenField[fi] = true
		f := st.Field(fi)
		name, opts, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name != a.key || (opts == "omitempty") != a.omitEmpty {
			t.Errorf("row %d is %q (omitempty %v), Scenario.%s is tagged %q", i, a.key, a.omitEmpty, f.Name, f.Tag.Get("json"))
		}
		if i != fi {
			t.Errorf("%s: row %d is Scenario field %d; rows follow the serialized field order", a.key, i, fi)
		}
		if a.parse == nil {
			if f.Type != reflect.TypeOf(retired{}) || slicePtrs[i] != nil || a.list != "" || a.one != "" {
				t.Errorf("%s: a retired row has a retired field (%v) and no slice or flag", a.key, f.Type)
			}
			continue
		}
		si := fieldAt(t, reflect.ValueOf(&m).Elem(), slicePtrs[i])
		if seenSlice[si] {
			t.Errorf("%s: Matrix field %d is in two rows", a.key, si)
		}
		seenSlice[si] = true
		if s := mt.Field(si); s.Type != reflect.SliceOf(f.Type) {
			t.Errorf("%s: Matrix.%s is %v, want []%v", a.key, s.Name, s.Type, f.Type)
		}
	}
}

// TestRetiredStepWorkers: the retired step_workers axis keeps its key,
// always 0, in every serialized scenario (the codec's and
// encoding/json's, which checkpoint keys and saturation JSON use) and
// its CSV column, so output bytes and stored keys stay those of runs
// made while it was an axis. A payload that sets it to anything else
// is refused by both decoders, so a stored result of a run with the
// stepper on re-runs rather than reading back as a run without it.
func TestRetiredStepWorkers(t *testing.T) {
	sc := Scenario{Router: "vc", Topology: "mesh", K: 4, Pattern: "uniform", VCs: 2, BufPerVC: 4, PacketSize: 5, CreditDelay: 1, Load: 0.2}
	const want = `"credit_delay":1,"step_workers":0,"shards":0,`
	byJSON, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{"appendScenario": appendScenario(nil, &sc), "json.Marshal": byJSON} {
		if !strings.Contains(string(b), want) {
			t.Errorf("%s: %s lacks %s", name, b, want)
		}
	}
	var csvOut strings.Builder
	if err := WriteCSV(&csvOut, []JobResult{{Scenario: sc}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csvOut.String(), "\n0,vc,mesh,4,uniform,2,4,5,1,0,0,,,,,,0.2,") {
		t.Errorf("CSV row lacks the step_workers column:\n%s", csvOut.String())
	}
	good, err := appendJobResult(nil, &JobResult{Scenario: sc, Seed: 3, Result: &sim.Result{Cycles: 10}})
	if err != nil {
		t.Fatal(err)
	}
	var r JobResult
	if !decodeJobResult(good, &r) || r.Scenario != sc {
		t.Fatalf("decoder rejects or misreads %s", good)
	}
	for _, v := range []string{"2", "1", "-0", "0.0", "null", `"0"`} {
		bad := bytes.Replace(good, []byte(`"step_workers":0`), []byte(`"step_workers":`+v), 1)
		if decodeJobResult(bad, &r) {
			t.Errorf("decodeJobResult accepted %s", bad)
		}
		if err := json.Unmarshal(bad, &r); err == nil {
			t.Errorf("json.Unmarshal accepted %s", bad)
		}
	}
	if decodeJobResult(bytes.Replace(good, []byte(`"step_workers":0,`), nil, 1), &r) {
		t.Error("decodeJobResult accepted a scenario without step_workers")
	}
}

// fieldAt returns the index of the field of v that ptr addresses.
func fieldAt(t *testing.T, v reflect.Value, ptr any) int {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Addr().Interface() == ptr {
			return i
		}
	}
	t.Fatalf("%T addresses no field of %v", ptr, v.Type())
	return -1
}

// TestCSVHeaders pins both CSV headers: the axis columns come from the
// table, in its order; the saturation CSV has every axis but the load.
func TestCSVHeaders(t *testing.T) {
	const csvHeader = "index,router,topology,k,pattern,vcs,buf_per_vc,packet_size,credit_delay,step_workers,shards,source,sizes,overrides,routing,faults,load,seed," +
		"ports,model_stages,offered,accepted,accepted_ci,mean_latency,mean_ci,p50,p95,max_latency,packets,censored,unroutable,dropped_flits,cycles,saturated,error"
	const satHeader = "index,router,topology,k,pattern,vcs,buf_per_vc,packet_size,credit_delay,step_workers,shards,source,sizes,overrides,routing,faults,seed," +
		"saturation_load,upper_bound,throughput,probes,cycles,error"
	if CSVHeader != csvHeader {
		t.Errorf("CSVHeader = %q\nwant %q", CSVHeader, csvHeader)
	}
	if SaturationCSVHeader != satHeader {
		t.Errorf("SaturationCSVHeader = %q\nwant %q", SaturationCSVHeader, satHeader)
	}
}

func TestListParsers(t *testing.T) {
	strs := []struct {
		name  string
		split func(string) ([]string, error)
		in    string
		want  []string
	}{
		{"words", splitList, " vc, ,spec-vc ", []string{"vc", "spec-vc"}},
		{"words empty", splitList, "", nil},
		{"pipes keep empty entries", splitPipeList, "|0:vcs=4,buf=8;3-5:delay=2| *:buf=2 ", []string{"", "0:vcs=4,buf=8;3-5:delay=2", "*:buf=2"}},
		{"pipes all empty", splitPipeList, "  ", nil},
		{"topology parameters continue", splitSpecList, "mesh,torus:k=4,n=3,hypercube:64,ring:16", []string{"mesh", "torus:k=4,n=3", "hypercube:64", "ring:16"}},
		{"workload KEY=VALUE continues", splitWorkloadList, "const,mmpp:on=20,off=60,batch:size=4", []string{"const", "mmpp:on=20,off=60", "batch:size=4"}},
		{"sizes continue", splitWorkloadList, "uniform:min=2,max=6,fixed:3", []string{"uniform:min=2,max=6", "fixed:3"}},
	}
	for _, c := range strs {
		if got, err := c.split(c.in); err != nil || !slices.Equal(got, c.want) {
			t.Errorf("%s: split(%q) = %q, %v; want %q", c.name, c.in, got, err, c.want)
		}
	}
	if got, err := parseInts("4, 8"); err != nil || !slices.Equal(got, []int{4, 8}) {
		t.Errorf("parseInts = %v, %v", got, err)
	}
	if _, err := parseInts("4,x"); err == nil {
		t.Error("parseInts accepted x")
	}
	loads := []struct {
		in   string
		want []float64
	}{
		{"0.1,0.2", []float64{0.1, 0.2}},
		{"0.1:0.5:0.1", []float64{0.1, 0.2, 0.3, 0.4, 0.5}},
		{"0.05:0.2:0.05", []float64{0.05, 0.1, 0.15, 0.2}},
		{"0.3:0.3:1", []float64{0.3}},
	}
	for _, c := range loads {
		if got, err := parseLoads(c.in); err != nil || !slices.Equal(got, c.want) {
			t.Errorf("parseLoads(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{"NaN", "0.1,Inf", "0:NaN:0.1", "0:1:Inf", "-Inf:1:0.1", "0:1:0", "0.5:0.1:0.1", "x"} {
		if got, err := parseLoads(bad); err == nil {
			t.Errorf("parseLoads(%q) = %v, want an error", bad, got)
		}
	}
}

// TestAxisFlags: sweep's list flags set the Matrix and start at the
// Normalize defaults; netsim's one-value flags take a spec whole.
func TestAxisFlags(t *testing.T) {
	var m Matrix
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	AddMatrixFlags(fs, &m)
	if !reflect.DeepEqual(m.Normalize(), Matrix{}.Normalize()) {
		t.Errorf("list flags start at %+v, want the Normalize defaults", m)
	}
	if err := fs.Parse([]string{"-topos", "torus:k=4,n=3,ring:16", "-loads", "0.1:0.3:0.1", "-overrides", "|*:buf=2"}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(m.Topologies, []string{"torus:k=4,n=3", "ring:16"}) || !slices.Equal(m.Loads, []float64{0.1, 0.2, 0.3}) ||
		!slices.Equal(m.Overrides, []string{"", "*:buf=2"}) {
		t.Errorf("parsed %+v", m)
	}
	var sc Scenario
	fs = flag.NewFlagSet("netsim", flag.ContinueOnError)
	AddScenarioFlags(fs, &sc)
	if err := fs.Parse([]string{"-source", "mmpp:on=20,off=60", "-k", "4", "-load", "0.3"}); err != nil {
		t.Fatal(err)
	}
	want := Scenario{Router: "spec-vc", Topology: "mesh", K: 4, Pattern: "uniform", PacketSize: 5, CreditDelay: 1, Source: "mmpp:on=20,off=60", Load: 0.3}
	if sc != want {
		t.Errorf("parsed %+v\nwant %+v", sc, want)
	}
	if !IsAxisFlag(fs.Lookup("k")) || !IsLoadFlag(fs.Lookup("load")) || IsLoadFlag(fs.Lookup("k")) {
		t.Error("IsAxisFlag/IsLoadFlag misclassify")
	}
}

// TestLabelsDistinct: with two values on every axis, every expanded
// scenario has its own label, so a progress line or a failure names
// exactly one job.
func TestLabelsDistinct(t *testing.T) {
	m := Matrix{
		Routers: []string{"vc", "spec-vc"}, Topologies: []string{"mesh", "torus"}, Ks: []int{4, 8},
		Patterns: []string{"uniform", "transpose"}, VCs: []int{2, 4}, BufsPerVC: []int{2, 4},
		PacketSizes: []int{4, 5}, CreditDelays: []int{1, 2}, Shards: []int{0, 2},
		Sources: []string{"", "bernoulli"}, Sizes: []string{"", "fixed:3"}, Overrides: []string{"", "*:buf=2"},
		Routings: []string{"", "adaptive:minimal"}, Faults: []string{"", "link:0-1@cycle=9"}, Loads: []float64{0.1, 0.3},
	}
	scs := m.Expand()
	if want := 1 << reflect.TypeOf(m).NumField(); len(scs) != want {
		t.Fatalf("%d scenarios, want %d", len(scs), want)
	}
	seen := make(map[string]Scenario, len(scs))
	for _, sc := range scs {
		if prev, dup := seen[sc.Label()]; dup {
			t.Fatalf("label %q names both\n%+v\n%+v", sc.Label(), prev, sc)
		}
		seen[sc.Label()] = sc
	}
	if got := (Scenario{Router: "vc", Topology: "mesh", K: 8, Pattern: "uniform", VCs: 2, BufPerVC: 4, PacketSize: 5, CreditDelay: 1, Load: 0.2}).Label(); got != "vc/mesh8/uniform/2vcs×4buf/load=0.20" {
		t.Errorf("default label %q changed", got)
	}
	// A spec that does not parse is labelled as typed, not with ",k=8"
	// appended to a spec that pins k itself.
	sc := Scenario{Router: "spec-vc", Topology: "mesh:k=4,n=0", K: 8, Pattern: "uniform", VCs: 2, BufPerVC: 4, PacketSize: 5, CreditDelay: 1, Load: 0.4}
	if got := sc.Label(); got != "spec-vc/mesh:k=4,n=0/uniform/2vcs×4buf/load=0.40" {
		t.Errorf("unparsable spec labelled %q", got)
	}
}

// TestSaturationCSVDistinguishesAxes: rows that differ only in source
// or overrides used to print identical scenario columns.
func TestSaturationCSVDistinguishesAxes(t *testing.T) {
	m := Matrix{Routers: []string{"spec-vc"}, Ks: []int{4}, Sources: []string{"", "bernoulli"}, Overrides: []string{"", "*:buf=2"}}
	results, err := FindSaturations(m, Options{Seed: 7, Protocol: Protocol{Warmup: 200, Packets: 100}}, SearchOptions{Step: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteSaturationCSV(&b, results); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows, want header + 4:\n%s", len(rows), b.String())
	}
	seen := map[string]bool{}
	for _, row := range rows[1:] {
		scenario := strings.Join(row[1:len(axes)], ",") // index, then every axis but load
		if seen[scenario] {
			t.Errorf("two rows with scenario columns %q:\n%s", scenario, b.String())
		}
		seen[scenario] = true
	}
}

// FuzzScenarioCanonical runs every axis's grammar through canonical and
// SimConfig: canonical never panics and is a fixed point, and SimConfig
// reports a bad scenario as an error, never a panic.
func FuzzScenarioCanonical(f *testing.F) {
	f.Add("spec-vc", "mesh", "uniform", "", "", "", "", "", 4, 2, 4, 5, 1, 0, 0.2)
	f.Add("wh", "torus:k=4,n=3", "hotspot:3:0.2", "mmpp:off=60,on=20", "bimodal:small=1,large=9,p=0.1", "0:vcs=4,buf=8;3-5:delay=2", "adaptive", "link:6-5@cycle=500", 0, 0, 0, 0, 0, 2, 0.5)
	f.Add("vc", "hypercube:16", "bit-complement", "batch:size=4", "uniform:min=2,max=6", "*:buf=2", "dor", "rand:links=2,seed=9@cycle=50", 8, 4, 2, 3, 2, 3, 0.1)
	f.Add("vc-1cycle", "ring:8", "transpose", "const", "fixed:3", "1-2:delay=3", "", "router:3@cycle=0", 16, 3, 1, 1, 1024, 0, math.Inf(1))
	f.Fuzz(func(t *testing.T, routerName, topo, pattern, source, sizes, overrides, routing, faults string,
		k, vcs, buf, pkt, credit, shards int, load float64) {
		sc := Scenario{Router: routerName, Topology: topo, K: k, Pattern: pattern, VCs: vcs, BufPerVC: buf,
			PacketSize: pkt, CreditDelay: credit, Shards: shards,
			Source: source, Sizes: sizes, Overrides: overrides, Routing: routing, Faults: faults, Load: load}
		once := sc.canonical()
		if twice := once.canonical(); twice != once && !(math.IsNaN(once.Load) && math.IsNaN(twice.Load)) {
			t.Fatalf("canonical is not a fixed point:\n once %+v\ntwice %+v", once, twice)
		}
		if once.K > 16 || strings.Contains(once.Topology, "cap=") || strings.HasPrefix(strings.TrimSpace(source), "trace") {
			return // keep networks small; a trace source reads a file
		}
		sc.SimConfig(1, Protocol{Warmup: 1, Packets: 1})
	})
}
