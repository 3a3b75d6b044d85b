package harness

import (
	"flag"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"routersim/internal/topology"
)

// axes declares every scenario axis once, in Scenario's serialized
// field order. A row names the axis everywhere it surfaces — its JSON
// key, which is also its CSV column; the sweep list flag; the netsim
// one-value flag — and holds its help text, its Matrix.Normalize
// default (in list-flag syntax, also sweep's flag default) and its list
// parser; its position in Scenario.fields and Matrix.slices gives its
// typed accessors. Normalize, Expand, Scenario.Matrix, the JSON codec,
// both CSV writers and both CLIs' axis flags are derived from this
// table, so adding an axis is one row, its Scenario field and Matrix
// slice, and their addresses in fields and slices. What an axis means —
// canonical, SimConfig, Label — stays hand-written. A retired row (no
// parser) keeps its key in the JSON, the CSV and every checkpoint key,
// always 0, and nothing else.
var axes = [...]axis{
	{key: "router", list: "routers", one: "router", def: "spec-vc", help: "router kind: " + RouterNames(),
		parse: wordList},
	{key: "topology", list: "topos", one: "topo", def: "mesh",
		help:  "topology spec: mesh, torus, ring, hypercube, parameterized as mesh:k=8, torus:k=4,n=3 (or torus:k=4:n=3), hypercube:64, ring:16",
		parse: specList},
	{key: "k", list: "k", one: "k", def: "8", help: "network size: radix for mesh/torus, node count for ring/hypercube",
		parse: intList},
	{key: "pattern", list: "patterns", one: "pattern", def: "uniform",
		help:  "traffic pattern: uniform, transpose, bit-reversal, bit-complement, hotspot[:NODE:FRAC]",
		parse: wordList},
	{key: "vcs", list: "vcs", one: "vcs", def: "2", oneDef: "0", help: "virtual channels per port (0 = the router kind's own)",
		parse: intList},
	{key: "buf_per_vc", list: "bufs", one: "buf", def: "4", oneDef: "0", help: "flit buffers per VC (0 = the router kind's own)",
		parse: intList},
	{key: "packet_size", list: "packetsize", one: "packetsize", def: "5", help: "flits per packet",
		parse: intList},
	{key: "credit_delay", list: "credit-delays", one: "credit-delay", def: "1", help: "credit propagation delay (cycles)",
		parse: intList},
	// Retired: the parallel stepper changed no result (see retired).
	{key: "step_workers"},
	{key: "shards", list: "shards", one: "shards", def: "0",
		help:  "lookahead-shard count (0/1 = one shard; results are identical for every value)",
		parse: intList},
	{key: "source", omitEmpty: true, list: "sources", one: "source",
		help:  "injection process: const, bernoulli, mmpp:on=X,off=Y, batch:size=N, trace:file=PATH (empty = const; a trace sets its own rate and ignores the load)",
		parse: workloadList},
	{key: "sizes", omitEmpty: true, list: "sizes", one: "sizes",
		help:  "packet-size distribution: fixed:N, uniform:min=A,max=B, bimodal:small=S,large=L,p=P (empty = every packet is packetsize flits)",
		parse: workloadList},
	{key: "overrides", omitEmpty: true, list: "overrides", one: "overrides",
		help:  "per-router overrides, ';'-separated SEL:k=v groups (SEL = id, LO-HI, or '*'), e.g. '0:vcs=4,buf=8;3-5:delay=2' (empty = a uniform network)",
		parse: pipeList},
	{key: "routing", omitEmpty: true, list: "routing", one: "routing",
		help:  "routing policy: dor or adaptive:minimal (empty = dor, the paper's deterministic dimension-order routing)",
		parse: wordList},
	{key: "faults", omitEmpty: true, list: "faults", one: "faults",
		help:  "fault-injection spec, ';'-separated events: link:A-B@cycle=N, router:R@cycle=N, rand:links=K[,seed=S]@cycle=N, rand:routers=K[,seed=S]@cycle=N (empty = fault-free)",
		parse: pipeList},
	{key: loadKey, list: "loads", one: "load", def: "0.2", oneDef: "0.4", help: "offered load as a fraction of capacity",
		parse: loadList},
}

// loadKey is the axis a saturation search owns in place of a grid.
const loadKey = "load"

// axis is one row of the axis table.
type axis struct {
	key       string // JSON key and CSV column
	omitEmpty bool   // JSON omits the zero value
	list, one string // sweep's list flag, netsim's one-value flag
	def       string // Normalize default and sweep's flag default
	oneDef    string // netsim's flag default, if not def
	help      string
	parse     axisList // nil for a retired row
	jsonKey   string   // the codec's key token (a retired row's with its 0), set by init
	defVal    any      // def parsed, a []T, set by init
}

func init() {
	for i := range axes {
		a := &axes[i]
		a.jsonKey = `,"` + a.key + `":`
		if i == 0 {
			a.jsonKey = "{" + a.jsonKey[1:]
		}
		if a.omitEmpty {
			a.jsonKey = "?" + a.jsonKey
		}
		if a.parse == nil {
			a.jsonKey += "0"
			continue
		}
		a.defVal = a.parse.defaults(a.def)
	}
}

// retired is the type of a retired axis's Scenario field. Its one value
// is serialized as 0, and any other value is refused when read, so a
// payload written while the axis was live and set is never read back as
// this scenario.
type retired struct{}

func (retired) MarshalJSON() ([]byte, error) { return []byte("0"), nil }

func (*retired) UnmarshalJSON(b []byte) error {
	if string(b) != "0" {
		return fmt.Errorf("harness: retired axis holds %s, want 0", b)
	}
	return nil
}

// fields and slices are the table's typed accessors: the address of
// each axis's Scenario field and Matrix slice, in table order (nil for
// a retired row's slice). They are methods rather than per-row closures
// so that a Scenario the codec or a CSV writer walks stays on its
// caller's stack.
func (s *Scenario) fields() [len(axes)]any {
	return [...]any{&s.Router, &s.Topology, &s.K, &s.Pattern, &s.VCs, &s.BufPerVC, &s.PacketSize, &s.CreditDelay,
		&s.RetiredStepWorkers, &s.Shards, &s.Source, &s.Sizes, &s.Overrides, &s.Routing, &s.Faults, &s.Load}
}

func (m *Matrix) slices() [len(axes)]any {
	return [...]any{&m.Routers, &m.Topologies, &m.Ks, &m.Patterns, &m.VCs, &m.BufsPerVC, &m.PacketSizes, &m.CreditDelays,
		nil, &m.Shards, &m.Sources, &m.Sizes, &m.Overrides, &m.Routings, &m.Faults, &m.Loads}
}

// axisList is an axis's list parser. Its element type T makes it the
// typed side of the axis too: slice is the axis's *[]T, field its *T.
type axisList interface {
	wrap(slice, field any)   // the slice becomes the field's one value
	defaults(def string) any // the Normalize default: def parsed, or one zero value
	set(slice any, text string) error
	syntax() string
}

// parser is an axis's list syntax: split parses a list flag's value,
// and about describes it for the flag's help.
type parser[T any] struct {
	split func(string) ([]T, error)
	about string
}

func (p parser[T]) wrap(slice, field any) { *slice.(*[]T) = []T{*field.(*T)} }
func (p parser[T]) syntax() string        { return p.about }

// defaults parses def, which lists one zero value if it lists nothing
// (an empty spec is the axis's default spelling).
func (p parser[T]) defaults(def string) any {
	vals, err := p.split(def)
	if err != nil {
		panic(fmt.Sprintf("harness: axis default %q: %v", def, err))
	}
	if len(vals) == 0 {
		vals = make([]T, 1)
	}
	return vals
}

func (p parser[T]) set(slice any, text string) error {
	vals, err := p.split(text)
	if err == nil {
		*slice.(*[]T) = vals
	}
	return err
}

// The Matrix side of Normalize and Expand switches on the slice's type
// here rather than calling through axisList, so that the matrix stays
// on the caller's stack.

// sliceLen returns the length of an axis's slice; a retired axis has
// its one value.
func sliceLen(slice any) int {
	switch s := slice.(type) {
	case *[]string:
		return len(*s)
	case *[]int:
		return len(*s)
	case *[]float64:
		return len(*s)
	}
	return 1
}

// fill sets an empty axis slice to a copy of defVal, its default.
func fill(slice, defVal any) {
	switch s := slice.(type) {
	case *[]string:
		fillWith(s, defVal)
	case *[]int:
		fillWith(s, defVal)
	case *[]float64:
		fillWith(s, defVal)
	}
}

func fillWith[T any](s *[]T, defVal any) {
	if len(*s) == 0 {
		*s = slices.Clone(defVal.([]T))
	}
}

// pick sets field to element i of the axis's slice.
func pick(field, slice any, i int) {
	switch f := field.(type) {
	case *string:
		*f = (*slice.(*[]string))[i]
	case *int:
		*f = (*slice.(*[]int))[i]
	case *float64:
		*f = (*slice.(*[]float64))[i]
	}
}

// setOne parses one value into field, taken whole: a spec is not split
// at commas.
func setOne(field any, text string) (err error) {
	switch f := field.(type) {
	case *string:
		*f = text
	case *int:
		*f, err = strconv.Atoi(text)
	case *float64:
		*f, err = parseLoad(text)
	}
	return err
}

// axisColumns is the CSV header of the scenario columns, without the
// skip axis (none if skip is "").
func axisColumns(skip string) string {
	var cols []string
	for i := range axes {
		if axes[i].key != skip {
			cols = append(cols, axes[i].key)
		}
	}
	return strings.Join(cols, ",")
}

// appendAxes appends sc's scenario columns, without the skip axis.
func appendAxes(dst []byte, sc *Scenario, skip string) []byte {
	fields := sc.fields()
	for i := range fields {
		if axes[i].key == skip {
			continue
		}
		switch f := fields[i].(type) {
		case *string:
			dst = csvString(dst, *f)
		case *int:
			dst = csvInt(dst, int64(*f))
		case *float64:
			dst = csvFloat(dst, *f)
		case *retired:
			dst = append(dst, "0,"...)
		}
	}
	return dst
}

// axisFlag is an axis's command-line flag. Set parses its argument into
// the axis's Matrix slice (a sweep list flag) or Scenario field (a
// netsim one-value flag), so a malformed value fails flag parsing, with
// the flag's name, before anything runs.
type axisFlag struct {
	a    *axis
	set  func(string) error
	text string
}

func (f *axisFlag) String() string { return f.text }

func (f *axisFlag) Set(text string) error {
	if err := f.set(text); err != nil {
		return err
	}
	f.text = text
	return nil
}

// AddMatrixFlags defines one list flag per axis on fs, each setting its
// slice of *m, which starts at the axis's Normalize default.
func AddMatrixFlags(fs *flag.FlagSet, m *Matrix) {
	for i := range axes {
		a := &axes[i]
		if a.parse == nil {
			continue
		}
		slice := m.slices()[i]
		addAxisFlag(fs, a, a.list, a.def, a.help+"; "+a.parse.syntax(),
			func(text string) error { return a.parse.set(slice, text) })
	}
}

// AddScenarioFlags defines one one-value flag per axis on fs, each
// setting its field of *sc.
func AddScenarioFlags(fs *flag.FlagSet, sc *Scenario) {
	for i := range axes {
		a := &axes[i]
		if a.parse == nil {
			continue
		}
		def := a.def
		if a.oneDef != "" {
			def = a.oneDef
		}
		field := sc.fields()[i]
		addAxisFlag(fs, a, a.one, def, a.help, func(text string) error { return setOne(field, text) })
	}
}

func addAxisFlag(fs *flag.FlagSet, a *axis, name, def, help string, set func(string) error) {
	f := &axisFlag{a: a, set: set}
	if err := f.Set(def); err != nil {
		panic(fmt.Sprintf("harness: axis %s: default %q: %v", a.key, def, err))
	}
	fs.Var(f, name, help)
}

// IsAxisFlag reports whether f is an axis flag of AddMatrixFlags or
// AddScenarioFlags.
func IsAxisFlag(f *flag.Flag) bool {
	_, ok := f.Value.(*axisFlag)
	return ok
}

// IsLoadFlag reports whether f is the load axis's flag: the axis a
// saturation search owns.
func IsLoadFlag(f *flag.Flag) bool {
	af, ok := f.Value.(*axisFlag)
	return ok && af.a.key == loadKey
}

var (
	wordList     = parser[string]{splitList, "a comma-separated list"}
	specList     = parser[string]{splitSpecList, "a comma-separated list (a bare k=/n= or size fragment continues the previous spec)"}
	workloadList = parser[string]{splitWorkloadList, "a comma-separated list (a bare KEY=VALUE fragment continues the previous spec)"}
	pipeList     = parser[string]{splitPipeList, "a '|'-separated list (an empty entry is the default)"}
	intList      = parser[int]{parseInts, "a comma-separated list"}
	loadList     = parser[float64]{parseLoads, "a comma-separated list or a lo:hi:step range"}
)

func splitList(s string) ([]string, error) {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out, nil
}

// splitWorkloadList splits a comma-separated list of workload specs
// (injection processes, size distributions) whose parameters themselves
// contain commas ("mmpp:on=20,off=60,batch:size=4"): a bare KEY=VALUE
// fragment continues the previous spec rather than starting a new one.
func splitWorkloadList(s string) ([]string, error) {
	fields, _ := splitList(s)
	var out []string
	for _, f := range fields {
		if len(out) > 0 && strings.Contains(f, "=") && !strings.Contains(f, ":") {
			out[len(out)-1] += "," + f
			continue
		}
		out = append(out, f)
	}
	return out, nil
}

// splitPipeList splits a '|'-separated list (per-router override and
// fault specs use ',' and ';' internally), preserving empty entries so a
// sweep can cross a uniform network with override sets ("|0:vcs=4"). An
// all-empty value means the axis was not stated.
func splitPipeList(s string) ([]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	fields := strings.Split(s, "|")
	for i, f := range fields {
		fields[i] = strings.TrimSpace(f)
	}
	return fields, nil
}

// splitSpecList splits a comma-separated list of topology specs whose
// parameters may themselves contain commas ("torus:k=4,n=3,ring:16"):
// a fragment the spec grammar recognizes as pure parameters (k=4, n=3,
// or a bare integer) continues the previous spec rather than starting a
// new one.
func splitSpecList(s string) ([]string, error) {
	fields, _ := splitList(s)
	var out []string
	for _, f := range fields {
		if len(out) > 0 && topology.IsParamFragment(f) {
			out[len(out)-1] += "," + f
			continue
		}
		out = append(out, f)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	fields, _ := splitList(s)
	var out []int
	for _, f := range fields {
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// parseLoads accepts a comma list ("0.1,0.2,0.3") or an inclusive range
// with step ("0.1:0.9:0.05").
func parseLoads(s string) ([]float64, error) {
	var out []float64
	if fields := strings.Split(s, ":"); len(fields) == 3 {
		var v [3]float64
		for i, f := range fields {
			var err error
			if v[i], err = parseLoad(strings.TrimSpace(f)); err != nil {
				return nil, fmt.Errorf("range %q: %v", s, err)
			}
		}
		lo, hi, step := v[0], v[1], v[2]
		if step <= 0 || hi < lo {
			return nil, fmt.Errorf("range %q: want lo:hi:step with lo <= hi and step > 0", s)
		}
		// Walk an integer grid to dodge float accumulation drift, and
		// snap to 4 decimals so generated grids serialize cleanly.
		for i := 0; lo+float64(i)*step <= hi+step/2; i++ {
			out = append(out, float64(int((lo+float64(i)*step)*10000+0.5))/10000)
		}
		return out, nil
	}
	fields, _ := splitList(s)
	for _, f := range fields {
		v, err := parseLoad(f)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// parseLoad parses one load. ParseFloat accepts "NaN" and "Inf", which
// no load can be: as a range bound they would make the grid walk above
// never end.
func parseLoad(f string) (float64, error) {
	v, err := strconv.ParseFloat(f, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		err = fmt.Errorf("%q is not a finite number", f)
	}
	return v, err
}
