// Package harness is a deterministic, sharded experiment engine over
// the simulator: it expands a declarative scenario matrix (router ×
// topology × traffic pattern × VCs × buffering × load) into jobs, runs
// them on a bounded worker pool with per-job derived RNG seeds, and
// serializes the results as JSON or CSV. A matrix run with the same
// seed produces byte-identical output regardless of the worker count —
// the property every scaling layer above this one relies on.
package harness

import (
	"fmt"
	"math"
	"strings"

	"routersim/internal/network"
	"routersim/internal/router"
	"routersim/internal/sim"
	"routersim/internal/topology"
	"routersim/internal/trace"
	"routersim/internal/traffic"
)

// Scenario is one fully-specified simulation job: a single point of the
// matrix. All fields are plain values so a Scenario round-trips through
// JSON and CSV unchanged.
type Scenario struct {
	// Router is the microarchitecture name (router.ParseKind).
	Router string `json:"router"`
	// Topology is a topology spec (topology.New): "mesh", "torus",
	// "ring", "hypercube", optionally parameterized — "mesh:k=8",
	// "torus:k=4,n=3", "hypercube:64", "ring:16". A spec that pins its
	// own size overrides the K axis (and canonicalization records the
	// pinned size in K).
	Topology string `json:"topology"`
	// K is the network radix for mesh/torus specs, and the node count
	// for ring/hypercube specs that don't state their own size.
	K int `json:"k"`
	// Pattern is the traffic pattern spec (traffic.New).
	Pattern string `json:"pattern"`
	// VCs is the virtual channel count per port (ignored by wormhole
	// kinds, which always have 1).
	VCs int `json:"vcs"`
	// BufPerVC is the flit buffers per VC (per port for wormhole).
	BufPerVC int `json:"buf_per_vc"`
	// PacketSize is the packet length in flits.
	PacketSize int `json:"packet_size"`
	// CreditDelay is the credit propagation delay in cycles.
	CreditDelay int `json:"credit_delay"`
	// RetiredStepWorkers keeps the place of the retired step_workers
	// axis, an execution knob that changed no result. Its key stays in
	// every serialized scenario, always 0, so output bytes and
	// checkpoint keys are those of every earlier run with it at 0.
	RetiredStepWorkers retired `json:"step_workers"`
	// Shards selects the network's lookahead-sharded engine (0 or 1 =
	// one shard over every node; > 1 = that many shards stepping windows
	// concurrently). It is an execution axis: results are byte-identical
	// for every value.
	Shards int `json:"shards"`
	// Source is the injection-process spec (traffic.ParseSource): empty
	// or "const" is the paper's constant-rate source; "bernoulli",
	// "mmpp:on=X,off=Y", and "batch:size=N" are live arrival processes;
	// "trace:file=PATH" replays a recorded workload (the trace dictates
	// the injection rate, so Load is pinned to 0).
	Source string `json:"source,omitempty"`
	// Sizes is the per-packet size-distribution spec (traffic.ParseSizes);
	// empty means every packet is exactly PacketSize flits.
	Sizes string `json:"sizes,omitempty"`
	// Overrides is the per-router heterogeneity spec
	// (network.ParseOverrides): ';'-separated SEL:k=v,... groups, e.g.
	// "0:vcs=4,buf=8;3-5:delay=2". Empty means a uniform network.
	Overrides string `json:"overrides,omitempty"`
	// Routing is the routing-policy spec (network.ParseRouting): empty
	// or "dor" is deterministic dimension-order routing;
	// "adaptive:minimal" is minimal-adaptive routing over escape VCs.
	Routing string `json:"routing,omitempty"`
	// Faults is the fault-injection spec (network.ParseFaults):
	// ';'-separated events like "link:3-7@cycle=1000", "router:12@cycle=0",
	// "rand:links=2,seed=9@cycle=500". Empty means no faults.
	Faults string `json:"faults,omitempty"`
	// Load is the offered load as a fraction of capacity.
	Load float64 `json:"load"`
}

// RouterNames lists the canonical name of every router kind, comma
// separated, for flag help and error messages.
func RouterNames() string {
	var names []string
	for _, k := range router.Kinds() {
		names = append(names, k.String())
	}
	return strings.Join(names, ", ")
}

// Matrix is a declarative scenario matrix: the cross product of every
// axis. Empty axes take the paper's defaults (see Normalize). Expansion
// order is fixed — routers outermost, loads innermost — so job indices,
// and therefore derived seeds and serialized output, are deterministic.
type Matrix struct {
	Routers      []string  `json:"routers"`
	Topologies   []string  `json:"topologies"`
	Ks           []int     `json:"ks"`
	Patterns     []string  `json:"patterns"`
	VCs          []int     `json:"vcs"`
	BufsPerVC    []int     `json:"bufs_per_vc"`
	PacketSizes  []int     `json:"packet_sizes"`
	CreditDelays []int     `json:"credit_delays"`
	Shards       []int     `json:"shards,omitempty"`
	Sources      []string  `json:"sources,omitempty"`
	Sizes        []string  `json:"sizes,omitempty"`
	Overrides    []string  `json:"overrides,omitempty"`
	Routings     []string  `json:"routings,omitempty"`
	Faults       []string  `json:"faults,omitempty"`
	Loads        []float64 `json:"loads"`
}

// Normalize fills empty axes with the paper's evaluation defaults (the
// axis table's): speculative VC router, 8×8 mesh, uniform traffic,
// 2 VCs × 4 buffers, 5-flit packets, 1-cycle credits, 20% load.
func (m Matrix) Normalize() Matrix {
	for i, slice := range m.slices() {
		fill(slice, axes[i].defVal)
	}
	return m
}

// Size returns the number of jobs the matrix expands to (after
// canonicalization and deduplication).
func (m Matrix) Size() int { return len(m.Expand()) }

// Cells returns the size of the (normalized) cross product before
// canonicalization collapses duplicates.
func (m Matrix) Cells() int {
	m = m.Normalize()
	_, total := m.lens()
	return total
}

// lens returns each axis's value count and their product.
func (m *Matrix) lens() (n [len(axes)]int, total int) {
	total = 1
	for a, slice := range m.slices() {
		n[a] = sliceLen(slice)
		total *= n[a]
	}
	return n, total
}

// Expand enumerates every scenario of the (normalized) matrix in the
// fixed axis order. Scenarios are canonicalized — a non-VC router kind
// always has VCs = 1, whatever the VCs axis says, so labels and
// serialized results never misstate the configuration that ran — and
// exact duplicates produced by canonicalization (e.g. a wormhole
// router crossed with several VC counts) appear once.
func (m Matrix) Expand() []Scenario {
	m = m.Normalize()
	// One odometer digit per axis, in table order: routers outermost,
	// loads innermost, so job indices, derived seeds and serialized
	// output follow one fixed expansion order. raw holds the digits'
	// values; a turning digit rewrites only its own field.
	lens, total := m.lens()
	lists := m.slices()
	var raw Scenario
	fields := raw.fields()
	for a := range fields {
		pick(fields[a], lists[a], 0)
	}
	// total bounds both: deduplication only ever removes jobs.
	out := make([]Scenario, 0, total)
	seen := make(map[Scenario]bool, total)
	var idx [len(axes)]int
	for j := 0; j < total; j++ {
		sc := raw.canonical()
		// The VCs axis does not apply to non-VC kinds: pin to 1 so the
		// label is truthful (a hand-built Scenario skips this and is
		// rejected by SimConfig instead).
		if kind, ok := router.ParseKind(sc.Router); ok && !kind.UsesVCs() {
			sc.VCs = 1
		}
		if !seen[sc] {
			seen[sc] = true
			out = append(out, sc)
		}
		for a := len(idx) - 1; a >= 0; a-- {
			if idx[a]++; idx[a] == lens[a] {
				idx[a] = 0
			}
			pick(fields[a], lists[a], idx[a])
			if idx[a] != 0 {
				break
			}
		}
	}
	return out
}

// Validate expands the matrix and checks that every scenario lowers to
// a valid simulation configuration whose network fits its byte budget,
// so configuration errors surface before any job runs. The network is
// sized once per shape: the per-run axes change no byte of it.
func (m Matrix) Validate() error {
	sized := make(map[Scenario]bool)
	for i, sc := range m.Expand() {
		shape := sc.shape()
		if err := sc.check(!sized[shape]); err != nil {
			return fmt.Errorf("harness: job %d (%s): %w", i, sc.Label(), err)
		}
		sized[shape] = true
	}
	return nil
}

// shape is the scenario without its per-run axes — load, pattern,
// source, sizes and packet size — which a network.Reset may change.
func (s Scenario) shape() Scenario {
	s.Load, s.Pattern, s.Source, s.Sizes, s.PacketSize = 0, "", "", "", 0
	return s
}

// check is Validate for one scenario: it lowers to a valid simulation
// configuration and, if size, its network fits the byte budget.
func (s Scenario) check(size bool) error {
	cfg, err := s.SimConfig(1, Protocol{Warmup: 1, Packets: 1})
	if err != nil || !size {
		return err
	}
	return cfg.Net.CheckBytes()
}

// canonical resolves every zero-valued field to the default that will
// actually run (the paper's configuration, or the router kind's own
// defaults). Expansion emits only canonical scenarios so labels and
// serialized results always state the configuration that ran. Negative
// values are left for SimConfig to reject.
func (s Scenario) canonical() Scenario {
	if s.Router == "" {
		s.Router = axes[0].def
	}
	if s.Topology == "" {
		s.Topology = "mesh"
	}
	if s.K == 0 {
		s.K = 8
	}
	// Factor any stated size out of the topology spec: the canonical
	// shape ("torus:n=3") goes back into Topology and a pinned size
	// ("hypercube:64", "torus:k=4,n=3") overrides the K axis — so
	// equivalent spellings of one network ("hypercube:16" at any K,
	// "hypercube:n=4", "hypercube" at K=16) deduplicate to one job and
	// labels state the size that runs. Parse errors are left for
	// SimConfig to report.
	if spec, err := topology.Parse(s.Topology); err == nil {
		shape, pinned := spec.Canonical()
		s.Topology = shape
		if pinned != 0 {
			s.K = pinned
		}
	}
	if s.Pattern == "" {
		s.Pattern = "uniform"
	}
	if s.PacketSize == 0 {
		s.PacketSize = 5
	}
	if s.CreditDelay == 0 {
		s.CreditDelay = 1
	}
	// An alias ("specvc", "wh") becomes the kind's one canonical name, so
	// equivalent spellings share a job, a label and a checkpoint key.
	if kind, ok := router.ParseKind(s.Router); ok {
		s.Router = kind.String()
		rc := router.DefaultConfig(kind)
		if s.VCs == 0 {
			s.VCs = rc.VCs
		}
		if s.BufPerVC == 0 {
			s.BufPerVC = rc.BufPerVC
		}
	}
	// Workload specs canonicalize to their one spelling ("mmpp:off=60,
	// on=20" → "mmpp:on=20,off=60"), the paper's constant-rate source to
	// the empty string, and a trace pins the load axis to 0 — the trace
	// dictates its own injection rate, so a load sweep collapses to one
	// job per trace. Parse errors are left for SimConfig to report.
	if spec, err := traffic.ParseSource(s.Source); err == nil {
		if spec.Kind == "const" {
			s.Source = ""
		} else {
			s.Source = spec.String()
		}
		if spec.Kind == "trace" {
			s.Load = 0
		}
	}
	if s.Sizes != "" {
		if sizer, err := traffic.ParseSizes(s.Sizes); err == nil {
			s.Sizes = sizer.Name()
		}
	}
	// Routing and fault specs canonicalize to their one spelling ("dor"
	// → "", "adaptive" → "adaptive:minimal", link endpoints low-high).
	// Parse errors are left for SimConfig to report.
	if canon, err := network.CanonicalRouting(s.Routing); err == nil {
		s.Routing = canon
	}
	if canon, err := network.CanonicalFaults(s.Faults); err == nil {
		s.Faults = canon
	}
	return s
}

// Matrix returns the one-element matrix containing exactly this
// scenario — the bridge from single-run callers (netsim, Curve) to the
// matrix engine.
func (s Scenario) Matrix() Matrix {
	var m Matrix
	lists := m.slices()
	for i, field := range s.fields() {
		if axes[i].parse != nil {
			axes[i].parse.wrap(lists[i], field)
		}
	}
	return m
}

// Label returns a compact human-readable scenario identifier for
// progress lines and error messages. It states every axis off its
// canonical default (shards from 2 up: 0 and 1 run alike), so the
// scenarios of a matrix have distinct labels, up to the load's two
// decimals.
func (s Scenario) Label() string {
	tuning := ""
	if s.PacketSize != 0 && s.PacketSize != 5 {
		tuning = fmt.Sprintf("/pkt%d", s.PacketSize)
	}
	if s.CreditDelay != 0 && s.CreditDelay != 1 {
		tuning += fmt.Sprintf("/credit%d", s.CreditDelay)
	}
	if s.Shards > 1 {
		tuning += fmt.Sprintf("/sh%d", s.Shards)
	}
	// Canonical specs never pin their own size (canonical() factors it
	// into K), but a hand-built scenario might; only size-unpinned specs
	// get the K axis appended, so every label states the size exactly
	// once (e.g. "mesh:n=3,k=4" at k=4 vs k=8). A spec that does not
	// parse is labelled as typed: it may pin the size too.
	topo := s.Topology
	if spec, err := topology.Parse(topo); err == nil && spec.PinnedK() == 0 {
		if strings.Contains(topo, ":") {
			topo = fmt.Sprintf("%s,k=%d", topo, s.K)
		} else {
			topo = fmt.Sprintf("%s%d", topo, s.K)
		}
	}
	extra := ""
	if s.Source != "" {
		extra += "/" + s.Source
	}
	if s.Sizes != "" {
		extra += "/" + s.Sizes
	}
	if s.Overrides != "" {
		extra += "/hetero[" + s.Overrides + "]"
	}
	if s.Routing != "" {
		extra += "/" + s.Routing
	}
	if s.Faults != "" {
		extra += "/faults[" + s.Faults + "]"
	}
	return fmt.Sprintf("%s/%s/%s/%dvcs×%dbuf%s%s/load=%.2f",
		s.Router, topo, s.Pattern, s.VCs, s.BufPerVC, tuning, extra, s.Load)
}

// SimConfig lowers the scenario to a runnable simulation configuration
// with the given RNG seed and measurement protocol. Zero-valued fields
// take their canonical defaults; a stated value the simulation cannot
// honor exactly (wormhole with >1 VC, nonpositive resources) is an
// error rather than a silent substitution. The network is not sized
// here: network.New does that once, before it allocates (see check).
func (s Scenario) SimConfig(seed uint64, pr Protocol) (sim.Config, error) {
	s = s.canonical()
	kind, ok := router.ParseKind(s.Router)
	if !ok {
		return sim.Config{}, fmt.Errorf("unknown router kind %q (have %s)", s.Router, RouterNames())
	}
	if s.VCs > 1 && !kind.UsesVCs() {
		// canonical pins matrix-expanded scenarios to 1 VC; a
		// hand-built Scenario must not run a different configuration
		// than it states (the pre-harness facade made this a hard
		// error too).
		return sim.Config{}, fmt.Errorf("%v routers have exactly 1 VC, got %d", kind, s.VCs)
	}
	if s.VCs < 1 || s.BufPerVC < 1 || s.PacketSize < 1 || s.CreditDelay < 1 {
		return sim.Config{}, fmt.Errorf("nonpositive VC, buffer, packet size, or credit delay")
	}
	if s.Shards < 0 {
		return sim.Config{}, fmt.Errorf("negative shard count %d", s.Shards)
	}
	if s.K < 2 {
		return sim.Config{}, fmt.Errorf("network radix %d; need >= 2", s.K)
	}
	rc := router.DefaultConfig(kind)
	rc.VCs = s.VCs
	rc.BufPerVC = s.BufPerVC
	topo, err := topology.New(s.Topology, s.K)
	if err != nil {
		return sim.Config{}, err
	}
	pat, err := traffic.New(s.Pattern, topo.Nodes())
	if err != nil {
		return sim.Config{}, err
	}
	if !(s.Load >= 0) || math.IsInf(s.Load, 0) {
		return sim.Config{}, fmt.Errorf("load %v; need a finite value >= 0", s.Load)
	}
	srcSpec, err := traffic.ParseSource(s.Source)
	if err != nil {
		return sim.Config{}, err
	}
	var sizer traffic.Sizer
	if s.Sizes != "" {
		if sizer, err = traffic.ParseSizes(s.Sizes); err != nil {
			return sim.Config{}, err
		}
	}
	overrides, err := network.ParseOverrides(s.Overrides, topo.Nodes())
	if err != nil {
		return sim.Config{}, err
	}
	ncfg := network.Config{
		K:           s.K,
		Router:      rc,
		PacketSize:  s.PacketSize,
		Pattern:     pat,
		CreditDelay: s.CreditDelay,
		Shards:      s.Shards,
		Source:      srcSpec,
		Sizes:       sizer,
		Overrides:   overrides,
		Routing:     s.Routing,
		Faults:      s.Faults,
		Topo:        topo,
		Seed:        seed,
	}
	if srcSpec.Kind == "trace" {
		// A trace dictates destinations, sizes, and the injection rate;
		// the load axis does not apply (canonical pinned Load to 0, and
		// network.Config.Normalize derives the rate from the trace).
		if ncfg.Replay, err = trace.ReadFile(srcSpec.File); err != nil {
			return sim.Config{}, err
		}
	} else {
		ncfg.InjectionRate = sim.RateForLoad(s.Load, ncfg)
	}
	cfg := sim.Config{
		Net:            ncfg,
		WarmupCycles:   pr.Warmup,
		MeasurePackets: pr.Packets,
		ExactLatency:   pr.Exact,
		CITarget:       pr.CITarget,
	}
	if err := cfg.Net.Normalize(); err != nil {
		return sim.Config{}, err
	}
	return cfg, nil
}
