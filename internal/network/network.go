// Package network assembles routers into the paper's evaluation system:
// a topology graph (the paper's k×k mesh, or any topology.Topology —
// k-ary n-cube tori, hypercubes, rings) with dimension-ordered routing,
// credit-based flow control on every link, constant-rate traffic
// sources with infinite source queues, and immediate ejection at
// destinations (Section 5). The router port count and any
// deadlock-avoidance VC-class policy come from the topology itself.
package network

import (
	"fmt"
	"math"
	"reflect"

	"routersim/internal/flit"
	"routersim/internal/link"
	"routersim/internal/pool"
	"routersim/internal/rng"
	"routersim/internal/router"
	"routersim/internal/slab"
	"routersim/internal/stats"
	"routersim/internal/topology"
	"routersim/internal/trace"
	"routersim/internal/traffic"
)

// Config parameterizes a network simulation instance.
type Config struct {
	// K is the mesh radix (the paper uses an 8×8 mesh). Ignored when
	// Topo is set.
	K int
	// Router configures every router in the mesh.
	Router router.Config
	// PacketSize is the packet length in flits (paper: 5).
	PacketSize int
	// InjectionRate is the offered load in packets per node per cycle.
	InjectionRate float64
	// Pattern chooses destinations (nil = uniform random).
	Pattern traffic.Pattern
	// Bernoulli switches the injection process from the paper's
	// constant-rate source to a Bernoulli process. It is the legacy
	// spelling of Source{Kind: "bernoulli"}; Normalize folds it in.
	Bernoulli bool
	// Source selects the arrival process each source runs (see
	// traffic.ParseSource). The zero value is the paper's constant-rate
	// source.
	Source traffic.SourceSpec
	// Sizes, when non-nil, draws each packet's size in flits instead of
	// the fixed PacketSize (see traffic.ParseSizes). Sampled from the
	// source's RNG stream, immediately after the destination draw.
	Sizes traffic.Sizer
	// Replay is the captured workload a "trace" Source re-injects. It
	// must be validated and match the topology's node count; Normalize
	// derives InjectionRate from it.
	Replay *trace.Trace
	// Overrides deviate individual routers from the global VCs,
	// BufPerVC, and link delay (see ParseOverrides). Later entries win
	// on conflict.
	Overrides []RouterOverride
	// Routing selects the routing policy: "" or "dor" for the paper's
	// deterministic dimension-order routing (the topology's Route,
	// evaluated once per head flit), or "adaptive:minimal" for
	// minimal-adaptive routing over escape VCs (see routing.go).
	// Adaptive routing needs a VC router kind, at least VCClasses()+1
	// VCs and uniform VC counts; neither policy limits the network size.
	Routing string
	// Faults is the deterministic fault-injection plan: ';'-separated
	// events like "link:3-7@cycle=1000", "router:12@cycle=0", or seeded
	// random draws "rand:links=2,seed=9@cycle=500" (see faults.go).
	// Empty means no faults. A fault plan rebuilds per-router next-hop
	// tables (nodes² bytes), so it needs at most topology.MaxNodes nodes.
	Faults string
	// FlitDelay is the link propagation delay in cycles (paper: 1).
	FlitDelay int
	// CreditDelay is the credit propagation delay in cycles (paper: 1;
	// 4 in the Figure 18 experiment).
	CreditDelay int
	// Topo overrides the topology (nil = K×K mesh). A topology whose
	// VCClasses() > 1 (tori, rings) requires a VC router kind with a VC
	// count that is a positive multiple of the class count: deadlock
	// freedom on the wraparound rings comes from dateline VC classes,
	// which wormhole flow control cannot provide.
	Topo topology.Topology
	// StepWorkers selects the deterministic parallel stepper: with a
	// value > 1, every shard runs its routers' deliver and compute
	// phases on that many persistent workers. Results are byte-identical
	// for any worker count; 0 or 1 steps each shard's routers on the
	// calling goroutine. Networks using the parallel stepper must be
	// Closed after use.
	StepWorkers int
	// FullScan switches the scheduler's worklists to the reference
	// policy: every non-idle router and every source is stepped every
	// cycle, whatever the wake bookkeeping says, and no source parks.
	// Results are byte-identical either way; the full scan exists as
	// the reference for the scheduler's event-trace identity tests and
	// as the benchmark baseline. It also disables NextDue's quiescence
	// fast-forward (NextDue always answers now+1), and needs one shard.
	FullScan bool
	// Shards splits the network into that many balanced contiguous
	// node ranges (shard i owns nodes [i·nodes/Shards,
	// (i+1)·nodes/Shards)) that step independently, one goroutine
	// each, between bulk boundary exchanges, windows bounded per
	// neighbor pair by link delay and credit-loop slack (see
	// shard.go) — the engine for scaling wall-clock across cores on
	// large networks.
	// Results are byte-identical for any shard count. 0 or 1 is one
	// shard that covers every node and runs on the calling goroutine;
	// values > 1 require FullScan off and at most one shard per node,
	// and the network must be Closed after use. Composes with
	// StepWorkers: each shard then runs its own worker gang.
	Shards int
	// Seed makes the simulation exactly reproducible.
	Seed uint64
	// Audit, when > 0, turns on the engine invariant auditor: every
	// Audit cycles the network verifies flit conservation, per-wire
	// credit conservation, and buffer occupancy bounds, and panics with
	// a diagnostic snapshot on the first violation (see audit.go). The
	// checks are observationally side-effect free — results are
	// byte-identical with auditing on or off, on every engine. 0 (the
	// default) keeps the audit entirely off the hot path.
	Audit int

	// routing and faultPlan are the parsed forms of Routing and Faults,
	// filled by Normalize.
	routing   routingMode
	faultPlan *FaultPlan
}

// Normalize fills defaults and validates, sizing the network with
// build's counting pass (see checkBytes).
func (c *Config) Normalize() error {
	if err := c.normalize(); err != nil {
		return err
	}
	return c.checkBytes(c.countSlabs())
}

// normalize is Normalize without the sizing.
func (c *Config) normalize() error {
	if c.K == 0 {
		c.K = 8
	}
	if c.K < 2 {
		return fmt.Errorf("network: mesh radix %d; need >= 2", c.K)
	}
	if c.PacketSize == 0 {
		c.PacketSize = 5
	}
	if c.PacketSize < 1 || c.PacketSize > traffic.MaxPacketSize {
		return fmt.Errorf("network: PacketSize %d; need 1..%d flits", c.PacketSize, traffic.MaxPacketSize)
	}
	if c.FlitDelay == 0 {
		c.FlitDelay = 1
	}
	if c.CreditDelay == 0 {
		c.CreditDelay = 1
	}
	if c.FlitDelay < 1 || c.CreditDelay < 1 {
		return fmt.Errorf("network: propagation delays must be >= 1 cycle")
	}
	if c.FlitDelay > maxLinkDelay || c.CreditDelay > maxLinkDelay {
		return fmt.Errorf("network: flit delay %d, credit delay %d; propagation delays must be at most %d cycles",
			c.FlitDelay, c.CreditDelay, maxLinkDelay)
	}
	if c.StepWorkers < 0 {
		return fmt.Errorf("network: negative step worker count %d", c.StepWorkers)
	}
	if c.Shards < 0 {
		return fmt.Errorf("network: negative shard count %d", c.Shards)
	}
	if c.Audit < 0 {
		return fmt.Errorf("network: negative audit interval %d", c.Audit)
	}
	if c.Pattern == nil {
		c.Pattern = traffic.Uniform{}
	}
	if !(c.InjectionRate >= 0) || math.IsInf(c.InjectionRate, 0) {
		return fmt.Errorf("network: injection rate %v; need a finite value >= 0", c.InjectionRate)
	}
	if c.Topo == nil {
		mesh, err := topology.NewCube(c.K, 2, false)
		if err != nil {
			return fmt.Errorf("network: %w", err)
		}
		c.Topo = mesh
	}
	if c.Shards > 1 {
		if c.FullScan {
			return fmt.Errorf("network: sharding requires the active-set scheduler; FullScan is the one-shard reference policy")
		}
		if nodes := c.Topo.Nodes(); c.Shards > nodes {
			return fmt.Errorf("network: %d shards over %d nodes; need at most one shard per node", c.Shards, nodes)
		}
	}
	// The router port count is purely structural — the topology fully
	// determines it — so Normalize always derives it. (Router.Ports
	// stays a real parameter for direct router construction; here any
	// stated value, including DefaultConfig's 2-D mesh 5, is replaced.)
	c.Router.Ports = c.Topo.Ports()
	mode, err := ParseRouting(c.Routing)
	if err != nil {
		return fmt.Errorf("network: %w", err)
	}
	c.routing = mode
	fp, err := ParseFaults(c.Faults)
	if err != nil {
		return fmt.Errorf("network: %w", err)
	}
	c.faultPlan = fp
	// A fault plan is the one feature that needs per-destination state:
	// every fault rebuilds a next-hop table of nodes² bytes.
	if c.faultPlan != nil && c.Topo.Nodes() > topology.MaxNodes {
		return fmt.Errorf("network: fault injection rebuilds per-router next-hop tables (nodes² bytes); %s has %d nodes (max %d)",
			c.Topo.Name(), c.Topo.Nodes(), topology.MaxNodes)
	}
	if c.routing == routeAdaptiveMinimal {
		if !c.Router.Kind.UsesVCs() {
			return fmt.Errorf("network: adaptive routing splits VCs into escape and adaptive layers; %v routers have no VCs", c.Router.Kind)
		}
		esc := c.Topo.VCClasses()
		if c.Router.VCs < esc+1 {
			return fmt.Errorf("network: adaptive routing on %s needs at least %d VCs (%d escape + 1 adaptive), got %d",
				c.Topo.Name(), esc+1, esc, c.Router.VCs)
		}
		for _, o := range c.Overrides {
			if o.VCs != 0 {
				return fmt.Errorf("network: adaptive routing needs a uniform escape/adaptive VC split; per-router VC overrides conflict")
			}
		}
	}
	if c.Bernoulli && (c.Source.Kind == "" || c.Source.Kind == "const") {
		c.Source = traffic.SourceSpec{Kind: "bernoulli"}
	}
	switch c.Source.Kind {
	case "", "const", "bernoulli", "mmpp", "batch":
		if c.Replay != nil {
			return fmt.Errorf("network: Replay is set but the source is %q, not a trace", c.Source.String())
		}
		// The load must be one the arrival process can deliver.
		if _, err := c.Source.NewInjector(c.InjectionRate, rng.New(c.Seed)); err != nil {
			return fmt.Errorf("network: %w", err)
		}
	case "trace":
		if c.Replay == nil {
			return fmt.Errorf("network: trace source needs a loaded trace in Config.Replay")
		}
		if err := c.Replay.Validate(); err != nil {
			return fmt.Errorf("network: %w", err)
		}
		if c.Replay.Nodes != c.Topo.Nodes() {
			return fmt.Errorf("network: trace recorded on %d nodes; topology %s has %d",
				c.Replay.Nodes, c.Topo.Name(), c.Topo.Nodes())
		}
		if len(c.Replay.Events) == 0 {
			return fmt.Errorf("network: trace is empty; nothing to replay")
		}
		if c.Sizes != nil {
			return fmt.Errorf("network: trace replay carries recorded packet sizes; a sizes distribution conflicts")
		}
		// Replay re-injects the recorded workload verbatim; the offered
		// load the measurement layer reports is the trace's own rate.
		c.InjectionRate = c.Replay.Rate()
	default:
		return fmt.Errorf("network: unknown source kind %q", c.Source.Kind)
	}
	if err := c.validateOverrides(); err != nil {
		return err
	}
	// Deadlock avoidance is the topology's call: a class count > 1
	// (dateline classes on wraparound rings) needs VC flow control with
	// the VCs split evenly across classes.
	if classes := c.Topo.VCClasses(); classes > 1 {
		if !c.Router.Kind.UsesVCs() {
			return fmt.Errorf("network: %v routers deadlock on a %s; use a VC router kind", c.Router.Kind, c.Topo.Name())
		}
		// Under adaptive routing the escape layer holds exactly one VC
		// per dateline class and the rest are adaptive, so any count
		// >= classes+1 (checked above) works; under dimension-order
		// routing all VCs are datelined and must split evenly.
		if c.routing != routeAdaptiveMinimal &&
			(c.Router.VCs < classes || c.Router.VCs%classes != 0) {
			return fmt.Errorf("network: %s VC classes need a positive multiple of %d VCs, got %d",
				c.Topo.Name(), classes, c.Router.VCs)
		}
	}
	return c.Router.Validate()
}

// checkBytes refuses a network whose router, wire and source state —
// the slabs sl, counted but not allocated — outgrows what the
// topology's node cap stands for.
func (c *Config) checkBytes(sl []shardSlabs) error {
	if bytes, budget := slabBytes(sl), topology.Budget(c.Topo); bytes > budget {
		return fmt.Errorf("network: %s needs %d bytes of router, wire and source state (they grow with VCs × buffer depth); its node cap stands for %d — use fewer VCs or shallower buffers, or raise cap= on the topology spec",
			c.Topo.Name(), bytes, budget)
	}
	return nil
}

// countSlabs runs build's counting pass: the per-shard slabs, sized
// but not allocated.
func (c *Config) countSlabs() []shardSlabs {
	l := newLayout(c)
	sl := make([]shardSlabs, len(l.cuts)-1)
	carve(nil, l, sl)
	return sl
}

// slabBytes returns the bytes a network's slabs sl take, padded when
// there are several shards (see shardSlabs.alloc).
func slabBytes(sl []shardSlabs) int64 {
	var bytes int64
	for i := range sl {
		bytes += sl[i].bytes(len(sl) > 1)
	}
	return bytes
}

// MeanFlitsPerPacket is the expected packet size in flits under the
// configured workload: the size distribution's mean, the trace's mean,
// or the fixed PacketSize. The measurement layer uses it to convert
// packet rates to flit loads.
func (c *Config) MeanFlitsPerPacket() float64 {
	if c.Sizes != nil {
		return c.Sizes.Mean()
	}
	if c.Source.Kind == "trace" && c.Replay != nil {
		return c.Replay.MeanSize()
	}
	return float64(c.PacketSize)
}

// Network is a running mesh or torus of routers, sources, and sinks.
type Network struct {
	cfg     Config
	topo    topology.Topology
	routers []*router.Router
	sources []*source
	// policies are the routing policies installRouting built, one per
	// router; Reset reinstalls them over anything installed since.
	policies []router.RoutingPolicy
	// slabs are what every router, source and wire was carved from, one
	// set per shard (Reset empties the wires).
	slabs []shardSlabs
	// fresh marks a network no reset has armed yet.
	fresh bool

	// OnPacketCreated is called when a source generates a packet
	// (before queueing); the simulator uses it to tag the sample space.
	OnPacketCreated func(p *flit.Packet, now int64)
	// OnFlitEjected is called for every flit leaving the network.
	OnFlitEjected func(f flit.Flit, now int64)
	// OnPacketDone is called when a packet's last flit is ejected. The
	// packet is recycled when the callback returns: callbacks must not
	// retain p.
	OnPacketDone func(p *flit.Packet, now int64)

	nextPacketID int64

	// delayAt is the per-router driven-link delay when overrides are in
	// effect (nil: every link uses cfg.FlitDelay). The scheduler's wake
	// wheel is sized from it.
	delayAt []int64

	// Fault-plan state, all nil on unfaulted networks (faults.go):
	// routeTab[id] is router id's next-hop row, rewritten in place at
	// engine barriers and read by the routing policies; deadOut is the
	// per-node dead-output-port mask; faults is the resolved plan with
	// its application cursor.
	routeTab [][]uint8
	deadOut  []uint64
	faults   *faultState

	// unroutable counts packets dropped because fault injection left
	// their destination unreachable; droppedFlits counts their flits.
	unroutable   int64
	droppedFlits int64

	// probed marks a network with turnaround probes installed: its
	// routers share one accumulator, so every shard steps its routers
	// on the calling goroutine.
	probed bool

	// Engine state (see shard.go): the shards — one covering every node
	// unless cfg.Shards > 1 — the boundary wire pairs exchanged at each
	// barrier, the global lookahead floor (the minimum directed
	// shard-pair dependency bound — per-pair bounds live on the shards'
	// dep lists), and the gang that runs the shards (nil for one shard).
	shards      []*shard
	flitXfers   []flitXfer
	creditXfers []creditXfer
	lookahead   int64
	shardGang   *pool.Gang
	shardRunFn  func(i int)

	// Invariant-auditor state (audit.go). auditEvery is cfg.Audit as an
	// int64 (0 = off). auditNextAt is the next audit deadline as a shard
	// clock value (MaxInt64 when auditing is off, so the round-horizon
	// clamp is unconditional).
	auditEvery  int64
	auditNextAt int64
}

// shardSlabs are one shard's slabs (see package slab): every router,
// source and wire of the shard's node range is carved from them, so
// each type is one allocation per shard, and — padded — two shards
// never write one cache line.
type shardSlabs struct {
	routers    router.Slabs
	sources    slab.Slab[source]
	srcCredits slab.Slab[int]
	busy       slab.Slab[bool]
	streams    slab.Slab[stream]
	queues     slab.Slab[*flit.Packet]
	flits      link.Arena[flit.Flit]
	credits    link.Arena[router.Credit]
}

// alloc ends the counting pass, padded when the network has several
// shards (see slab.Slab.Alloc).
func (s *shardSlabs) alloc(pad bool) {
	s.routers.Alloc(pad)
	s.sources.Alloc(pad)
	s.srcCredits.Alloc(pad)
	s.busy.Alloc(pad)
	s.streams.Alloc(pad)
	s.queues.Alloc(pad)
	s.flits.Alloc(pad)
	s.credits.Alloc(pad)
}

// bytes returns the bytes alloc(pad) asks for.
func (s *shardSlabs) bytes(pad bool) int64 {
	return s.routers.Bytes(pad) + s.sources.Bytes(pad) + s.srcCredits.Bytes(pad) +
		s.busy.Bytes(pad) + s.streams.Bytes(pad) + s.queues.Bytes(pad) +
		s.flits.Bytes(pad) + s.credits.Bytes(pad)
}

// New builds the network and resets it to cfg: build allocates what the
// structural fields determine, and reset writes every piece of per-run
// state, so a reused network starts where a new one does.
func New(cfg Config) (*Network, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	sl := cfg.countSlabs()
	if err := cfg.checkBytes(sl); err != nil {
		return nil, err
	}
	n := build(cfg, sl)
	if err := n.reset(cfg); err != nil {
		n.Close()
		return nil, err
	}
	return n, nil
}

// Reset rewinds the network in place to the state New(cfg) returns,
// keeping capacity: in-flight and queued packets go back to the packet
// pools, grown queues and rings stay grown. cfg may differ from the
// network's configuration only in the per-run fields — Seed,
// InjectionRate, Pattern, Bernoulli, Source, Sizes, PacketSize, Replay,
// Audit; any other difference (see Fits), or a cfg New would reject,
// returns an error and leaves the network untouched.
func (n *Network) Reset(cfg Config) error {
	if err := n.fits(&cfg); err != nil {
		return err
	}
	return n.reset(cfg)
}

// Fits reports whether Reset(cfg) would accept cfg. A network built with
// an arbiter factory (router.Config.Arb, a func) fits no configuration.
func (n *Network) Fits(cfg Config) error { return n.fits(&cfg) }

// fits normalizes cfg in place and compares its structure: everything
// but the per-run fields. A cfg of the network's structure has the
// network's bytes, which New has checked, so it is not counted again.
func (n *Network) fits(cfg *Config) error {
	if err := cfg.normalize(); err != nil {
		return err
	}
	shape := func(c Config) Config {
		c.Seed, c.InjectionRate, c.Pattern, c.Bernoulli = 0, 0, nil, false
		c.Source, c.Sizes, c.PacketSize, c.Replay, c.Audit = traffic.SourceSpec{}, nil, 0, nil, 0
		return c
	}
	if !reflect.DeepEqual(shape(n.cfg), shape(*cfg)) {
		return fmt.Errorf("network: the configuration's structure differs from the network's; it needs a new network, not a Reset")
	}
	return nil
}

// build allocates the network cfg's structural fields determine:
// routers, wires, sources, routing policies, fault tables, shards and
// their schedulers. Nothing in it is armed; reset does that. Routers,
// sources and wires are carved from the per-shard slabs sl, allocated
// exactly as countSlabs sized them.
func build(cfg Config, sl []shardSlabs) *Network {
	n := &Network{cfg: cfg, topo: cfg.Topo, fresh: true, slabs: sl}
	l := newLayout(&n.cfg)
	n.delayAt = l.delayAt
	for i := range n.slabs {
		n.slabs[i].alloc(len(n.slabs) > 1)
	}
	nodes := n.topo.Nodes()
	n.routers, n.sources = make([]*router.Router, nodes), make([]*source, nodes)
	depBound := carve(n, l, n.slabs)
	// Fault plans bring the only per-destination tables a network ever
	// builds (faults.go); routing reads them through the same policies
	// that otherwise call the topology (routing.go).
	if cfg.faultPlan != nil {
		n.buildFaults()
	}
	n.installRouting()
	n.buildShards(l.cuts, depBound)
	return n
}

// layout is what construction reads off the structural fields: the
// per-node VC count, buffer depth and driven-link delay (nil slices
// mean the fully uniform network, which reads the global config), the
// shard ranges, and the boundary wires' capacity.
type layout struct {
	cfg     *Config
	vcsAt   []int
	bufAt   []int
	delayAt []int64
	cuts    []int32
	// xferCap presizes the boundary exchange wires to the worst-case
	// per-round traffic — a shard's window never exceeds twice the
	// largest pair bound, and a wire additionally holds up to maxDelay
	// in-flight items — so the steady-state barrier never grows a ring.
	xferCap int
}

func newLayout(cfg *Config) *layout {
	nodes := cfg.Topo.Nodes()
	l := &layout{cfg: cfg, cuts: partitionNodes(nodes, max(1, cfg.Shards))}
	l.vcsAt, l.bufAt, l.delayAt = cfg.nodeParams(nodes)
	if cfg.Shards > 1 {
		maxDelay := int64(cfg.FlitDelay)
		for _, d := range l.delayAt {
			maxDelay = max(maxDelay, d)
		}
		maxBound := max(maxDelay, int64(cfg.CreditDelay)+int64(cfg.Router.CreditProcessDelay()))
		l.xferCap = int(2*maxBound + maxDelay + 2)
	}
	return l
}

func (l *layout) vcs(id int) int {
	if l.vcsAt != nil {
		return l.vcsAt[id]
	}
	return l.cfg.Router.VCs
}

func (l *layout) buf(id int) int {
	if l.bufAt != nil {
		return l.bufAt[id]
	}
	return l.cfg.Router.BufPerVC
}

func (l *layout) delay(id int) int {
	if l.delayAt != nil {
		return int(l.delayAt[id])
	}
	return l.cfg.FlitDelay
}

// carve is build's construction of every router, source and wire, run
// twice over the shards' slabs the way link.Arena carves wires: first
// counting, with n nil — the slabs are unallocated, every carve returns
// nil, and nothing is connected — then, once they are allocated and
// n.routers and n.sources exist, carving into n. On the carving pass it
// returns the minimum dependency bound per directed shard pair {on,
// waiter}: the waiter may run ahead of on's clock by up to that many
// cycles (shard.go).
func carve(n *Network, l *layout, sl []shardSlabs) map[[2]int32]int64 {
	cfg := l.cfg
	nodes := cfg.Topo.Nodes()
	carving := n != nil
	// Routers and sources, in node order. A source feeds its router's
	// local input port through an injection channel with the same
	// propagation delays (wired below, with everything else).
	for id := 0; id < nodes; id++ {
		rcfg := cfg.Router
		rcfg.VCs, rcfg.BufPerVC = l.vcs(id), l.buf(id)
		s := &sl[shardOf(l.cuts, id)]
		r := router.Carve(&s.routers, id, rcfg, nil)
		src := s.source(n, id, rcfg.VCs, rcfg.BufPerVC)
		if carving {
			n.routers[id], n.sources[id] = r, src
		}
	}

	// Wires: every link is a flit wire and a credit wire in the
	// opposite direction; the topology names the input port a link
	// lands on. A flit wire takes the driving router's link delay.
	// Credit wires are presized to the credit-loop bound: the active-set
	// scheduler drains a sleeping receiver's credit wires only at its
	// next wake, so every buffer slot of the fed input port can have a
	// credit in flight at once — and no more, since a credit exists only
	// for a slot its counter lacks (conservation, which the auditor
	// checks). A boundary link's outbox and inbox share that bound.
	//
	// Wires are carved in the order of the node that pops them — a
	// router's injection and neighbour flit wires, its output ports'
	// credit wires, its source's credit wire — so the headers one
	// Deliver polls are adjacent. A shard's slabs also hold the outboxes
	// its routers push.
	var depBound map[[2]int32]int64
	if carving && cfg.Shards > 1 {
		depBound = make(map[[2]int32]int64)
	}
	noteDep := func(on, waiter int32, bound int64) {
		k := [2]int32{on, waiter}
		if b, ok := depBound[k]; !ok || bound < b {
			depBound[k] = bound
		}
	}
	for id := 0; id < nodes; id++ {
		sid := shardOf(l.cuts, id)
		mine := &sl[sid]
		inject := mine.flits.Wire(l.delay(id), 0)
		for q := 1; q < cfg.Router.Ports; q++ {
			a, pa, ok := cfg.Topo.Neighbor(id, q)
			if !ok {
				continue
			}
			// The inbound half of port q, both wires popped by id: the
			// flit link a → id and the credit wire of the link id → a
			// (credit state sized for a's input buffers).
			creditCap := l.vcs(a) * l.buf(a)
			if sa := shardOf(l.cuts, a); sa == sid {
				fw := mine.flits.Wire(l.delay(a), 0)
				cw := mine.credits.Wire(cfg.CreditDelay, creditCap)
				if carving {
					n.routers[id].ConnectArrivals(q, fw, cw)
					n.routers[a].ConnectDepartures(pa, fw, cw)
				}
			} else {
				// Boundary link: a pushes onto outboxes only its shard
				// writes, id pops inboxes only its shard reads, and the
				// barrier moves entries over (shard.go), posting the
				// flit dues to id's wake wheel. The flit wires are
				// presized to the worst-case window lead (xferCap; id's
				// shard may outrun a's by the flit delay, and by
				// CreditDelay + creditLag on the credit side, which
				// id's router pops creditLag cycles late); the credit
				// wires need no more than the credit-loop bound.
				theirs := &sl[sa]
				fIn := mine.flits.Wire(l.delay(a), l.xferCap)
				cIn := mine.credits.Wire(cfg.CreditDelay, creditCap)
				fOut := theirs.flits.Wire(l.delay(a), l.xferCap)
				cOut := theirs.credits.Wire(cfg.CreditDelay, creditCap)
				if carving {
					r := n.routers[id]
					r.ConnectArrivals(q, fIn, cIn)
					n.routers[a].ConnectDepartures(pa, fOut, cOut)
					n.flitXfers = append(n.flitXfers, flitXfer{out: fOut, in: fIn, dst: int32(id)})
					n.creditXfers = append(n.creditXfers, creditXfer{out: cOut, in: cIn})
					noteDep(sa, sid, min(int64(l.delay(a)), int64(cfg.CreditDelay)+r.CreditLag()))
				}
			}
			if carving && (l.vcsAt != nil || l.bufAt != nil) {
				n.routers[id].SetOutputPolicy(q, l.vcs(a), l.buf(a))
			}
		}
		credit := mine.credits.Wire(cfg.CreditDelay, l.vcs(id)*l.buf(id))
		if carving {
			n.routers[id].ConnectInput(topology.PortLocal, inject, credit)
			n.sources[id].flitOut, n.sources[id].creditIn = inject, credit
		}
	}
	return depBound
}

// reset arms a built network for cfg (normalized, of the network's
// structure). Only fault resolution can fail, and it runs first.
func (n *Network) reset(cfg Config) error {
	var faults *faultState
	if cfg.faultPlan != nil {
		var err error
		if faults, err = resolveFaults(cfg.faultPlan, n.topo, cfg.Seed); err != nil {
			return fmt.Errorf("network: %w", err)
		}
	}
	// Everything still in flight goes back to the packet pools. Routers
	// and wires fresh from build are in their reset state already (their
	// constructors reset them), with nothing to take back.
	if !n.fresh {
		dropFlit := func(f flit.Flit) { n.reclaim(f.Pkt) }
		for _, r := range n.routers {
			r.Reset(dropFlit)
		}
		for i := range n.slabs {
			n.slabs[i].flits.Reset(dropFlit)
			n.slabs[i].credits.Reset(nil)
		}
		for _, sh := range n.shards {
			for _, e := range sh.ejects[sh.ejCur:] {
				n.reclaim(e.f.Pkt)
			}
			for _, e := range sh.creates[sh.crCur:] {
				n.reclaim(e.p)
			}
		}
	}
	n.fresh = false
	for id, r := range n.routers {
		r.SetRoutingPolicy(n.policies[id])
	}
	// Every source owns one RNG stream split off the master; which draws
	// it makes (and in what order) is part of the schedule contract, so
	// the const path keeps its historical phase draw. The stream and a
	// constant-rate injector live in the source itself.
	master := rng.New(cfg.Seed)
	for id, s := range n.sources {
		s.rng = master.Stream(uint64(id))
		var inj traffic.Injector
		switch cfg.Source.Kind {
		case "", "const":
			s.constRate.Init(cfg.InjectionRate, s.rng.Float64())
			inj = &s.constRate
		case "trace":
			inj = trace.NewReplayer(cfg.Replay, id)
		default: // Normalize has checked the parameters
			inj, _ = cfg.Source.NewInjector(cfg.InjectionRate, s.rng.Split(1))
		}
		s.reset(inj, n.reclaim)
	}

	n.cfg = cfg
	n.OnPacketCreated, n.OnFlitEjected, n.OnPacketDone = nil, nil, nil
	n.nextPacketID, n.unroutable, n.droppedFlits, n.probed = 0, 0, 0, false
	if faults != nil {
		n.resetFaults(faults)
	}
	for _, sh := range n.shards {
		sh.reset()
	}
	// Audit deadlines are shard-clock values; the round-horizon clamp in
	// runRound is unconditional, so a disabled auditor parks the deadline
	// at infinity like an exhausted fault plan.
	n.auditEvery, n.auditNextAt = int64(cfg.Audit), math.MaxInt64
	if n.auditEvery > 0 {
		n.auditNextAt = n.auditEvery
	}
	return nil
}

// reclaim returns a live packet to its source shard's pool. Pooled
// packets are zeroed and live ones have Size >= 1, so a packet reached
// through several of its flits is returned once.
func (n *Network) reclaim(p *flit.Packet) {
	if p.Size == 0 {
		return
	}
	home := n.sources[p.Src].sh
	p.Reset()
	home.pktFree = append(home.pktFree, p)
}

// Close releases the parallel steppers' workers. It is a no-op on a
// network that started none (one shard, StepWorkers 0 or 1), and safe
// to call more than once.
func (n *Network) Close() {
	if n.shardGang != nil {
		n.shardGang.Close()
		n.shardGang = nil
	}
	for _, sh := range n.shards {
		if sh.gang != nil {
			sh.gang.Close()
			sh.gang = nil
		}
	}
}

// Config returns the (normalized) configuration.
func (n *Network) Config() Config { return n.cfg }

// Nodes returns the number of network nodes.
func (n *Network) Nodes() int { return n.topo.Nodes() }

// Capacity returns the uniform-traffic capacity in flits/node/cycle.
func (n *Network) Capacity() float64 { return n.topo.UniformCapacity() }

// Topology returns the network's topology.
func (n *Network) Topology() topology.Topology { return n.topo }

// Router returns the router at a node (for tests and probes).
func (n *Network) Router(id int) *router.Router { return n.routers[id] }

// SourceQueueLen returns the source-queue depth at a node (for tests).
func (n *Network) SourceQueueLen(id int) int { return n.sources[id].queueLen() }

// Unroutable returns the number of packets dropped because fault
// injection left their destination unreachable. Zero on unfaulted
// networks.
func (n *Network) Unroutable() int64 { return n.unroutable }

// DroppedFlits returns the number of flits belonging to unroutable
// packets that drained through ejection ports. Zero on unfaulted
// networks.
func (n *Network) DroppedFlits() int64 { return n.droppedFlits }

// SetProbes installs buffer-turnaround probes on every router. Probes
// share one accumulator, so a probed network steps its shards and their
// routers one at a time on the calling goroutine.
func (n *Network) SetProbes(t *stats.Turnaround) {
	n.probed = true
	for _, r := range n.routers {
		r.SetProbe(t)
	}
}

// Step advances the network through cycle now, then fires cycle now's
// packet creations and flit ejections on the callbacks. Every shard
// steps in barrier rounds until its clock has passed now (shard.go), and
// the buffered events replay in node order — ejections, then creations —
// so callback order, packet IDs, and all derived measurement are
// identical for any shard and worker count. Routers exchange all state
// through ≥1-cycle wires, so the visit order within a cycle is
// immaterial — which is also what makes the two-phase parallel stepper
// exact: every Deliver only consumes items pushed in earlier cycles, and
// every Compute only pushes items deliverable in later cycles.
func (n *Network) Step(now int64) {
	if n.minShardClock() <= now {
		n.advanceShards(now)
	}
	n.replay(now)
}
