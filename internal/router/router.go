package router

import (
	"fmt"
	"math/bits"

	"routersim/internal/allocator"
	"routersim/internal/flit"
	"routersim/internal/link"
	"routersim/internal/queue"
	"routersim/internal/slab"
	"routersim/internal/stats"
)

// Credit is the unit of buffer flow control sent upstream when a flit is
// read out of an input buffer. VC identifies which virtual channel's
// buffer was freed.
type Credit struct{ VC int8 }

// Unroutable is the next-hop-table sentinel for a destination with no
// live path (a fault partitioned the network). A table policy sends
// such packets to the local ejection port with Pkt.Dropped set; the
// network counts them instead of delivering them. Port indices are < 64,
// so the sentinel can never collide with a real port.
const Unroutable = 0xFF

// RoutingPolicy is the router's one routing input: it chooses the output
// port and the output-VC candidate mask for a head flit. Route is
// invoked once, when the head reaches the routing stage (attempt 0); the
// choice then stands for every VC-allocation retry, so a deterministic
// policy costs nothing while a head waits. It runs inside the router's
// compute phase and must only read router-local state (r's credit
// counters, p) plus immutable or barrier-synchronized shared tables; it
// must be deterministic and allocation-free. A policy that declares p
// unroutable must set p.Dropped and return the local port 0.
type RoutingPolicy interface {
	Route(r *Router, p *flit.Packet, attempt int) (port int, vcMask uint64)
}

// AdaptivePolicy marks a RoutingPolicy whose choice depends on
// congestion: the router re-invokes its Route on every VC-allocation
// retry (attempt counts the prior failed attempts), so the policy can
// re-pick by credit count or alternate between adaptive candidates and a
// deterministic escape class.
type AdaptivePolicy interface {
	RoutingPolicy
	Adaptive()
}

// tablePolicy is the built-in policy New installs: routes[dst] is the
// output port, every VC is a candidate, and an Unroutable entry drains
// the packet through the local port, marked dropped.
type tablePolicy []uint8

func (t tablePolicy) Route(_ *Router, p *flit.Packet, _ int) (int, uint64) {
	port := t[p.Dst]
	if port == Unroutable {
		p.Dropped = true
		return 0, ^uint64(0)
	}
	return int(port), ^uint64(0)
}

// vcState is the per-input-VC channel state (invc_state in the paper;
// inpc_state for wormhole routers, which have one VC per port).
type vcState uint8

const (
	// vcIdle: no packet, or waiting for the next head flit.
	vcIdle vcState = iota
	// vcWaitVC: routed; waiting for an output VC (VC allocation state).
	// For wormhole routers this state doubles as "waiting for switch
	// arbitration" since there is no VC allocation.
	vcWaitVC
	// vcActive: resources held; flits flow through switch allocation.
	vcActive
)

// inputVC is one virtual channel of an input controller: a flit FIFO
// (by value, its ring a slice of the router's buffer slab) plus channel
// state — 64 bytes, all of a router's VCs adjacent in one slice.
type inputVC struct {
	fifo    queue.FIFO
	readyAt int64 // earliest cycle of the next pipeline action

	// cands is the output-VC candidate mask the routing policy chose
	// together with route.
	cands uint64
	// attempts counts the VC-allocation attempts of the waiting head,
	// letting an adaptive policy alternate between adaptive and escape
	// choices.
	attempts int32
	route    int8 // output port chosen by the routing stage
	state    vcState
	outVC    int8 // allocated output VC (valid in vcActive)
}

// vcProbe records when each buffer slot of one input VC was last freed,
// so the next flit written into it yields a turnaround interval.
type vcProbe struct {
	rec       *stats.Turnaround
	popTimes  []int64 // one per buffer slot, indexed by pop count mod depth
	popCount  int64
	pushCount int64
}

// inputPort is one physical input channel.
type inputPort struct {
	vcs       []inputVC
	flitIn    *link.Wire[flit.Flit] // upstream pushes flits here (nil: unconnected edge)
	creditOut *link.Wire[Credit]    // we push freed-buffer credits here (nil: unconnected)
	// occ has bit c set while input VC c needs allocation attention:
	// its FIFO is non-empty or its state is not idle. The allocation
	// stages iterate set bits instead of scanning every VC.
	occ uint64
}

// outputPort is one physical output channel: the downstream credit
// state (credits per VC, outvc_state) plus the outgoing flit wire.
type outputPort struct {
	flitOut  *link.Wire[flit.Flit] // nil for the ejection port
	creditIn *link.Wire[Credit]    // downstream pushes returned credits here
	credits  []int                 // per downstream VC
	vcBusy   uint64                // outvc_state bitmask: VC allocated to a packet
	vcMask   uint64                // allocatable VCs on this port (downstream may have fewer)
	downBuf  int32                 // downstream buffer depth: each allocatable VC's initial credits
	ejection bool                  // local port: infinite buffering, immediate ejection
}

// resetCredits gives each allocatable VC a full downstream buffer of
// credits, and every other VC none.
func (op *outputPort) resetCredits() {
	for c := range op.credits {
		op.credits[c] = int(op.downBuf) * int(op.vcMask>>c&1)
	}
}

// stGrant is a latched switch grant: the head-of-queue flit of (in, vc)
// traverses the crossbar in the cycle after the grant.
type stGrant struct{ in, vc int8 }

// Router is one cycle-accurate router instance.
type Router struct {
	id  int
	cfg Config

	in  []inputPort
	out []outputPort

	// occPorts has bit p set while input port p has a non-zero occ mask,
	// letting the allocation stages (and the network's idle-router skip)
	// ignore quiet ports entirely.
	occPorts uint64

	// policy routes every head flit (see RoutingPolicy); never nil.
	// readapt caches whether it asked to be re-invoked on VC-allocation
	// retries (AdaptivePolicy).
	policy  RoutingPolicy
	readapt bool
	// vcMaskAll has the low VCs bits set (the full candidate mask).
	vcMaskAll uint64
	// creditLag is the credit-processing pipeline depth in cycles,
	// applied by popping the credit wires that many cycles late.
	creditLag int64

	// ejected collects the flits that left through the local output port
	// this cycle. The network drains it (in router-id order) after all
	// routers have stepped, which keeps ejection callbacks off the
	// parallel compute phase and their order deterministic.
	ejected []flit.Flit

	// probes is the Figure 16 turnaround bookkeeping of input VC
	// (port, c) at probes[port*VCs+c]; nil unless SetProbe ran.
	probes []vcProbe

	// flitPushes has bit p set for every output port this router pushed
	// a flit on since the last TakeFlitPushes. The network's active-set
	// scheduler reads it to wake exactly the downstream routers that
	// will have an arrival due, instead of scanning every router's
	// wires. (Credit pushes are deliberately not tracked: credits alone
	// never oblige a router to act — see the scheduler's wake rules.)
	flitPushes uint64

	// plan is the kind's row of the kinds table: which stages the
	// stepper runs and the registers between them (see Compute).
	plan plan

	// allocators: whArb for port-held kinds; vcAlloc plus swAlloc or
	// (speculating kinds) specAlloc for VC kinds
	whArb     *allocator.WormholeSwitch
	swAlloc   *allocator.SeparableSwitch
	vcAlloc   *allocator.VCAllocator
	specAlloc *allocator.SpeculativeSwitch

	// pending holds grants issued last cycle, executed by this cycle's
	// switch-traversal phase; next accumulates this cycle's grants.
	pending []stGrant
	next    []stGrant

	// scratch request buffers, reused across cycles; New makes only the
	// ones the plan uses
	portReqs   []allocator.PortRequest
	swReqs     []allocator.SwitchRequest
	specReqs   []allocator.SwitchRequest
	vaReqs     []allocator.VCRequest
	whReleases []int8 // wormhole port releases registered this cycle
}

// New returns a router. Routing has one seam, the RoutingPolicy
// consulted once per head flit. New installs the built-in table policy
// over routes — destination node to output port (routes[dst] = port),
// every VC a candidate, an Unroutable entry drained through the local
// port and dropped; the slice is retained and read on every head. A
// caller that routes any other way (the network package's functional
// dimension-order, adaptive and post-fault policies) passes nil and
// calls SetRoutingPolicy before the first Step.
//
// Flits routed to port 0 (the local port) are ejected: they accumulate
// in the buffer returned by Ejected until ClearEjected.
func New(id int, cfg Config, routes []uint8) *Router {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("router %d: %v", id, err))
	}
	var s Slabs
	Carve(&s, id, cfg, routes)
	s.Alloc(false)
	return Carve(&s, id, cfg, routes)
}

// Slabs are the typed slabs routers are carved from (see package slab):
// a network carves every router of a shard from one Slabs, so each type
// — headers, ports, input VCs, buffer slots, credit counters, latched
// grants, allocators and their scratch — is one allocation per shard.
type Slabs struct {
	routers slab.Slab[Router]
	in      slab.Slab[inputPort]
	out     slab.Slab[outputPort]
	vcs     slab.Slab[inputVC]
	flits   slab.Slab[flit.Flit]
	ints    slab.Slab[int]
	grants  slab.Slab[stGrant]
	alloc   allocator.Slabs
}

// Alloc ends the counting pass of every slab (see slab.Slab.Alloc).
func (s *Slabs) Alloc(pad bool) {
	s.routers.Alloc(pad)
	s.in.Alloc(pad)
	s.out.Alloc(pad)
	s.vcs.Alloc(pad)
	s.flits.Alloc(pad)
	s.ints.Alloc(pad)
	s.grants.Alloc(pad)
	s.alloc.Alloc(pad)
}

// Bytes returns the bytes Alloc(pad) asks for.
func (s *Slabs) Bytes(pad bool) int64 {
	return s.routers.Bytes(pad) + s.in.Bytes(pad) + s.out.Bytes(pad) + s.vcs.Bytes(pad) +
		s.flits.Bytes(pad) + s.ints.Bytes(pad) + s.grants.Bytes(pad) + s.alloc.Bytes(pad)
}

// Carve is New carved from s, for a valid cfg: on the counting pass
// (before s.Alloc) it only sizes s and returns nil. Every input VC,
// buffer slot and credit counter is sized from this router's own VC
// count and buffer depth; the ports hold sub-slices.
func Carve(s *Slabs, id int, cfg Config, routes []uint8) *Router {
	p, v := cfg.Ports, cfg.VCs
	pl := kinds[cfg.Kind].plan
	ring := queue.RingSize(cfg.BufPerVC)
	r := s.routers.New()
	in, out := s.in.Take(p), s.out.Take(p)
	vcs, slots, credits := s.vcs.Take(p*v), s.flits.Take(p*v*ring), s.ints.Take(p*v)
	var pending, next []stGrant
	if pl.sast > 0 {
		pending, next = s.grants.Take(p), s.grants.Take(p)
	}
	// Allocators and scratch follow the plan; scratch is carved at its
	// worst-case size so the steady-state cycle never grows a slice.
	var (
		a          = &s.alloc
		f          = cfg.Arb // nil: the allocators' own matrix arbiter banks
		vcAlloc    *allocator.VCAllocator
		swAlloc    *allocator.SeparableSwitch
		specAlloc  *allocator.SpeculativeSwitch
		whArb      *allocator.WormholeSwitch
		vaReqs     []allocator.VCRequest
		swReqs     []allocator.SwitchRequest
		specReqs   []allocator.SwitchRequest
		portReqs   []allocator.PortRequest
		whReleases []int8
	)
	if pl.vcs {
		vcAlloc = allocator.CarveVCAllocator(a, p, v, f)
		vaReqs, swReqs = a.VCReqs.Take(p*v), a.SwReqs.Take(p*v)
		if pl.spec {
			specAlloc = allocator.CarveSpeculativeSwitch(a, p, v, f)
			specReqs = a.SwReqs.Take(p * v)
		} else {
			swAlloc = allocator.CarveSeparableSwitch(a, p, v, f)
		}
	} else {
		whArb = allocator.CarveWormholeSwitch(a, p, f)
		portReqs, whReleases = a.PortReqs.Take(p), a.Int8s.Take(p)
	}
	if r == nil {
		return nil
	}
	*r = Router{
		id: id, cfg: cfg, policy: tablePolicy(routes), plan: pl,
		in: in, out: out,
		pending: pending[:0], next: next[:0],
		vcAlloc: vcAlloc, swAlloc: swAlloc, specAlloc: specAlloc, whArb: whArb,
		vaReqs: vaReqs[:0], swReqs: swReqs[:0], specReqs: specReqs[:0],
		portReqs: portReqs[:0], whReleases: whReleases[:0],
		vcMaskAll: (uint64(1) << v) - 1,
		// The credit-processing pipeline of depth d (a credit received
		// at t is visible at t+d) is implemented by draining the credit
		// wires d cycles late — identical timing, no extra delay line.
		creditLag: int64(cfg.CreditProcessDelay()),
	}
	if specAlloc != nil {
		specAlloc.PrioritizeNonSpec = cfg.SpecPriority
	}
	// The state Reset writes: every VC idle without an output VC, every
	// credit counter full; the slabs zeroed the rest.
	for i := range vcs {
		vcs[i].fifo.Init(cfg.BufPerVC, slots[i*ring:(i+1)*ring:(i+1)*ring])
		vcs[i].outVC = -1
	}
	for i := 0; i < p; i++ {
		r.in[i].vcs = vcs[i*v : (i+1)*v : (i+1)*v]
		op := &r.out[i]
		op.credits = credits[i*v : (i+1)*v : (i+1)*v]
		op.vcMask = r.vcMaskAll
		op.downBuf = int32(cfg.BufPerVC)
		op.resetCredits()
	}
	r.out[0].ejection = true
	return r
}

// Reset returns the router to its state before the first Step, probes
// removed; what was installed — wires, routing policy, output policies
// — is kept. Each flit the router holds, buffered or ejected but not
// yet collected, is handed to drop (when non-nil).
func (r *Router) Reset(drop func(f flit.Flit)) {
	for p := range r.in {
		ip := &r.in[p]
		for c := range ip.vcs {
			vc := &ip.vcs[c]
			vc.fifo.Reset(drop)
			*vc = inputVC{fifo: vc.fifo, outVC: -1}
		}
		ip.occ = 0
	}
	for o := range r.out {
		r.out[o].resetCredits()
		r.out[o].vcBusy = 0
	}
	r.occPorts = 0
	r.probes = nil
	if drop != nil {
		for _, f := range r.ejected {
			drop(f)
		}
	}
	r.ejected = r.ejected[:0]
	r.flitPushes = 0
	r.pending, r.next, r.whReleases = r.pending[:0], r.next[:0], r.whReleases[:0]
	switch {
	case !r.plan.vcs:
		r.whArb.Reset()
	case r.plan.spec:
		r.vcAlloc.Reset()
		r.specAlloc.Reset()
	default:
		r.vcAlloc.Reset()
		r.swAlloc.Reset()
	}
}

// ID returns the router's node id.
func (r *Router) ID() int { return r.id }

// CreditLag returns the credit-processing pipeline depth in cycles: the
// router pops its credit wires that many cycles late (a credit due at t
// is consumed at t+CreditLag). The sharded engine reads it to widen its
// credit-side lookahead bound to CreditDelay+CreditLag per boundary
// link (see network/shard.go).
func (r *Router) CreditLag() int64 { return r.creditLag }

// Config returns the router's configuration.
func (r *Router) Config() Config { return r.cfg }

// ConnectInput attaches the wires of input port port: flits arrive on
// flitIn; credits for freed buffers are pushed to creditOut.
func (r *Router) ConnectInput(port int, flitIn *link.Wire[flit.Flit], creditOut *link.Wire[Credit]) {
	r.in[port].flitIn = flitIn
	r.in[port].creditOut = creditOut
}

// ConnectOutput attaches the wires of output port port: departing flits
// are pushed to flitOut; returned credits arrive on creditIn.
func (r *Router) ConnectOutput(port int, flitOut *link.Wire[flit.Flit], creditIn *link.Wire[Credit]) {
	r.out[port].flitOut = flitOut
	r.out[port].creditIn = creditIn
}

// ConnectArrivals attaches everything port pops — flits on flitIn (its
// input side), returned credits on creditIn (its output side). With
// ConnectDepartures it is ConnectInput/ConnectOutput cut the other way,
// for a network that creates wires in the order of their consumers.
func (r *Router) ConnectArrivals(port int, flitIn *link.Wire[flit.Flit], creditIn *link.Wire[Credit]) {
	r.in[port].flitIn = flitIn
	r.out[port].creditIn = creditIn
}

// ConnectDepartures attaches everything port pushes: departing flits
// to flitOut, credits for freed buffers to creditOut.
func (r *Router) ConnectDepartures(port int, flitOut *link.Wire[flit.Flit], creditOut *link.Wire[Credit]) {
	r.out[port].flitOut = flitOut
	r.in[port].creditOut = creditOut
}

// SetRoutingPolicy replaces the routing policy — the single
// installation point (see RoutingPolicy and New). A policy that adapts
// (AdaptivePolicy) needs per-VC input state to retry from, so only VC
// router kinds support one; the network layer enforces this. Must be
// set before the first Step.
func (r *Router) SetRoutingPolicy(p RoutingPolicy) {
	r.policy = p
	_, r.readapt = p.(AdaptivePolicy)
}

// RoutingPolicy returns the installed routing policy (for tests).
func (r *Router) RoutingPolicy() RoutingPolicy { return r.policy }

// FreeCreditsMask returns output port out's downstream credits summed
// over the VCs in mask — the deterministic congestion signal adaptive
// policies break ties with.
func (r *Router) FreeCreditsMask(out int, mask uint64) int {
	op := &r.out[out]
	total := 0
	for m := mask & op.vcMask; m != 0; m &= m - 1 {
		total += op.credits[bits.TrailingZeros64(m)]
	}
	return total
}

// vaCandidates builds the VC-allocation candidate mask for an input VC:
// the free VCs of the routed output port (limited to the VCs the
// downstream router actually has), intersected with the routing
// policy's per-head mask.
func (r *Router) vaCandidates(vc *inputVC) uint64 {
	op := &r.out[vc.route]
	return ^op.vcBusy & op.vcMask & vc.cands
}

// SetOutputPolicy sizes output port port's credit state for a
// heterogeneous downstream router: the allocatable VCs become
// min(local VCs, downVCs) and each carries downBufPerVC credits — the
// downstream input buffer it actually drains into. With matching
// parameters this reproduces New's defaults exactly, so uniform
// networks are unaffected. It must be called before the first Step;
// Reset keeps the policy.
func (r *Router) SetOutputPolicy(port, downVCs, downBufPerVC int) {
	if downVCs < 1 || downBufPerVC < 1 {
		panic(fmt.Sprintf("router %d: output %d policy %d VCs × %d buffers; need >= 1", r.id, port, downVCs, downBufPerVC))
	}
	op := &r.out[port]
	eff := downVCs
	if r.cfg.VCs < eff {
		eff = r.cfg.VCs
	}
	op.vcMask = (uint64(1) << eff) - 1
	op.downBuf = int32(downBufPerVC)
	op.resetCredits()
}

// SetProbe installs a buffer-turnaround probe on the directional input
// ports (Figure 16 measurement).
func (r *Router) SetProbe(p *stats.Turnaround) {
	r.probes = make([]vcProbe, r.cfg.Ports*r.cfg.VCs)
	for i := r.cfg.VCs; i < len(r.probes); i++ {
		r.probes[i] = vcProbe{rec: p, popTimes: make([]int64, r.cfg.BufPerVC)}
	}
}

// probe returns input VC (port, c)'s turnaround probe, or nil when it
// has none.
func (r *Router) probe(port, c int) *vcProbe {
	if r.probes == nil {
		return nil
	}
	if pr := &r.probes[port*r.cfg.VCs+c]; pr.rec != nil {
		return pr
	}
	return nil
}

// Credits returns the credit counter of output port out toward
// downstream VC vc (for tests and invariant checks).
func (r *Router) Credits(out, vc int) int { return r.out[out].credits[vc] }

// BufferedFlits returns the occupancy of input (port, vc) (for tests).
func (r *Router) BufferedFlits(port, vc int) int { return r.in[port].vcs[vc].fifo.Len() }

// OutVCBusy reports outvc_state for (out, vc) (for tests).
func (r *Router) OutVCBusy(out, vc int) bool { return r.out[out].vcBusy&(1<<vc) != 0 }

// Ejected returns the flits that left through the local port since the
// last ClearEjected, in ejection order.
func (r *Router) Ejected() []flit.Flit { return r.ejected }

// ClearEjected resets the ejection buffer (keeping its capacity).
func (r *Router) ClearEjected() { r.ejected = r.ejected[:0] }

// TakeFlitPushes returns and clears the bitmask of output ports this
// router pushed flits on since the last call. It must be called from
// the serial section of the network step (it mutates router state).
func (r *Router) TakeFlitPushes() uint64 {
	m := r.flitPushes
	r.flitPushes = 0
	return m
}

// markOcc flags input VC (port, c) as needing allocation attention.
func (r *Router) markOcc(port, c int) {
	r.in[port].occ |= 1 << c
	r.occPorts |= 1 << port
}

// syncOcc re-evaluates the occupancy bit of input VC (port, c) after a
// pop or state change: the bit clears only when the VC is idle with an
// empty FIFO.
func (r *Router) syncOcc(port, c int) {
	vc := &r.in[port].vcs[c]
	if vc.state == vcIdle && vc.fifo.Empty() {
		ip := &r.in[port]
		ip.occ &^= 1 << c
		if ip.occ == 0 {
			r.occPorts &^= 1 << port
		}
	}
}

// ComputeIdle reports whether the Compute phase would be a no-op: no
// occupied input VCs and no latched grants. Unlike Idle it reads only
// router-local state, so it is safe to call while other routers are
// concurrently pushing onto this router's input wires.
func (r *Router) ComputeIdle() bool {
	return r.occPorts == 0 && len(r.pending) == 0 && len(r.next) == 0
}

// Idle reports whether stepping the router this cycle would be a no-op:
// no buffered or in-flight flits, no non-idle VC state, no latched
// grants, and no credits in flight. The network uses it to skip quiet
// routers entirely at low load.
func (r *Router) Idle() bool {
	if !r.ComputeIdle() {
		return false
	}
	for port := range r.in {
		if w := r.in[port].flitIn; w != nil && w.Len() > 0 {
			return false
		}
	}
	for o := range r.out {
		op := &r.out[o]
		if op.creditIn != nil && op.creditIn.Len() > 0 {
			return false
		}
	}
	return true
}

// NextArrival returns the earliest due cycle over the router's input
// flit wires, or link.NeverDue when none carries anything — the
// scheduler's quiescence invariant checks use it (a network claiming
// quiescence must have no deliverable flit anywhere).
func (r *Router) NextArrival() int64 {
	min := link.NeverDue
	for port := range r.in {
		if w := r.in[port].flitIn; w != nil {
			if d := w.NextDue(); d < min {
				min = d
			}
		}
	}
	return min
}

// Step advances the router one cycle: deliver arrivals, execute latched
// switch traversals, then run routing and allocation. All inter-router
// communication crosses wires with >= 1 cycle delay, so routers may step
// in any order within a cycle — or concurrently, split into the Deliver
// and Compute phases (see the network's parallel stepper).
func (r *Router) Step(now int64) {
	r.Deliver(now)
	r.Compute(now)
}

// Deliver pops arriving flits into input FIFOs and moves credits through
// the credit-processing pipeline into the counters. It only consumes
// from the router's input wires and touches router-local state, so all
// routers' Deliver phases may run concurrently.
func (r *Router) Deliver(now int64) {
	for port := range r.in {
		ip := &r.in[port]
		if ip.flitIn == nil {
			continue
		}
		for f, ok := ip.flitIn.Pop(now); ok; f, ok = ip.flitIn.Pop(now) {
			r.enqueue(port, f, now)
		}
	}
	lagged := now - r.creditLag
	for o := range r.out {
		op := &r.out[o]
		if op.creditIn == nil {
			continue
		}
		for c, ok := op.creditIn.Pop(lagged); ok; c, ok = op.creditIn.Pop(lagged) {
			op.credits[c.VC]++
		}
	}
}

func (r *Router) enqueue(port int, f flit.Flit, now int64) {
	if int(f.VC) >= len(r.in[port].vcs) {
		panic(fmt.Sprintf("router %d: flit arrived on VC %d of port %d (only %d VCs)",
			r.id, f.VC, port, len(r.in[port].vcs)))
	}
	vc := &r.in[port].vcs[f.VC]
	f.EnqueuedAt = now
	if pr := r.probe(port, int(f.VC)); pr != nil {
		b := int64(len(pr.popTimes))
		if pr.pushCount >= b {
			pr.rec.Record(now - pr.popTimes[pr.pushCount%b])
		}
		pr.pushCount++
	}
	if err := vc.fifo.Push(f); err != nil {
		panic(fmt.Sprintf("router %d: input %d vc %d: %v", r.id, port, f.VC, err))
	}
	r.markOcc(port, int(f.VC))
}

// send reads the head-of-queue flit of (in, vcIdx), rewrites its vcid to
// the allocated output VC, forwards it (wire or ejection), returns a
// credit upstream, and handles tail bookkeeping on the input side.
func (r *Router) send(in, vcIdx int, now int64) {
	vc := &r.in[in].vcs[vcIdx]
	f, ok := vc.fifo.Pop()
	if !ok {
		panic(fmt.Sprintf("router %d: switch traversal from empty input %d vc %d", r.id, in, vcIdx))
	}
	if pr := r.probe(in, vcIdx); pr != nil {
		pr.popTimes[pr.popCount%int64(len(pr.popTimes))] = now
		pr.popCount++
	}
	out := vc.route
	f.VC = vc.outVC
	if op := &r.out[out]; op.ejection {
		f.Pkt.Ejected++
		r.ejected = append(r.ejected, f)
	} else {
		op.flitOut.Push(now, f)
		r.flitPushes |= 1 << uint(out)
	}
	if co := r.in[in].creditOut; co != nil {
		co.Push(now, Credit{VC: int8(vcIdx)})
	}
	if f.Kind.IsTail() {
		vc.state = vcIdle
		vc.outVC = -1
		vc.readyAt = now
		if !r.plan.vcs {
			// A held output port is freed only "when the tail flit
			// departs the input queue" (Section 3.1). The release
			// updates the arbiter's status flip-flop at the end of the
			// cycle (see Compute).
			r.whReleases = append(r.whReleases, out)
		}
	}
	r.syncOcc(in, vcIdx)
}

// routeHead performs the routing/decode stage for one idle input VC if
// its head-of-queue flit is a head flit buffered before this cycle.
func (r *Router) routeHead(vc *inputVC, now int64) {
	hoq := vc.fifo.Peek()
	if hoq == nil || !hoq.Kind.IsHead() || hoq.EnqueuedAt >= now || vc.readyAt > now {
		return
	}
	r.route(vc, hoq.Pkt, 0)
	vc.attempts = 0
	vc.state = vcWaitVC
	vc.readyAt = now + r.plan.rcva
}

// repick re-invokes an adaptive routing policy for a head still waiting
// on VC allocation, letting it adapt to the credit and busy state of
// this cycle (and alternate toward its escape class). A no-op for
// deterministic policies.
func (r *Router) repick(vc *inputVC) {
	if !r.readapt {
		return
	}
	if hoq := vc.fifo.Peek(); hoq != nil {
		r.route(vc, hoq.Pkt, int(vc.attempts))
		vc.attempts++
	}
}

// route records the routing policy's choice for vc's head packet.
func (r *Router) route(vc *inputVC, p *flit.Packet, attempt int) {
	port, cands := r.policy.Route(r, p, attempt)
	vc.route, vc.cands = int8(port), cands
}

// hoqEligible returns the head-of-queue flit if it may traverse the
// switch no earlier than next cycle (it was buffered before this cycle).
func (vc *inputVC) hoqEligible(now int64) *flit.Flit {
	hoq := vc.fifo.Peek()
	if hoq == nil || hoq.EnqueuedAt >= now {
		return nil
	}
	return hoq
}

// grantSwitch consumes a credit (unless ejecting) and — when the
// granted flit is the packet's tail — releases the output VC at grant
// time, as the paper specifies ("once it is granted crossbar passage, it
// informs the virtual-channel allocator to release the reserved output
// VC"). The crossbar traversal is latched for next cycle, or happens now
// when the plan has no register after switch allocation.
func (r *Router) grantSwitch(in, vcIdx int, now int64) {
	vc := &r.in[in].vcs[vcIdx]
	op := &r.out[vc.route]
	if !op.ejection {
		op.credits[vc.outVC]--
		if op.credits[vc.outVC] < 0 {
			panic(fmt.Sprintf("router %d: negative credits at out %d vc %d", r.id, vc.route, vc.outVC))
		}
	}
	if hoq := vc.fifo.Peek(); hoq != nil && hoq.Kind.IsTail() {
		// Release the output VC at grant time so next cycle's VC
		// allocation can hand it to another packet; the input-side
		// release happens when the tail actually traverses (send).
		op.vcBusy &^= 1 << vc.outVC
	}
	if r.plan.sast == 0 {
		r.send(in, vcIdx, now)
	} else {
		r.next = append(r.next, stGrant{in: int8(in), vc: int8(vcIdx)})
	}
	// Block further allocation actions for this VC until the traversal
	// completes; body flits re-arm via vcActive state next cycle.
	vc.readyAt = now + r.plan.sast
}
