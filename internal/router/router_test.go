package router

import (
	"strings"
	"testing"
	"unsafe"

	"routersim/internal/flit"
	"routersim/internal/link"
)

// rig wires a single router with controllable inputs and observable
// outputs: flits pushed on the local input port, departures observed on
// the east output wire, all other ports unconnected (as at a mesh
// corner).
type rig struct {
	r        *Router
	in       *link.Wire[flit.Flit]
	inCred   *link.Wire[Credit]
	out      *link.Wire[flit.Flit]
	outCred  *link.Wire[Credit]
	arrivals []arrival
	ejected  []arrival
	now      int64
}

type arrival struct {
	f  flit.Flit
	at int64
}

// newRig builds a router whose routing table sends every packet to
// output port 1 (east), except packets destined to node 0, which eject.
func newRig(cfg Config) *rig {
	g := &rig{
		in:      link.NewWire[flit.Flit](1),
		inCred:  link.NewWire[Credit](1),
		out:     link.NewWire[flit.Flit](1),
		outCred: link.NewWire[Credit](1),
	}
	routes := make([]uint8, 128) // rig destinations are < 128
	for dst := range routes {
		if dst != 0 {
			routes[dst] = 1
		}
	}
	g.r = New(7, cfg, routes)
	g.r.ConnectInput(0, g.in, g.inCred)
	g.r.ConnectOutput(1, g.out, g.outCred)
	return g
}

// step advances one cycle, draining the output wire and the router's
// ejection buffer.
func (g *rig) step() {
	g.r.Step(g.now)
	for _, f := range g.r.Ejected() {
		g.ejected = append(g.ejected, arrival{f, g.now})
	}
	g.r.ClearEjected()
	for f, ok := g.out.Pop(g.now); ok; f, ok = g.out.Pop(g.now) {
		g.arrivals = append(g.arrivals, arrival{f, g.now})
	}
	g.now++
}

// inject pushes the packet's flits one per cycle starting now.
func (g *rig) packet(size int, dst int) *flit.Packet {
	return &flit.Packet{ID: 1, Src: 7, Dst: dst, Size: size, CreatedAt: g.now}
}

func (g *rig) run(cycles int) {
	for i := 0; i < cycles; i++ {
		g.step()
	}
}

func pushAll(g *rig, p *flit.Packet, startAt int64) {
	fl := flit.NewPacketFlits(p)
	for i, f := range fl {
		f.VC = 0
		g.in.Push(startAt+int64(i), f)
	}
}

// TestWormholeHeadTiming: head buffered at cycle 1 must appear on the
// output wire at cycle 5: routing at 2, switch arbitration at 3, switch
// traversal at 4, one cycle of link propagation — the 3-stage pipeline
// plus the wire.
func TestWormholeHeadTiming(t *testing.T) {
	g := newRig(DefaultConfig(Wormhole))
	pushAll(g, g.packet(5, 99), 0) // pushed at 0 → buffered at 1
	g.run(20)
	if len(g.arrivals) != 5 {
		t.Fatalf("%d flits delivered, want 5", len(g.arrivals))
	}
	if g.arrivals[0].at != 5 {
		t.Errorf("head delivered at cycle %d, want 5 (3-stage pipeline)", g.arrivals[0].at)
	}
	// Body flits stream one per cycle behind the head.
	for i := 1; i < 5; i++ {
		if g.arrivals[i].at != g.arrivals[i-1].at+1 {
			t.Errorf("flit %d delivered at %d, want %d", i, g.arrivals[i].at, g.arrivals[i-1].at+1)
		}
	}
}

// TestVCHeadTiming: the 4-stage VC router delivers the head one cycle
// later than wormhole (VC allocation stage).
func TestVCHeadTiming(t *testing.T) {
	cfg := DefaultConfig(VirtualChannel)
	cfg.BufPerVC = 8 // the rig pushes blind; size for 5 in-flight flits
	g := newRig(cfg)
	pushAll(g, g.packet(5, 99), 0)
	g.run(20)
	if len(g.arrivals) != 5 {
		t.Fatalf("%d flits delivered, want 5", len(g.arrivals))
	}
	if g.arrivals[0].at != 6 {
		t.Errorf("head delivered at cycle %d, want 6 (4-stage pipeline)", g.arrivals[0].at)
	}
}

// TestSpecHeadTiming: the speculative router collapses VC and switch
// allocation into one stage, restoring wormhole's timing.
func TestSpecHeadTiming(t *testing.T) {
	cfg := DefaultConfig(SpeculativeVC)
	cfg.BufPerVC = 8
	g := newRig(cfg)
	pushAll(g, g.packet(5, 99), 0)
	g.run(20)
	if len(g.arrivals) != 5 {
		t.Fatalf("%d flits delivered, want 5", len(g.arrivals))
	}
	if g.arrivals[0].at != 5 {
		t.Errorf("head delivered at cycle %d, want 5 (3-stage speculative pipeline)", g.arrivals[0].at)
	}
}

// TestSingleCycleTiming: the unit-latency router forwards a flit the
// cycle after it is buffered.
func TestSingleCycleTiming(t *testing.T) {
	for _, kind := range []Kind{SingleCycleWormhole, SingleCycleVC} {
		cfg := DefaultConfig(kind)
		cfg.BufPerVC = 8 // credits for all five blind-pushed flits
		g := newRig(cfg)
		pushAll(g, g.packet(5, 99), 0)
		g.run(20)
		if len(g.arrivals) != 5 {
			t.Fatalf("%v: %d flits delivered, want 5", kind, len(g.arrivals))
		}
		if g.arrivals[0].at != 3 {
			t.Errorf("%v: head delivered at %d, want 3 (1 router cycle + wire)", kind, g.arrivals[0].at)
		}
	}
}

// TestHeadLatencyIsPlanDepth: on every kind, the cycles a head spends in
// the router are the depth derived from the kind's stage plan — nothing
// else states 3/4/3/1/1. A head buffered at cycle 1 enters its first
// stage at cycle 2, traverses the crossbar in its last, and spends one
// more cycle on the wire.
func TestHeadLatencyIsPlanDepth(t *testing.T) {
	want := map[Kind]int{Wormhole: 3, VirtualChannel: 4, SpeculativeVC: 3, SingleCycleWormhole: 1, SingleCycleVC: 1}
	for _, kind := range Kinds() {
		if kind.Stages() != want[kind] {
			t.Errorf("%v: plan derives %d stages, want %d", kind, kind.Stages(), want[kind])
		}
		g := newRig(DefaultConfig(kind))
		pushAll(g, g.packet(1, 99), 0)
		g.run(12)
		if len(g.arrivals) != 1 {
			t.Fatalf("%v: %d flits delivered, want 1", kind, len(g.arrivals))
		}
		if got := int(g.arrivals[0].at) - 2; got != kind.Stages() {
			t.Errorf("%v: head spent %d cycles in the router, plan depth is %d", kind, got, kind.Stages())
		}
	}
}

// TestNoDepartureWithoutCredit: on every kind, an output whose
// downstream buffers are full passes nothing and its credit counters
// stay at zero; one returned credit lets exactly one flit go. Granting a
// passage with no credit is a state-machine bug, and panics.
func TestNoDepartureWithoutCredit(t *testing.T) {
	for _, kind := range Kinds() {
		cfg := DefaultConfig(kind)
		g := newRig(cfg)
		for c := range g.r.out[1].credits {
			g.r.out[1].credits[c] = 0
		}
		pushAll(g, g.packet(3, 99), 0)
		g.run(12)
		if len(g.arrivals) != 0 || g.r.BufferedFlits(0, 0) != 3 {
			t.Fatalf("%v: %d flits departed with no credits, %d still buffered", kind, len(g.arrivals), g.r.BufferedFlits(0, 0))
		}
		for c := 0; c < cfg.VCs; c++ {
			if got := g.r.Credits(1, c); got != 0 {
				t.Errorf("%v: credit counter of VC %d is %d, want 0", kind, c, got)
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v: granting a passage without a credit did not panic", kind)
				}
			}()
			g.r.grantSwitch(0, 0, g.now)
		}()
		vc := g.r.in[0].vcs[0].outVC
		g.r.out[1].credits[vc] = 0 // undo the underflow the forced grant left
		g.outCred.Push(g.now, Credit{VC: vc})
		g.run(8)
		if len(g.arrivals) != 1 || g.r.Credits(1, int(vc)) != 0 {
			t.Errorf("%v: %d flits departed on one returned credit (counter now %d), want 1 and 0",
				kind, len(g.arrivals), g.r.Credits(1, int(vc)))
		}
	}
}

// TestVCIDRewrittenOnDeparture: the switch-traversal stage must update
// the flit's vcid field to the allocated output VC (Section 3.1).
func TestVCIDRewrittenOnDeparture(t *testing.T) {
	cfg := DefaultConfig(VirtualChannel)
	cfg.BufPerVC = 8
	g := newRig(cfg)
	pushAll(g, g.packet(5, 99), 0)
	g.run(20)
	for _, a := range g.arrivals {
		if a.f.VC < 0 || int(a.f.VC) >= cfg.VCs {
			t.Fatalf("departing flit carries vcid %d outside [0,%d)", a.f.VC, cfg.VCs)
		}
	}
}

// TestEjection: packets routed to the local port leave through the
// eject callback with Ejected counts maintained.
func TestEjection(t *testing.T) {
	g := newRig(DefaultConfig(SpeculativeVC)) // ejection needs no credits
	p := g.packet(5, 0)                       // dst 0 → local port
	pushAll(g, p, 0)
	doneAt := int64(-1) // the cycle the packet became done
	for range 20 {
		g.step()
		if doneAt < 0 && p.Done() {
			doneAt = g.now - 1
		}
	}
	if len(g.ejected) != 5 {
		t.Fatalf("%d flits ejected, want 5", len(g.ejected))
	}
	if doneAt != g.ejected[4].at {
		t.Errorf("packet done at cycle %d, want its last ejection's %d", doneAt, g.ejected[4].at)
	}
	if l := p.Latency(doneAt); l != doneAt { // created at cycle 0
		t.Errorf("Latency(%d) = %d, want %d", doneAt, l, doneAt)
	}
}

// TestTailReleasesOutputVC: after the tail departs, the allocated output
// VC must be free for the next packet.
func TestTailReleasesOutputVC(t *testing.T) {
	cfg := DefaultConfig(VirtualChannel)
	cfg.BufPerVC = 8
	g := newRig(cfg)
	pushAll(g, g.packet(3, 99), 0)
	g.run(20)
	for w := 0; w < 2; w++ {
		if g.r.OutVCBusy(1, w) {
			t.Errorf("output VC %d still busy after tail departed", w)
		}
	}
	// Input VC returns to idle.
	if st := g.r.in[0].vcs[0].state; st != vcIdle {
		t.Errorf("input VC state %v after packet, want idle", st)
	}
}

// TestCreditsDecrementAndRecover: credits are consumed as flits are
// granted and restored when the downstream returns them.
func TestCreditsDecrementAndRecover(t *testing.T) {
	cfg := DefaultConfig(SpeculativeVC) // 2 VCs × 4 buffers
	g := newRig(cfg)
	pushAll(g, g.packet(3, 99), 0)
	g.run(20)
	// All 3 flits departed on some VC; its credits must show 4-3=1.
	vcUsed := int(g.arrivals[0].f.VC)
	if got := g.r.Credits(1, vcUsed); got != cfg.BufPerVC-3 {
		t.Fatalf("credits after 3 departures = %d, want %d", got, cfg.BufPerVC-3)
	}
	// Downstream returns the credits.
	for i := 0; i < 3; i++ {
		g.outCred.Push(g.now, Credit{VC: int8(vcUsed)})
		g.step()
	}
	g.run(6) // credit propagation + processing pipeline
	if got := g.r.Credits(1, vcUsed); got != cfg.BufPerVC {
		t.Fatalf("credits after returns = %d, want %d", got, cfg.BufPerVC)
	}
}

// TestBackpressureStopsFlow: with zero credits remaining, flits must not
// depart until credits return. Pushes are paced so the rig never
// overruns the 2-slot input FIFO (the upstream source would be paced by
// its own credits the same way).
func TestBackpressureStopsFlow(t *testing.T) {
	cfg := DefaultConfig(SpeculativeVC)
	cfg.VCs = 1
	cfg.BufPerVC = 2
	g := newRig(cfg)
	p := g.packet(4, 99)
	fl := flit.NewPacketFlits(p)
	g.in.Push(0, fl[0])
	g.in.Push(1, fl[1])
	g.run(10) // both depart, consuming the 2 downstream credits
	g.in.Push(g.now, fl[2])
	g.in.Push(g.now+1, fl[3])
	g.run(15)
	if len(g.arrivals) != 2 {
		t.Fatalf("%d flits departed with 2 credits and no returns, want 2", len(g.arrivals))
	}
	// Return one credit: exactly one more flit departs.
	g.outCred.Push(g.now, Credit{VC: 0})
	g.run(10)
	if len(g.arrivals) != 3 {
		t.Fatalf("%d flits after one credit return, want 3", len(g.arrivals))
	}
}

// TestWormholePortHeldAgainstSecondPacket: while one packet holds an
// output port, another input's packet for the same port must wait until
// the tail departs.
func TestWormholePortHeldAgainstSecondPacket(t *testing.T) {
	cfg := DefaultConfig(Wormhole)
	cfg.BufPerVC = 16 // credits for both packets without returns
	g := newRig(cfg)
	// Second input port (west = 2) also routes to east; wire it up.
	in2 := link.NewWire[flit.Flit](1)
	cred2 := link.NewWire[Credit](1)
	g.r.ConnectInput(2, in2, cred2)

	p1 := g.packet(5, 99)
	pushAll(g, p1, 0)
	p2 := &flit.Packet{ID: 2, Src: 5, Dst: 99, Size: 5}
	fl2 := flit.NewPacketFlits(p2)
	for i, f := range fl2 {
		in2.Push(int64(i), f)
	}
	g.run(30)
	if len(g.arrivals) != 10 {
		t.Fatalf("%d flits delivered, want 10", len(g.arrivals))
	}
	// No interleaving: one packet's 5 flits fully precede the other's.
	first := g.arrivals[0].f.Pkt.ID
	for i := 0; i < 5; i++ {
		if g.arrivals[i].f.Pkt.ID != first {
			t.Fatalf("wormhole interleaved packets at position %d", i)
		}
	}
	// The second packet's head waits for the tail plus re-arbitration:
	// strictly after the first tail.
	if !(g.arrivals[5].at > g.arrivals[4].at) {
		t.Errorf("second head at %d not after first tail at %d", g.arrivals[5].at, g.arrivals[4].at)
	}
}

// TestVCRoutersInterleaveFlits: with two VCs, flits of two packets can
// interleave on the physical channel — the core benefit of VC flow
// control over wormhole.
func TestVCRoutersInterleaveFlits(t *testing.T) {
	cfg := DefaultConfig(VirtualChannel)
	cfg.BufPerVC = 8
	g := newRig(cfg)
	in2 := link.NewWire[flit.Flit](1)
	cred2 := link.NewWire[Credit](1)
	g.r.ConnectInput(2, in2, cred2)

	p1 := g.packet(5, 99)
	pushAll(g, p1, 0)
	p2 := &flit.Packet{ID: 2, Src: 5, Dst: 99, Size: 5}
	for i, f := range flit.NewPacketFlits(p2) {
		f.VC = 0
		in2.Push(int64(i), f)
	}
	g.run(30)
	if len(g.arrivals) != 10 {
		t.Fatalf("%d flits delivered, want 10", len(g.arrivals))
	}
	// Both packets should make progress concurrently: the first five
	// deliveries must not all belong to one packet.
	first := g.arrivals[0].f.Pkt.ID
	interleaved := false
	for i := 1; i < 5; i++ {
		if g.arrivals[i].f.Pkt.ID != first {
			interleaved = true
		}
	}
	if !interleaved {
		t.Error("VC router did not interleave two packets on the channel")
	}
}

// TestSpeculationWastedPassageHarmless: two heads arrive together and
// compete for the only free output VC; the speculation loser must not
// lose flits or credits, and both packets are delivered.
func TestSpeculationWastedPassageHarmless(t *testing.T) {
	cfg := DefaultConfig(SpeculativeVC)
	cfg.VCs = 1 // one VC → only one packet can win VC allocation
	cfg.BufPerVC = 8
	g := newRig(cfg)
	in2 := link.NewWire[flit.Flit](1)
	cred2 := link.NewWire[Credit](1)
	g.r.ConnectInput(2, in2, cred2)

	p1 := g.packet(3, 99)
	pushAll(g, p1, 0)
	p2 := &flit.Packet{ID: 2, Src: 5, Dst: 99, Size: 3}
	for i, f := range flit.NewPacketFlits(p2) {
		in2.Push(int64(i), f)
	}
	// Return credits for everything so the stream never stalls.
	for c := int64(0); c < 40; c++ {
		g.outCred.Push(c, Credit{VC: 0})
	}
	g.run(40)
	if len(g.arrivals) != 6 {
		t.Fatalf("%d flits delivered, want 6 (both packets)", len(g.arrivals))
	}
	// Strict per-packet flit ordering must hold.
	seq := map[int64]int{}
	for _, a := range g.arrivals {
		if int(a.f.Seq) != seq[a.f.Pkt.ID] {
			t.Fatalf("packet %d flit out of order: got seq %d, want %d", a.f.Pkt.ID, a.f.Seq, seq[a.f.Pkt.ID])
		}
		seq[a.f.Pkt.ID]++
	}
}

// TestConfigValidation exercises the error paths.
func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Kind: Wormhole, Ports: 1, VCs: 1, BufPerVC: 4},
		{Kind: Wormhole, Ports: 5, VCs: 2, BufPerVC: 4}, // WH needs 1 VC
		{Kind: VirtualChannel, Ports: 5, VCs: 0, BufPerVC: 4},
		{Kind: VirtualChannel, Ports: 5, VCs: 2, BufPerVC: 0},
		{Kind: VirtualChannel, Ports: 5, VCs: 2, BufPerVC: MaxBufPerVC + 1},
		{Kind: Wormhole, Ports: 5, VCs: 1, BufPerVC: 2000000000},
		{Kind: VirtualChannel, Ports: 5, VCs: 2, BufPerVC: 4, CreditProcess: -2},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v validated but should not", cfg)
		}
	}
}

// TestRecordSizes pins the per-VC record at one cache line and the
// latched grant at two bytes: the Figure 16 probe lives out of line,
// and port and VC indices (< 64) are int8.
func TestRecordSizes(t *testing.T) {
	if sz := unsafe.Sizeof(inputVC{}); sz != 64 {
		t.Errorf("inputVC is %d bytes, want 64", sz)
	}
	if sz := unsafe.Sizeof(stGrant{}); sz != 2 {
		t.Errorf("stGrant is %d bytes, want 2", sz)
	}
}

// TestConfigBoundsBufPerVC: the deepest buffer Validate admits builds
// a router; one deeper is an error naming the field, not an attempt to
// allocate the rings.
func TestConfigBoundsBufPerVC(t *testing.T) {
	cfg := DefaultConfig(SpeculativeVC)
	cfg.BufPerVC = MaxBufPerVC
	New(0, cfg, make([]uint8, 1))
	cfg.BufPerVC++
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "BufPerVC") {
		t.Errorf("BufPerVC %d: Validate = %v, want an error naming BufPerVC", cfg.BufPerVC, err)
	}
}

// TestConfigRejectsTooManyInputVCs: the VC allocator's output-VC
// arbiters take one request bit per input VC, so Ports×VCs > 64 must be
// an error from Validate (naming both numbers), not a panic from inside
// the arbiter constructor.
func TestConfigRejectsTooManyInputVCs(t *testing.T) {
	for _, kind := range []Kind{VirtualChannel, SpeculativeVC, SingleCycleVC} {
		cfg := Config{Kind: kind, Ports: 5, VCs: 13, BufPerVC: 4}
		err := cfg.Validate()
		if err == nil {
			t.Fatalf("%v: 5 ports × 13 VCs validated", kind)
		}
		for _, want := range []string{"5 ports", "13 VCs", "64"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%v: error %q does not mention %q", kind, err, want)
			}
		}
		cfg.VCs = 12 // 60 input VCs: the largest 5-port router that fits
		if err := cfg.Validate(); err != nil {
			t.Errorf("%v: 5 ports × 12 VCs rejected: %v", kind, err)
		}
		New(0, cfg, make([]uint8, 1))
	}
}

func TestCreditProcessDelayDefaults(t *testing.T) {
	cases := []struct {
		kind Kind
		want int
	}{
		{Wormhole, 1}, {VirtualChannel, 2}, {SpeculativeVC, 1},
		{SingleCycleWormhole, 0}, {SingleCycleVC, 0},
	}
	for _, c := range cases {
		if got := DefaultConfig(c.kind).CreditProcessDelay(); got != c.want {
			t.Errorf("%v: credit process delay %d, want %d", c.kind, got, c.want)
		}
	}
	cfg := DefaultConfig(VirtualChannel)
	cfg.CreditProcess = 3
	if cfg.CreditProcessDelay() != 3 {
		t.Error("explicit credit process delay not honored")
	}
}

func TestKindStrings(t *testing.T) {
	for _, k := range []Kind{Wormhole, VirtualChannel, SpeculativeVC, SingleCycleWormhole, SingleCycleVC} {
		if k.String() == "" {
			t.Errorf("empty name for kind %d", k)
		}
		if k.Stages() < 1 {
			t.Errorf("%v: %d stages", k, k.Stages())
		}
		if got, ok := ParseKind(k.String()); !ok || got != k {
			t.Errorf("%v does not parse back to itself", k)
		}
	}
}

// TestTablePolicyDrainsUnroutable pins the rule the built-in table
// policy owns: a destination marked Unroutable is not forwarded — the
// packet drains through the local port with Dropped set, on every
// router kind.
func TestTablePolicyDrainsUnroutable(t *testing.T) {
	for _, kind := range []Kind{Wormhole, VirtualChannel, SpeculativeVC} {
		cfg := DefaultConfig(kind)
		cfg.BufPerVC = 8
		g := newRig(cfg)
		routes := make([]uint8, 128)
		routes[99] = Unroutable
		g.r.SetRoutingPolicy(tablePolicy(routes))
		p := g.packet(3, 99)
		pushAll(g, p, 0)
		g.run(20)
		if len(g.arrivals) != 0 || len(g.ejected) != 3 || !p.Dropped {
			t.Errorf("%v: %d flits forwarded, %d ejected, dropped=%v; want 0, 3, true",
				kind, len(g.arrivals), len(g.ejected), p.Dropped)
		}
	}
}

// routeLog is a routing policy that records the cycle of every Route
// call, sending every packet east.
type routeLog struct {
	g  *rig
	at []int64
}

func (l *routeLog) Route(*Router, *flit.Packet, int) (int, uint64) {
	l.at = append(l.at, l.g.now)
	return 1, ^uint64(0)
}

// TestNotAllocatedInArrivalCycle: on every kind, a flit buffered at
// cycle t takes no pipeline action before t+1. A head is routed at t+1;
// a body arriving into its empty, active VC bids for the switch at t+1;
// and so does a tail arriving in the cycle the flit ahead of it leaves
// the VC, when it is at once the head of the queue and its only flit.
func TestNotAllocatedInArrivalCycle(t *testing.T) {
	for _, kind := range Kinds() {
		cfg := DefaultConfig(kind)
		cfg.BufPerVC = 4
		g := newRig(cfg)
		log := &routeLog{g: g}
		g.r.SetRoutingPolicy(log)
		sast := kinds[kind].sast
		fl := flit.NewPacketFlits(g.packet(3, 99))
		// Head pushed at 0 is buffered at 1; the body, pushed at 10, is
		// buffered at 11 into the emptied VC and leaves at 12+sast; the
		// tail is buffered in that cycle.
		g.in.Push(0, fl[0])
		g.in.Push(10, fl[1])
		g.in.Push(11+sast, fl[2])
		g.run(30)
		if len(log.at) != 1 || log.at[0] != 2 {
			t.Errorf("%v: head buffered at 1 routed at %v, want [2]", kind, log.at)
		}
		if len(g.arrivals) != 3 {
			t.Fatalf("%v: %d flits delivered, want 3", kind, len(g.arrivals))
		}
		// A flit that bids at cycle b traverses at b+sast and is on the
		// far end of the wire a cycle later.
		if got, want := g.arrivals[1].at, 12+sast+1; got != want {
			t.Errorf("%v: body buffered at 11 delivered at %d, want %d (switch bid at 12)", kind, got, want)
		}
		if got, want := g.arrivals[2].at, 12+sast+1+sast+1; got != want {
			t.Errorf("%v: tail buffered at %d delivered at %d, want %d (switch bid at %d)", kind, 12+sast, got, want, 13+sast)
		}
	}
}
