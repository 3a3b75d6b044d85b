package main

import (
	"time"

	"routersim/internal/flit"
	"routersim/internal/link"
	"routersim/internal/router"
)

// testbench wraps one five-port router in mock neighbours: an upstream
// on every input port that offers a flit each cycle it holds a credit,
// and a downstream on every output port that takes each flit as it
// arrives and sends its credit straight back, so the credit comes home
// after the credit wire's delay. Node d of the bench's address space is
// reached through output port d; port 0 ejects.
type testbench struct {
	r        *router.Router
	in       []*link.Wire[flit.Flit]     // mock upstream → router
	inCred   []*link.Wire[router.Credit] // router → mock upstream
	out      []*link.Wire[flit.Flit]     // router → mock downstream (nil at port 0)
	outCred  []*link.Wire[router.Credit] // mock downstream → router
	upstream [][]upstreamVC              // [port][vc]
	nextVC   []int                       // round-robin pointer per input port
	nextID   int64
	now      int64
	flitsOut int64 // flits that left the router, forwarded or ejected
}

// upstreamVC is the sender's state for one virtual channel of one link:
// the credits it holds and the rest of the packet it is sending.
type upstreamVC struct {
	credits int
	pending []flit.Flit
}

const benchPorts = 5

func newTestbench(kind router.Kind) *testbench {
	cfg := router.DefaultConfig(kind)
	routes := make([]uint8, benchPorts)
	for d := range routes {
		routes[d] = uint8(d)
	}
	tb := &testbench{
		r:        router.New(0, cfg, routes),
		in:       make([]*link.Wire[flit.Flit], benchPorts),
		inCred:   make([]*link.Wire[router.Credit], benchPorts),
		out:      make([]*link.Wire[flit.Flit], benchPorts),
		outCred:  make([]*link.Wire[router.Credit], benchPorts),
		upstream: make([][]upstreamVC, benchPorts),
		nextVC:   make([]int, benchPorts),
	}
	for p := 0; p < benchPorts; p++ {
		tb.in[p] = link.NewWire[flit.Flit](1)
		tb.inCred[p] = link.NewWireCap[router.Credit](1, cfg.VCs*cfg.BufPerVC+1)
		tb.r.ConnectInput(p, tb.in[p], tb.inCred[p])
		tb.upstream[p] = make([]upstreamVC, cfg.VCs)
		for c := range tb.upstream[p] {
			tb.upstream[p][c].credits = cfg.BufPerVC
		}
		if p > 0 {
			tb.out[p] = link.NewWire[flit.Flit](1)
			tb.outCred[p] = link.NewWireCap[router.Credit](1, cfg.VCs*cfg.BufPerVC+1)
			tb.r.ConnectOutput(p, tb.out[p], tb.outCred[p])
		}
	}
	return tb
}

// offer is the upstream side of one cycle: on each input port, the next
// virtual channel in turn that holds a credit sends one flit, starting a
// new five-flit packet when its last one is finished. Destinations
// rotate over the four other ports, so every output is contended.
func (tb *testbench) offer() {
	vcs := len(tb.upstream[0])
	for p := 0; p < benchPorts; p++ {
		for k := 0; k < vcs; k++ {
			c := (tb.nextVC[p] + k) % vcs
			u := &tb.upstream[p][c]
			if u.credits == 0 {
				continue
			}
			if len(u.pending) == 0 {
				tb.nextID++
				dst := (p + 1 + int(tb.nextID)%(benchPorts-1)) % benchPorts
				u.pending = flit.AppendPacketFlits(u.pending[:0], &flit.Packet{ID: tb.nextID, Src: p, Dst: dst, Size: 5, CreatedAt: tb.now})
			}
			f := u.pending[0]
			u.pending = u.pending[1:]
			f.VC = int8(c)
			tb.in[p].Push(tb.now, f)
			u.credits--
			tb.nextVC[p] = (c + 1) % vcs
			break
		}
	}
}

// collect is the neighbours' receiving side of one cycle.
func (tb *testbench) collect() {
	for p := 0; p < benchPorts; p++ {
		for c, ok := tb.inCred[p].Pop(tb.now); ok; c, ok = tb.inCred[p].Pop(tb.now) {
			tb.upstream[p][c.VC].credits++
		}
		if tb.out[p] == nil {
			continue
		}
		for f, ok := tb.out[p].Pop(tb.now); ok; f, ok = tb.out[p].Pop(tb.now) {
			tb.outCred[p].Push(tb.now, router.Credit{VC: f.VC})
			tb.flitsOut++
		}
	}
	tb.flitsOut += int64(len(tb.r.Ejected()))
	tb.r.ClearEjected()
}

// routerTimes is the host time the router itself took over a saturated
// run, and what it moved.
type routerTimes struct {
	stepNS, deliverNS, computeNS float64 // per cycle
	flitsPerCycle                float64 // simulated, exact
}

// saturate runs the router with every input saturated: warm cycles to
// reach steady state, then cycles timed ones. With split set, Deliver
// and Compute are timed separately in place of Step. The clock reads
// bracket only the router's own calls; clockNS, the cost of one such
// bracket, is taken off.
func (tb *testbench) saturate(warm, cycles int, split bool, clockNS float64) routerTimes {
	var step, deliver, compute time.Duration
	var flits0 int64
	for i := 0; i < warm+cycles; i++ {
		if i == warm {
			flits0 = tb.flitsOut
			step, deliver, compute = 0, 0, 0
		}
		tb.offer()
		if split {
			t0 := time.Now()
			tb.r.Deliver(tb.now)
			t1 := time.Now()
			tb.r.Compute(tb.now)
			t2 := time.Now()
			deliver += t1.Sub(t0)
			compute += t2.Sub(t1)
		} else {
			t0 := time.Now()
			tb.r.Step(tb.now)
			step += time.Since(t0)
		}
		tb.collect()
		tb.now++
	}
	per := func(d time.Duration) float64 {
		if d == 0 {
			return 0
		}
		return max(float64(d.Nanoseconds())/float64(cycles)-clockNS, 0)
	}
	return routerTimes{
		stepNS:        per(step),
		deliverNS:     per(deliver),
		computeNS:     per(compute),
		flitsPerCycle: float64(tb.flitsOut-flits0) / float64(cycles),
	}
}

// headLatency sends one head flit through an idle router and returns
// the cycles it spends inside: from the cycle it is buffered to the
// cycle it is driven onto the output link. The paper's pipelines give 3
// for wormhole and speculative VC routers and 4 for the VC router.
func headLatency(kind router.Kind) int64 {
	tb := newTestbench(kind)
	fl := flit.NewPacketFlits(&flit.Packet{ID: 1, Src: 1, Dst: 2, Size: 5})
	tb.in[1].Push(0, fl[0]) // buffered at cycle 1, after the input link's one cycle
	const buffered = 1
	for tb.now = 0; tb.now < 32; tb.now++ {
		tb.r.Step(tb.now)
		if _, ok := tb.out[2].Pop(tb.now); ok {
			// Popped at the far end of a one-cycle link: it was driven
			// onto the link the cycle before.
			return tb.now - 1 - buffered
		}
	}
	return -1
}

// clockCost measures one time.Now/time.Since bracket in nanoseconds.
func clockCost() float64 {
	var sink time.Duration
	ns := timeOp(5, 2*time.Millisecond, func() {
		t0 := time.Now()
		sink += time.Since(t0)
	})
	_ = sink
	return ns
}
