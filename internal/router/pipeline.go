package router

import (
	"math/bits"

	"routersim/internal/allocator"
)

// Compute executes last cycle's latched traversals and this cycle's
// routing and allocation stages, as the router's plan lays them out. It
// only pushes onto the router's output wires and touches router-local
// state, so all routers' Compute phases may run concurrently (after
// every Deliver has finished).
//
// Stage order within the cycle is ST → RC → VA → SA; a flit takes one
// stage per cycle wherever the plan puts a register (readyAt), and runs
// on into the next stage where it does not. Requests are formed from the
// state at the start of a stage, as hardware evaluating them in parallel
// would.
func (r *Router) Compute(now int64) {
	r.pending, r.next = r.next, r.pending[:0]
	for _, g := range r.pending {
		r.send(int(g.in), int(g.vc), now)
	}
	if r.plan.vasa > 0 {
		// A VC granted now cannot bid for the switch until a later cycle,
		// so one pass forms every request.
		r.scan(now, true, true)
		r.allocateVCs(now)
	} else {
		r.scan(now, true, false)
		r.allocateVCs(now)
		r.scan(now, false, true)
	}
	r.allocateSwitch(now)
	// Registered release: a port whose tail departed this cycle becomes
	// grantable in the next cycle's arbitration; the per-packet hold
	// bubble is what caps wormhole throughput below the flit-by-flit VC
	// routers.
	for _, out := range r.whReleases {
		r.whArb.Release(int(out))
	}
	r.whReleases = r.whReleases[:0]
}

// scan visits the occupied input VCs (occ bitmasks) once. With alloc it
// runs the routing stage and collects the heads bidding for an output VC
// (for the output port, in a wormhole kind), plus their speculative
// switch requests if the plan speculates; with sw it collects the
// switch requests of VCs that hold their output. A wormhole port holding
// its output has no competitor for it, so its passage is granted on the
// spot, gated only by credits.
func (r *Router) scan(now int64, alloc, sw bool) {
	pl := r.plan
	if alloc {
		r.vaReqs, r.specReqs, r.portReqs = r.vaReqs[:0], r.specReqs[:0], r.portReqs[:0]
	}
	if sw {
		r.swReqs = r.swReqs[:0]
	}
	for pm := r.occPorts; pm != 0; pm &= pm - 1 {
		in := bits.TrailingZeros64(pm)
		for m := r.in[in].occ; m != 0; m &= m - 1 {
			c := bits.TrailingZeros64(m)
			vc := &r.in[in].vcs[c]
			if alloc && vc.state == vcIdle {
				r.routeHead(vc, now)
			}
			switch {
			case vc.state == vcWaitVC:
				if !alloc || vc.readyAt > now {
					continue
				}
				if !pl.vcs {
					r.portReqs = append(r.portReqs, allocator.PortRequest{In: in, Out: int(vc.route)})
					continue
				}
				r.repick(vc)
				r.vaReqs = append(r.vaReqs, allocator.VCRequest{
					In: int8(in), VC: int8(c), Out: vc.route, Candidates: r.vaCandidates(vc),
				})
				// Speculative switch request in parallel with VC
				// allocation: the output VC (and hence its credit) is
				// not yet known; validity is checked at combine time.
				if pl.spec && vc.hoqEligible(now) != nil {
					r.specReqs = append(r.specReqs, allocator.SwitchRequest{In: int8(in), VC: int8(c), Out: vc.route})
				}
			case sw && r.switchEligible(vc, now):
				if pl.vcs {
					r.swReqs = append(r.swReqs, allocator.SwitchRequest{In: int8(in), VC: int8(c), Out: vc.route})
				} else {
					r.grantSwitch(in, c, now)
				}
			}
		}
	}
}

// allocateVCs runs the stage that hands waiting heads their output
// resource: one cycle of the separable VC allocator, or of the wormhole
// port arbiter (whose status bits mask requests for held ports; winners
// hold the port until the tail departs). Winners become active and may
// request the switch once the plan's VA→SA register lets them.
func (r *Router) allocateVCs(now int64) {
	if !r.plan.vcs {
		for _, g := range r.whArb.Arbitrate(r.portReqs) {
			vc := &r.in[g.In].vcs[0]
			vc.state = vcActive
			vc.outVC = 0 // wormhole links carry a single VC
			vc.readyAt = now + r.plan.vasa
		}
		return
	}
	for _, g := range r.vcAlloc.Allocate(r.vaReqs) {
		vc := &r.in[g.In].vcs[g.VC]
		vc.state = vcActive
		vc.outVC = g.OutVC
		vc.readyAt = now + r.plan.vasa
		r.out[g.Out].vcBusy |= 1 << g.OutVC
	}
}

// allocateSwitch runs one cycle of the switch allocator over the
// requests scan collected and grants the winners their passage.
func (r *Router) allocateSwitch(now int64) {
	switch {
	case !r.plan.vcs: // passages were granted by scan
	case !r.plan.spec:
		for _, g := range r.swAlloc.Allocate(r.swReqs) {
			r.grantSwitch(int(g.In), int(g.VC), now)
		}
	default:
		// Non-speculative grants proceed unconditionally. A speculative
		// grant is valid only if its input VC won VC allocation this
		// cycle — it bid as a waiting head, so it is active now exactly
		// then — and the granted output VC has a credit; otherwise the
		// crossbar passage is wasted (the port stays idle this cycle —
		// non-speculative requests already had priority, so speculation
		// never reduces throughput).
		nsGrants, spGrants := r.specAlloc.Allocate(r.swReqs, r.specReqs)
		for _, g := range nsGrants {
			r.grantSwitch(int(g.In), int(g.VC), now)
		}
		for _, g := range spGrants {
			vc := &r.in[g.In].vcs[g.VC]
			if op := &r.out[g.Out]; vc.state == vcActive && (op.ejection || op.credits[vc.outVC] > 0) {
				r.grantSwitch(int(g.In), int(g.VC), now)
			}
		}
	}
}

// switchEligible reports whether an input VC may request the switch this
// cycle: it holds an output VC (or port), has a flit buffered before
// this cycle, and a downstream buffer credit exists (ejection ports have
// infinite buffering).
func (r *Router) switchEligible(vc *inputVC, now int64) bool {
	if vc.state != vcActive || vc.readyAt > now {
		return false
	}
	if vc.hoqEligible(now) == nil {
		return false
	}
	op := &r.out[vc.route]
	return op.ejection || op.credits[vc.outVC] > 0
}
