package router

import (
	"routersim/internal/flit"
)

// Audit accessors: read-only views of the router's wires, counters, and
// latched grants for the network's invariant auditor (network/audit.go).
// They are called only between cycles (after a Step, or at a sharded
// barrier), never from the hot path.

// OutVCMask returns the allocatable-VC mask of output port out — the
// set of downstream VCs that actually carry credits (heterogeneous
// downstream routers may expose fewer VCs than this router has).
func (r *Router) OutVCMask(out int) uint64 { return r.out[out].vcMask }

// HasOutputWire reports whether output port out drives a flit wire
// (false for the ejection port).
func (r *Router) HasOutputWire(out int) bool { return r.out[out].flitOut != nil }

// ScanInputWire calls fn for every flit still in flight on input port
// port's wire (due or not), in FIFO order. A nil (unconnected) wire is
// an empty scan.
func (r *Router) ScanInputWire(port int, fn func(f flit.Flit)) {
	if w := r.in[port].flitIn; w != nil {
		w.Scan(fn)
	}
}

// ScanCreditWire calls fn for every credit still in flight toward
// output port out (pushed by the downstream router, not yet consumed by
// this one — including credits the credit-processing pipeline is
// holding back).
func (r *Router) ScanCreditWire(out int, fn func(c Credit)) {
	if w := r.out[out].creditIn; w != nil {
		w.Scan(fn)
	}
}

// CommittedCredits counts the credits consumed by this cycle's latched
// switch grants toward (out, vc): grantSwitch decrements the credit
// counter at grant time while the flit traverses the crossbar next
// cycle, so between cycles those credits are in neither the counter nor
// any wire or buffer. The auditor adds them back when closing the
// credit loop.
func (r *Router) CommittedCredits(out, vc int) int {
	n := 0
	for _, g := range r.next {
		gvc := &r.in[g.in].vcs[g.vc]
		if int(gvc.route) != out || int(gvc.outVC) != vc {
			continue
		}
		if r.out[gvc.route].ejection {
			continue // ejection consumes no credit
		}
		n++
	}
	return n
}

// BufferedTotal returns the router's total input-FIFO occupancy across
// all ports and VCs.
func (r *Router) BufferedTotal() int {
	total := 0
	for p := range r.in {
		for c := range r.in[p].vcs {
			total += r.in[p].vcs[c].fifo.Len()
		}
	}
	return total
}

// InputWireTotal returns the total number of flits in flight on the
// router's input wires.
func (r *Router) InputWireTotal() int {
	total := 0
	for p := range r.in {
		if w := r.in[p].flitIn; w != nil {
			total += w.Len()
		}
	}
	return total
}
