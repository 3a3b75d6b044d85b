package allocator

import (
	"fmt"

	"routersim/internal/arbiter"
)

// VCRequest asks to allocate an output virtual channel for the packet at
// input port In, input VC VC. Candidates is a bitmask over the v output
// VCs of output port Out that the routing function permits and that are
// currently free (outvc_state). With the paper's R→p routing range —
// the most general possible for a deterministic router (footnote 14) —
// Candidates holds every free VC of the routed port.
type VCRequest struct {
	In, VC, Out int
	Candidates  uint64
}

// VCGrant reports a granted output virtual channel.
type VCGrant struct {
	In, VC, Out, OutVC int
}

// VCAllocator is the separable virtual-channel allocator of Figure 8(b):
// a first stage of v:1 arbiters (one per input VC) chooses which
// candidate output VC each input VC bids for, and a second stage of
// (p·v):1 arbiters (one per output VC) chooses among the bidders.
type VCAllocator struct {
	p, v      int
	stage1    arbiter.Bank // per input VC (p·v of them), over v candidates
	stage2    arbiter.Bank // per output VC (p·v of them), over p·v bidders
	bids      []uint64     // per output VC: bitmask of bidding input VCs
	bidder    []VCRequest  // request by flattened input-VC index
	hasBidder []bool
	grants    []VCGrant // scratch, reused across Allocate calls

	// touched lists the output-VC indices with bids and bidders the
	// input-VC indices that bid, so a call resets only the scratch it
	// dirtied — O(requests), not O(p·v).
	touched []int32
	bidders []int32
}

// NewVCAllocator returns a VC allocator for p ports and v VCs per port.
func NewVCAllocator(p, v int, factory arbiter.Factory) *VCAllocator {
	if p < 1 || v < 1 {
		panic(fmt.Sprintf("allocator: invalid VC allocator size p=%d v=%d", p, v))
	}
	n := p * v
	a := &VCAllocator{
		p: p, v: v,
		stage1:    arbiter.NewBank(n, v, factory),
		stage2:    arbiter.NewBank(n, n, factory),
		bids:      make([]uint64, n),
		bidder:    make([]VCRequest, n),
		hasBidder: make([]bool, n),
	}
	return a
}

// Reset returns both arbiter stages to their initial priority and
// clears the bid scratch.
func (a *VCAllocator) Reset() {
	a.stage1.Reset()
	a.stage2.Reset()
	clear(a.bids)
	clear(a.hasBidder)
}

func (a *VCAllocator) ivc(in, vc int) int { return in*a.v + vc }
func (a *VCAllocator) ovc(out, w int) int { return out*a.v + w }

// Allocate performs one VC-allocation cycle. Each request bids for one
// of its candidate output VCs (stage 1); each output VC grants one
// bidder (stage 2). Losers simply retry in a later cycle. At most one
// output VC is granted per input VC and each output VC is granted to at
// most one input VC per cycle.
func (a *VCAllocator) Allocate(reqs []VCRequest) []VCGrant {
	if len(reqs) == 0 {
		// No requests grant nothing and touch no arbiter state.
		return a.grants[:0]
	}
	// Stage 1: each input VC picks one candidate output VC. The bids
	// and hasBidder scratch arrays are clean on entry (every call
	// resets exactly the entries it dirtied before returning), so the
	// whole call is O(requests), not O(p·v).
	a.touched = a.touched[:0]
	a.bidders = a.bidders[:0]
	for i := range reqs {
		r := &reqs[i]
		a.check(*r)
		cands := r.Candidates & mask64(a.v)
		if cands == 0 {
			continue // no free candidate VC this cycle
		}
		iIdx := a.ivc(r.In, r.VC)
		if a.hasBidder[iIdx] {
			panic(fmt.Sprintf("allocator: duplicate VC request from input %d vc %d", r.In, r.VC))
		}
		w, ok := a.stage1.Grant(iIdx, cands)
		if !ok {
			continue
		}
		a.hasBidder[iIdx] = true
		a.bidders = append(a.bidders, int32(iIdx))
		a.bidder[iIdx] = *r
		oIdx := a.ovc(r.Out, w)
		if a.bids[oIdx] == 0 {
			a.touched = append(a.touched, int32(oIdx))
		}
		a.bids[oIdx] |= 1 << iIdx
	}
	// Stage 2: each output VC with bids grants one bidding input VC, in
	// ascending output-VC order — the order a full (out, w) scan visits
	// them in, so every stage-2 arbiter sees the exact same call
	// sequence. The touched list is a handful of entries, so an inline
	// insertion sort beats a generic sort call. The returned slice is
	// scratch owned by the allocator, valid until the next Allocate.
	for i := 1; i < len(a.touched); i++ {
		for j := i; j > 0 && a.touched[j] < a.touched[j-1]; j-- {
			a.touched[j], a.touched[j-1] = a.touched[j-1], a.touched[j]
		}
	}
	a.grants = a.grants[:0]
	for _, oIdx := range a.touched {
		bids := a.bids[oIdx]
		a.bids[oIdx] = 0
		iIdx, ok := a.stage2.Grant(int(oIdx), bids)
		if !ok {
			continue
		}
		r := a.bidder[iIdx]
		a.grants = append(a.grants, VCGrant{In: r.In, VC: r.VC, Out: int(oIdx) / a.v, OutVC: int(oIdx) % a.v})
	}
	for _, iIdx := range a.bidders {
		a.hasBidder[iIdx] = false
	}
	return a.grants
}

func (a *VCAllocator) check(r VCRequest) {
	if r.In < 0 || r.In >= a.p || r.Out < 0 || r.Out >= a.p || r.VC < 0 || r.VC >= a.v {
		panic(fmt.Sprintf("allocator: VC request out of range: %+v (p=%d v=%d)", r, a.p, a.v))
	}
}

func mask64(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << n) - 1
}
