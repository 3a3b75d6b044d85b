package allocator

import (
	"fmt"
	"math/bits"

	"routersim/internal/arbiter"
)

// VCRequest asks to allocate an output virtual channel for the packet at
// input port In, input VC VC. Candidates is a bitmask over the v output
// VCs of output port Out that the routing function permits and that are
// currently free (outvc_state). With the paper's R→p routing range —
// the most general possible for a deterministic router (footnote 14) —
// Candidates holds every free VC of the routed port.
type VCRequest struct {
	In, VC, Out int8
	Candidates  uint64
}

// VCGrant reports a granted output virtual channel.
type VCGrant struct {
	In, VC, Out, OutVC int8
}

// VCAllocator is the separable virtual-channel allocator of Figure 8(b):
// a first stage of v:1 arbiters (one per input VC) chooses which
// candidate output VC each input VC bids for, and a second stage of
// (p·v):1 arbiters (one per output VC) chooses among the bidders.
type VCAllocator struct {
	p, v   int
	stage1 arbiter.Bank // per input VC (p·v of them), over v candidates
	stage2 arbiter.Bank // per output VC (p·v of them), over p·v bidders
	bids   []uint64     // per output VC: bitmask of bidding input VCs
	grants []VCGrant    // scratch, reused across Allocate calls
}

// NewVCAllocator returns a VC allocator for p ports and v VCs per port.
func NewVCAllocator(p, v int, factory arbiter.Factory) *VCAllocator {
	return own(func(s *Slabs) *VCAllocator { return CarveVCAllocator(s, p, v, factory) })
}

// CarveVCAllocator is NewVCAllocator carved from s (nil on the counting
// pass; see Slabs).
func CarveVCAllocator(s *Slabs, p, v int, factory arbiter.Factory) *VCAllocator {
	if p < 1 || v < 1 {
		panic(fmt.Sprintf("allocator: invalid VC allocator size p=%d v=%d", p, v))
	}
	n := p * v
	a := s.vc.New()
	stage1 := arbiter.CarveBank(&s.words, n, v, factory)
	stage2 := arbiter.CarveBank(&s.words, n, n, factory)
	bids := s.words.Take(n)
	if a == nil {
		return nil
	}
	*a = VCAllocator{p: p, v: v, stage1: stage1, stage2: stage2, bids: bids}
	return a
}

// Reset returns both arbiter stages to their initial priority and
// clears the bid scratch.
func (a *VCAllocator) Reset() {
	a.stage1.Reset()
	a.stage2.Reset()
	clear(a.bids)
}

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
	// Stage 1: each input VC picks one candidate output VC. The p·v ≤ 64
	// input and output VCs each fit one mask: bidders has a bit per
	// input VC that bid, touched a bit per output VC with bids, so the
	// whole call is O(requests), not O(p·v), and the bids entries are
	// clean on entry (stage 2 clears each one it reads).
	var bidders, touched uint64
	for i := range reqs {
		r := &reqs[i]
		a.check(*r)
		cands := r.Candidates & mask64(a.v)
		if cands == 0 {
			continue // no free candidate VC this cycle
		}
		iIdx := int(r.In)*a.v + int(r.VC)
		if bidders&(1<<iIdx) != 0 {
			panic(fmt.Sprintf("allocator: duplicate VC request from input %d vc %d", r.In, r.VC))
		}
		w, ok := a.stage1.Grant(iIdx, cands)
		if !ok {
			continue
		}
		bidders |= 1 << iIdx
		oIdx := int(r.Out)*a.v + w
		touched |= 1 << oIdx
		a.bids[oIdx] |= 1 << iIdx
	}
	// Stage 2: each output VC with bids grants one bidding input VC, in
	// ascending output-VC order — the order a full (out, w) scan visits
	// them in, so every stage-2 arbiter sees the exact same call
	// sequence. The returned slice is scratch owned by the allocator,
	// valid until the next Allocate.
	a.grants = a.grants[:0]
	for m := touched; m != 0; m &= m - 1 {
		oIdx := bits.TrailingZeros64(m)
		bids := a.bids[oIdx]
		a.bids[oIdx] = 0
		iIdx, ok := a.stage2.Grant(oIdx, bids)
		if !ok {
			continue
		}
		a.grants = append(a.grants, VCGrant{
			In: int8(iIdx / a.v), VC: int8(iIdx % a.v), Out: int8(oIdx / a.v), OutVC: int8(oIdx % a.v),
		})
	}
	return a.grants
}

func (a *VCAllocator) check(r VCRequest) {
	if r.In < 0 || int(r.In) >= a.p || r.Out < 0 || int(r.Out) >= a.p || r.VC < 0 || int(r.VC) >= a.v {
		panic(fmt.Sprintf("allocator: VC request out of range: %+v (p=%d v=%d)", r, a.p, a.v))
	}
}

func mask64(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << n) - 1
}
