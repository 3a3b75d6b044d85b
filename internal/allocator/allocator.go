// Package allocator implements the switch and virtual-channel allocators
// of the canonical router architectures (Figures 7 and 8 of the paper):
//
//   - the wormhole switch arbiter, which holds output ports for whole
//     packets (Figure 7a),
//   - the separable input-first switch allocator of a virtual-channel
//     router, which allocates crossbar passage flit by flit (Figure 7b),
//   - the separable virtual-channel allocator (Figure 8),
//   - the speculative switch allocator: two parallel separable
//     allocators with non-speculative priority (Figure 7c).
//
// All allocators are built from the arbiters in internal/arbiter; the
// arbiter policy is injectable (matrix arbiters by default, matching the
// paper's gate-level designs).
package allocator

import (
	"fmt"
	"math/bits"

	"routersim/internal/arbiter"
	"routersim/internal/slab"
)

// SwitchRequest asks for one flit's passage from input port In (virtual
// channel VC) to output port Out. Ports and VCs number at most 64 each,
// so a request is three bytes.
type SwitchRequest struct {
	In, VC, Out int8
}

// SwitchGrant reports a won switch passage.
type SwitchGrant struct {
	In, VC, Out int8
}

// SeparableSwitch is the input-first separable switch allocator of a
// virtual-channel router (Figure 7b): a v:1 arbiter per input port
// selects which VC bids for its output port, then a p:1 arbiter per
// output port selects among the bidding inputs.
type SeparableSwitch struct {
	p, v       int
	inputArbs  arbiter.Bank // one arbiter per input port, over v VCs
	outputArbs arbiter.Bank // one arbiter per output port, over p inputs

	// scratch, reused across Allocate calls
	inReqs   []uint64
	inWinner []int8 // winning VC per input port
	outReqs  []uint64
	reqOut   []int8 // requested output by flattened (in, vc) index
	grants   []SwitchGrant
}

// NewSeparableSwitch returns an allocator for p ports and v VCs per
// port, using arbiters from factory (nil means matrix arbiters).
func NewSeparableSwitch(p, v int, factory arbiter.Factory) *SeparableSwitch {
	return own(func(s *Slabs) *SeparableSwitch { return CarveSeparableSwitch(s, p, v, factory) })
}

// CarveSeparableSwitch is NewSeparableSwitch carved from s (nil on the
// counting pass; see Slabs).
func CarveSeparableSwitch(s *Slabs, p, v int, factory arbiter.Factory) *SeparableSwitch {
	sw := s.sep.New()
	sw.carve(s, p, v, factory)
	return sw
}

// carve builds sw in place from s (only sizes s while sw is nil, on the
// counting pass).
func (sw *SeparableSwitch) carve(s *Slabs, p, v int, factory arbiter.Factory) {
	if p < 1 || v < 1 {
		panic(fmt.Sprintf("allocator: invalid switch allocator size p=%d v=%d", p, v))
	}
	in := arbiter.CarveBank(&s.words, p, v, factory)
	out := arbiter.CarveBank(&s.words, p, p, factory)
	inReqs, outReqs := s.words.Take(p), s.words.Take(p)
	inWinner, reqOut := s.Int8s.Take(p), s.Int8s.Take(p*v)
	if sw == nil {
		return
	}
	*sw = SeparableSwitch{
		p: p, v: v,
		inputArbs: in, outputArbs: out,
		inReqs: inReqs, inWinner: inWinner, outReqs: outReqs, reqOut: reqOut,
	}
}

// Reset returns both arbiter stages to their initial priority (the
// scratch needs none: Allocate rewrites every entry it reads).
func (s *SeparableSwitch) Reset() {
	s.inputArbs.Reset()
	s.outputArbs.Reset()
}

// Allocate performs one allocation cycle over the given requests and
// returns the grants. At most one request per (In, VC) pair and one Out
// per (In, VC) may be submitted; duplicate (In, VC) submissions panic,
// as they indicate a router state-machine bug. The returned slice is
// scratch owned by the allocator: it is valid until the next Allocate.
func (s *SeparableSwitch) Allocate(reqs []SwitchRequest) []SwitchGrant {
	if len(reqs) == 0 {
		// No requests grant nothing and touch no arbiter state; skip
		// the scratch resets (they rerun on the next non-empty call).
		return s.grants[:0]
	}
	// Stage 1: per input port, arbitrate among requesting VCs. The
	// touched-port bitmasks make the whole call O(requests), not
	// O(ports): scratch entries are reset lazily on first touch and
	// both stages walk only set bits — in ascending port order, so the
	// arbiter call sequence (and with it every arbiter's priority
	// state) is exactly that of a full port scan.
	var inMask, outMask uint64
	for i := range reqs {
		r := &reqs[i]
		s.check(*r)
		if inMask&(1<<r.In) == 0 {
			inMask |= 1 << r.In
			s.inReqs[r.In] = 0
		}
		if s.inReqs[r.In]&(1<<r.VC) != 0 {
			panic(fmt.Sprintf("allocator: duplicate switch request from input %d vc %d", r.In, r.VC))
		}
		s.inReqs[r.In] |= 1 << r.VC
		s.reqOut[int(r.In)*s.v+int(r.VC)] = r.Out
	}
	for m := inMask; m != 0; m &= m - 1 {
		in := bits.TrailingZeros64(m)
		if w, ok := s.inputArbs.Grant(in, s.inReqs[in]); ok {
			s.inWinner[in] = int8(w)
			out := s.reqOut[in*s.v+w]
			if outMask&(1<<out) == 0 {
				outMask |= 1 << out
				s.outReqs[out] = 0
			}
			s.outReqs[out] |= 1 << in
		}
	}
	// Stage 2: per output port, arbitrate among winning inputs.
	s.grants = s.grants[:0]
	for m := outMask; m != 0; m &= m - 1 {
		out := bits.TrailingZeros64(m)
		if in, ok := s.outputArbs.Grant(out, s.outReqs[out]); ok {
			s.grants = append(s.grants, SwitchGrant{In: int8(in), VC: s.inWinner[in], Out: int8(out)})
		}
	}
	return s.grants
}

func (s *SeparableSwitch) check(r SwitchRequest) {
	if r.In < 0 || int(r.In) >= s.p || r.Out < 0 || int(r.Out) >= s.p || r.VC < 0 || int(r.VC) >= s.v {
		panic(fmt.Sprintf("allocator: switch request out of range: %+v (p=%d v=%d)", r, s.p, s.v))
	}
}

// Slabs are the typed slabs allocators are carved from (see package
// slab): a Carve* call builds one allocator from them, so a caller
// sharing one Slabs across many allocators allocates each type once.
// The request-record and int8 slabs are exported for the router's
// request buffers, which live with its allocators.
type Slabs struct {
	vc    slab.Slab[VCAllocator]
	sep   slab.Slab[SeparableSwitch]
	spec  slab.Slab[SpeculativeSwitch]
	wh    slab.Slab[WormholeSwitch]
	words slab.Slab[uint64] // arbiter places, request and bid masks
	Int8s slab.Slab[int8]   // winners, requested outputs, port holders

	VCReqs   slab.Slab[VCRequest]
	SwReqs   slab.Slab[SwitchRequest]
	PortReqs slab.Slab[PortRequest]
}

// Alloc ends the counting pass of every slab (see slab.Slab.Alloc).
func (s *Slabs) Alloc(pad bool) {
	s.vc.Alloc(pad)
	s.sep.Alloc(pad)
	s.spec.Alloc(pad)
	s.wh.Alloc(pad)
	s.words.Alloc(pad)
	s.Int8s.Alloc(pad)
	s.VCReqs.Alloc(pad)
	s.SwReqs.Alloc(pad)
	s.PortReqs.Alloc(pad)
}

// Bytes returns the bytes Alloc(pad) asks for.
func (s *Slabs) Bytes(pad bool) int64 {
	return s.vc.Bytes(pad) + s.sep.Bytes(pad) + s.spec.Bytes(pad) + s.wh.Bytes(pad) +
		s.words.Bytes(pad) + s.Int8s.Bytes(pad) + s.VCReqs.Bytes(pad) + s.SwReqs.Bytes(pad) +
		s.PortReqs.Bytes(pad)
}

// own builds one allocator from private slabs: the counting pass, one
// exact allocation per type used, the carving pass.
func own[T any](carve func(*Slabs) *T) *T {
	var s Slabs
	carve(&s)
	s.Alloc(false)
	return carve(&s)
}
