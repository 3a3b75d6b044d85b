package allocator

import "routersim/internal/arbiter"

// SpeculativeSwitch is the paper's speculative switch allocator
// (Figure 7c): two separable switch allocators run in parallel, one for
// non-speculative requests (packets that already hold an output VC) and
// one for speculative requests (packets still in VC allocation this
// cycle). The combine stage selects successful non-speculative grants
// over speculative ones, at both the output port and the input port, so
// speculation never takes bandwidth from a non-speculative flit — the
// property that makes the speculation conservative.
type SpeculativeSwitch struct {
	nonspec SeparableSwitch
	spec    SeparableSwitch

	// PrioritizeNonSpec enables the paper's priority rule. Disabling it
	// (ablation) resolves output conflicts in favour of the speculative
	// request, demonstrating the throughput cost the rule prevents.
	PrioritizeNonSpec bool
}

// NewSpeculativeSwitch returns a speculative switch allocator for p
// ports and v VCs per port.
func NewSpeculativeSwitch(p, v int, factory arbiter.Factory) *SpeculativeSwitch {
	s := &SpeculativeSwitch{PrioritizeNonSpec: true}
	s.nonspec.init(p, v, factory)
	s.spec.init(p, v, factory)
	return s
}

// Reset returns both separable allocators to their initial priority.
func (s *SpeculativeSwitch) Reset() {
	s.nonspec.Reset()
	s.spec.Reset()
}

// Allocate runs both allocators on one cycle's requests and combines
// their grants. It returns the surviving non-speculative grants and the
// surviving speculative grants. A speculative grant that survives the
// combine stage is still conditional: the router must verify that VC
// allocation succeeded for that input VC in the same cycle (and that a
// credit exists) before using the crossbar slot; otherwise the slot is
// simply wasted, exactly as in the paper.
func (s *SpeculativeSwitch) Allocate(nonspecReqs, specReqs []SwitchRequest) (ns, sp []SwitchGrant) {
	ns = s.nonspec.Allocate(nonspecReqs)
	sp = s.spec.Allocate(specReqs)
	if len(sp) == 0 {
		return ns, sp
	}

	// The ports the winning side's grants hold, one bit per port.
	var outTaken, inTaken uint64
	if s.PrioritizeNonSpec {
		for _, g := range ns {
			outTaken |= 1 << g.Out
			inTaken |= 1 << g.In
		}
	} else {
		// Ablation: speculative grants win conflicts; non-speculative
		// grants for contested resources are dropped instead.
		for _, g := range sp {
			outTaken |= 1 << g.Out
			inTaken |= 1 << g.In
		}
		kept := ns[:0]
		for _, g := range ns {
			if outTaken>>g.Out&1 == 0 && inTaken>>g.In&1 == 0 {
				kept = append(kept, g)
			}
		}
		// (spec grants are already mutually conflict-free.)
		return kept, sp
	}

	keptSp := sp[:0]
	for _, g := range sp {
		if outTaken>>g.Out&1 != 0 || inTaken>>g.In&1 != 0 {
			continue // non-speculative priority: spec grant discarded
		}
		keptSp = append(keptSp, g)
	}
	return ns, keptSp
}
