package core

import "routersim/internal/logicaleffort"

// ModuleKind identifies an atomic module of the canonical router
// architectures (Figure 4).
type ModuleKind int

const (
	// ModRouting is decode + routing (black box, one full cycle).
	ModRouting ModuleKind = iota
	// ModSwitchArbiterWH is the wormhole switch arbiter (SB).
	ModSwitchArbiterWH
	// ModVCAlloc is the virtual-channel allocator (VC).
	ModVCAlloc
	// ModSwitchAllocVC is the VC-router switch allocator (SL).
	ModSwitchAllocVC
	// ModSpecAlloc is the combined VC + speculative switch allocation of
	// the speculative router (VC ‖ SS, followed by CB).
	ModSpecAlloc
	// ModCombine is the non-speculative-over-speculative grant selection
	// circuit (CB) when modelled as its own module.
	ModCombine
	// ModCrossbar is crossbar traversal (XB).
	ModCrossbar
)

func (k ModuleKind) String() string {
	switch k {
	case ModRouting:
		return "route+decode"
	case ModSwitchArbiterWH:
		return "sw arbitration"
	case ModVCAlloc:
		return "vc allocation"
	case ModSwitchAllocVC:
		return "sw allocation"
	case ModSpecAlloc:
		return "vc&sw allocation"
	case ModCombine:
		return "grant combine"
	case ModCrossbar:
		return "crossbar"
	default:
		return "unknown"
	}
}

// Module is one atomic module on a router's critical path, with the
// latency and overhead estimates produced by the specific router model.
// Atomic modules contain state dependent on their own outputs and are
// best kept intact within a single pipeline stage (Section 3.1).
type Module struct {
	Kind ModuleKind
	// T is the module latency in τ.
	T float64
	// H is the module overhead in τ (counted when the module is the
	// last in its pipeline stage, per EQ 1).
	H float64
	// FullStage marks modules the model always grants a whole pipeline
	// stage: routing (black-box convention) and the crossbar (wire-delay
	// allowance, Section 3.2).
	FullStage bool
}

// TotalTau4 returns (t+h) in τ4 units, the quantity tabulated in the
// "Model" column of Table 1.
func (m Module) TotalTau4() float64 { return logicaleffort.TauToTau4(m.T + m.H) }

// SpecOptions control how the speculative router's allocation stage is
// assembled: an interpretive choice, because the paper's prose and its
// Table 1 count the crossbar grant mux in different stages.
type SpecOptions struct {
	// CombineInCrossbarStage folds the CB grant-selection mux into the
	// crossbar stage (which has slack, being a full-cycle stage) rather
	// than the allocation stage. This matches the paper's prose claim
	// that a speculative router with up to 16 VCs fits a 3-stage
	// pipeline; Table 1 and Figure 12 report the allocation stage WITH
	// CB included. Default true.
	CombineInCrossbarStage bool
}

// DefaultSpecOptions matches the paper's Figure 11(b) pipeline claims.
func DefaultSpecOptions() SpecOptions {
	return SpecOptions{CombineInCrossbarStage: true}
}

// CriticalPath returns the ordered atomic modules on the critical path
// of the canonical router for the given flow control (Figure 4):
//
//	wormhole:        routing → switch arbitration → crossbar
//	virtual-channel: routing → VC allocation → switch allocation → crossbar
//	speculative VC:  routing → (VC ‖ spec switch allocation) → crossbar
func CriticalPath(fc FlowControl, p Params, spec SpecOptions) []Module {
	return AppendCriticalPath(nil, fc, p, spec)
}

// AppendCriticalPath appends the critical-path modules to dst and
// returns the extended slice — the allocation-free form used by the
// pipeline Packer in per-design-point sweeps.
func AppendCriticalPath(dst []Module, fc FlowControl, p Params, spec SpecOptions) []Module {
	routing := Module{Kind: ModRouting, T: TRouting(), H: 0, FullStage: true}
	crossbar := Module{Kind: ModCrossbar, T: TCrossbar(p.P, p.W), H: HCrossbar(p.P, p.W), FullStage: true}

	switch fc {
	case Wormhole:
		return append(dst,
			routing,
			Module{Kind: ModSwitchArbiterWH, T: TSwitchArbiterWH(p.P), H: HSwitchArbiterWH(p.P)},
			crossbar,
		)
	case VirtualChannel:
		return append(dst,
			routing,
			Module{Kind: ModVCAlloc, T: TVCAlloc(p.Range, p.P, p.V), H: HVCAlloc(p.Range, p.P, p.V)},
			Module{Kind: ModSwitchAllocVC, T: TSwitchAllocVC(p.P, p.V), H: HSwitchAllocVC(p.P, p.V)},
			crossbar,
		)
	default: // SpeculativeVC
		alloc := Module{Kind: ModSpecAlloc}
		if spec.CombineInCrossbarStage {
			// The allocation stage is the slower of the parallel VC and
			// speculative-switch allocators; CB rides in the crossbar
			// stage's slack. Overhead: the VC allocator's matrix
			// priority update dominates (h = 9τ) when VC allocation is
			// the critical arm; the SS allocator has h = 0.
			tVC := TVCAlloc(p.Range, p.P, p.V)
			tSS := TSpecSwitchAlloc(p.P, p.V)
			if tVC >= tSS {
				alloc.T, alloc.H = tVC, HVCAlloc(p.Range, p.P, p.V)
			} else {
				alloc.T, alloc.H = tSS, HSpecSwitchAlloc(p.P, p.V)
			}
		} else {
			// Table 1 semantics: max(t_VC, t_SS) + t_CB, with the CB's
			// zero overhead terminating the stage.
			alloc.T = SpecAllocStageTau(p.Range, p.P, p.V)
			alloc.H = HCombine(p.P, p.V)
		}
		return append(dst, routing, alloc, crossbar)
	}
}
