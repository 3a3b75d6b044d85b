package harness

import (
	"routersim/internal/core"
	"routersim/internal/router"
	"routersim/internal/topology"
)

// DelayModel summarizes the paper's delay model evaluated at a
// scenario's actual parameter point: the topology's router port count p
// and the scenario's VC count v, at the paper's channel width (32 bits)
// and clock (20 τ4), with the R→p routing range of a deterministic
// router (footnote 14). Stages is the per-hop pipeline depth EQ 1
// prescribes — so a sweep over topologies reports delay-model-consistent
// pipeline depths, closing the loop between the cycle-accurate
// simulation and the analytic model.
type DelayModel struct {
	// Ports is the router port count p (5 for the paper's mesh).
	Ports int `json:"ports"`
	// VCs is the virtual-channel count v the model was evaluated at.
	VCs int `json:"vcs"`
	// Stages is the pipeline depth prescribed by EQ 1.
	Stages int `json:"stages"`
}

// flowControlOf maps a simulated router kind onto the delay model's
// flow-control method. The single-cycle kinds are the unit-latency
// abstraction the paper argues against — the delay model does not
// describe them, so they have no mapping.
func flowControlOf(kind router.Kind) (core.FlowControl, bool) {
	switch kind {
	case router.Wormhole:
		return core.Wormhole, true
	case router.VirtualChannel:
		return core.VirtualChannel, true
	case router.SpeculativeVC:
		return core.SpeculativeVC, true
	default:
		return 0, false
	}
}

// modelStages is the pipeline depth EQ 1 prescribes for a router kind
// with p ports and v VCs, and whether the model describes the kind.
func modelStages(kind router.Kind, p, v int) (int, bool) {
	fc, ok := flowControlOf(kind)
	if !ok {
		return 0, false
	}
	params := core.Params{
		P:         p,
		V:         v,
		W:         32,
		ClockTau4: core.DefaultClockTau4,
		Range:     core.RangePC,
	}
	// Only the depth is retained, so a local Packer's aliased result is
	// fine — no clone, no per-stage allocations.
	var pk core.Packer
	pl, err := pk.Design(fc, params, core.DefaultSpecOptions())
	if err != nil {
		return 0, false
	}
	return pl.Depth(), true
}

// DelayModel evaluates the paper's delay model at the scenario's
// topology and router parameters. It returns nil for single-cycle
// router kinds (which the model does not describe) and for scenarios
// whose topology or router spec does not resolve.
func (s Scenario) DelayModel() *DelayModel {
	s = s.canonical()
	kind, ok := router.ParseKind(s.Router)
	if !ok {
		return nil
	}
	topo, err := topology.New(s.Topology, s.K)
	if err != nil || s.VCs < 1 {
		return nil
	}
	stages, ok := modelStages(kind, topo.Ports(), s.VCs)
	if !ok {
		return nil
	}
	return &DelayModel{Ports: topo.Ports(), VCs: s.VCs, Stages: stages}
}
