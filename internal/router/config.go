// Package router implements the cycle-accurate router microarchitectures
// of the paper's evaluation (Section 5): the 3-stage wormhole router, the
// 4-stage virtual-channel router, the 3-stage speculative virtual-channel
// router, and the idealized single-cycle ("unit latency") routers used as
// the comparison baseline in Figure 17.
//
// Pipeline semantics are registered: a flit advances at most one stage
// per cycle. Credits are consumed at switch allocation, returned when a
// flit is read out of the downstream input buffer, and pass through a
// credit-processing pipeline of depth max(0, stages−2) on receipt, which
// reproduces the paper's buffer-turnaround times of 4 (wormhole),
// 5 (virtual-channel), 4 (speculative) and 2 (single-cycle) cycles.
package router

import (
	"fmt"

	"routersim/internal/arbiter"
)

// Kind selects the router microarchitecture.
type Kind int

const (
	// Wormhole is the canonical 3-stage wormhole router (Figure 2):
	// routing, switch arbitration (port held per packet), crossbar.
	Wormhole Kind = iota
	// VirtualChannel is the canonical 4-stage VC router (Figure 3):
	// routing, VC allocation, switch allocation, crossbar.
	VirtualChannel
	// SpeculativeVC is the paper's 3-stage speculative VC router:
	// switch allocation is performed speculatively in parallel with VC
	// allocation (Figure 4c).
	SpeculativeVC
	// SingleCycleWormhole is a wormhole router with unit latency: all
	// functions complete in one cycle (the commonly assumed model the
	// paper argues against, Section 5.2).
	SingleCycleWormhole
	// SingleCycleVC is a virtual-channel router with unit latency.
	SingleCycleVC
)

func (k Kind) String() string {
	switch k {
	case Wormhole:
		return "wormhole"
	case VirtualChannel:
		return "vc"
	case SpeculativeVC:
		return "spec-vc"
	case SingleCycleWormhole:
		return "wormhole-1cycle"
	case SingleCycleVC:
		return "vc-1cycle"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind resolves a router kind from its canonical name (the String
// form) or the common aliases used by the CLIs ("specvc", "vc-1cycle").
func ParseKind(s string) (Kind, bool) {
	switch s {
	case "wormhole", "wh":
		return Wormhole, true
	case "vc", "virtual-channel":
		return VirtualChannel, true
	case "spec-vc", "specvc":
		return SpeculativeVC, true
	case "wormhole-1cycle", "wh-1cycle":
		return SingleCycleWormhole, true
	case "vc-1cycle":
		return SingleCycleVC, true
	default:
		return 0, false
	}
}

// Kinds lists every simulated router microarchitecture.
func Kinds() []Kind {
	return []Kind{Wormhole, VirtualChannel, SpeculativeVC, SingleCycleWormhole, SingleCycleVC}
}

// Stages returns the router pipeline depth in cycles.
func (k Kind) Stages() int {
	switch k {
	case Wormhole, SpeculativeVC:
		return 3
	case VirtualChannel:
		return 4
	default:
		return 1
	}
}

// UsesVCs reports whether the microarchitecture has per-VC input state.
func (k Kind) UsesVCs() bool {
	return k == VirtualChannel || k == SpeculativeVC || k == SingleCycleVC
}

// Config parameterizes one router instance.
type Config struct {
	Kind Kind
	// Ports is the number of physical channels p (5 for a 2-D mesh; the
	// network layer derives it from the topology when left 0).
	Ports int
	// VCs is the number of virtual channels per physical channel
	// (must be 1 for wormhole kinds).
	VCs int
	// BufPerVC is the number of flit buffers per virtual channel (for
	// wormhole kinds, per input port).
	BufPerVC int
	// CreditProcess is the credit-processing pipeline depth in cycles:
	// a credit received at cycle t is visible to the allocators at
	// t+CreditProcess. Use -1 for the architectural default
	// max(0, Stages-2).
	CreditProcess int
	// Arb builds the arbiters inside the allocators (nil = matrix).
	Arb arbiter.Factory
	// SpecPriority enables non-speculative-over-speculative priority in
	// the speculative switch allocator (the paper's rule). Disabling it
	// is an ablation. Ignored by non-speculative kinds.
	SpecPriority bool
}

// DefaultConfig returns the paper's configuration for a kind on a 2-D
// mesh: 5 ports, 2 VCs × 4 buffers (8 buffers per port for wormhole).
func DefaultConfig(k Kind) Config {
	cfg := Config{
		Kind:          k,
		Ports:         5,
		VCs:           2,
		BufPerVC:      4,
		CreditProcess: -1,
		SpecPriority:  true,
	}
	if !k.UsesVCs() {
		cfg.VCs = 1
		cfg.BufPerVC = 8
	}
	return cfg
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Ports < 2 || c.Ports > 64 {
		// The allocation stages track port occupancy in a 64-bit mask.
		return fmt.Errorf("router: %d ports; need 2..64", c.Ports)
	}
	if c.VCs < 1 || c.VCs > 64 {
		return fmt.Errorf("router: %d VCs per port; need 1..64", c.VCs)
	}
	if !c.Kind.UsesVCs() && c.VCs != 1 {
		return fmt.Errorf("router: %v router must have exactly 1 VC, got %d", c.Kind, c.VCs)
	}
	if c.Ports*c.VCs > 64 {
		// The VC allocator's output-VC arbiters take one request bit
		// per input VC of the router.
		return fmt.Errorf("router: %d ports × %d VCs = %d input VCs; the VC allocator arbitrates over at most 64", c.Ports, c.VCs, c.Ports*c.VCs)
	}
	if c.BufPerVC < 1 {
		return fmt.Errorf("router: %d buffers per VC; need at least 1", c.BufPerVC)
	}
	if c.CreditProcess < -1 {
		return fmt.Errorf("router: credit process delay %d; need -1 (auto) or >= 0", c.CreditProcess)
	}
	return nil
}

// CreditProcessDelay resolves the credit-processing pipeline depth.
func (c Config) CreditProcessDelay() int {
	if c.CreditProcess >= 0 {
		return c.CreditProcess
	}
	d := c.Kind.Stages() - 2
	if d < 0 {
		d = 0
	}
	return d
}
