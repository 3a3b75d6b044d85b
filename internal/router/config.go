// Package router implements the cycle-accurate router microarchitectures
// of the paper's evaluation (Section 5): the 3-stage wormhole router, the
// 4-stage virtual-channel router, the 3-stage speculative virtual-channel
// router, and the idealized single-cycle ("unit latency") routers used as
// the comparison baseline in Figure 17.
//
// A router is its assignment of routing (RC), VC allocation (VA), switch
// allocation (SA) and switch traversal (ST) to cycles (Figure 4). That
// assignment is data: the kinds table below has one row per Kind — its
// names, whether it keeps per-VC state or holds output ports per packet,
// whether heads bid for the switch speculatively, and how many pipeline
// registers separate RC→VA, VA→SA and SA→ST — and one stepper (Compute,
// pipeline.go) reads the row. A flit crosses a register by waiting until
// readyAt = now + that gap. Pipeline depth is derived from the row
// (Kind.Stages), never stated. Figure 4c's speculation is the spec
// column: the datapath keeps its VA→SA register (a head whose
// speculation fails bids again, non-speculatively, the cycle after it
// wins VA), but a head's switch request is issued in its VA cycle and
// used if VA succeeds, so the register drops out of the head's depth.
//
// Credits are consumed at switch allocation, returned when a flit is
// read out of the downstream input buffer, and pass through a
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

// plan is a kind's stage plan: what the stepper reads.
type plan struct {
	// vcs: per-VC input state, a VC allocator and a per-flit switch
	// allocator. Without it the kind is wormhole: one VC per port, and
	// the output port, once won, is held until the tail departs, so
	// flits behind the head need no switch arbitration.
	vcs bool
	// spec: a head waiting for an output VC also bids for the switch in
	// that cycle; the passage is used only if VC allocation succeeds.
	// It skips the VA→SA register, so it needs vcs and vasa > 0.
	spec bool
	// Pipeline registers (0 or 1) between routing and VC allocation (or
	// port arbitration), between that and switch allocation, and between
	// switch allocation and crossbar traversal.
	rcva, vasa, sast int64
}

// kinds is the kind table, indexed by Kind. The first name is canonical.
var kinds = [...]struct {
	names []string
	plan
}{
	Wormhole:            {[]string{"wormhole", "wh"}, plan{rcva: 1, sast: 1}},
	VirtualChannel:      {[]string{"vc", "virtual-channel"}, plan{vcs: true, rcva: 1, vasa: 1, sast: 1}},
	SpeculativeVC:       {[]string{"spec-vc", "specvc"}, plan{vcs: true, spec: true, rcva: 1, vasa: 1, sast: 1}},
	SingleCycleWormhole: {[]string{"wormhole-1cycle", "wh-1cycle"}, plan{}},
	SingleCycleVC:       {[]string{"vc-1cycle"}, plan{vcs: true}},
}

func (k Kind) valid() bool { return k >= 0 && int(k) < len(kinds) }

func (k Kind) String() string {
	if !k.valid() {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kinds[k].names[0]
}

// ParseKind resolves a router kind from its canonical name (the String
// form) or the common aliases used by the CLIs ("specvc", "wh").
func ParseKind(s string) (Kind, bool) {
	for k := range kinds {
		for _, name := range kinds[k].names {
			if s == name {
				return Kind(k), true
			}
		}
	}
	return 0, false
}

// Kinds lists every simulated router microarchitecture.
func Kinds() []Kind {
	out := make([]Kind, len(kinds))
	for k := range out {
		out[k] = Kind(k)
	}
	return out
}

// Stages returns the router pipeline depth in cycles a head flit sees:
// one for routing plus one per register of the kind's plan, where a
// speculating head skips the VC-to-switch-allocation register.
func (k Kind) Stages() int {
	pl := kinds[k].plan
	if pl.spec {
		pl.vasa = 0
	}
	return int(1 + pl.rcva + pl.vasa + pl.sast)
}

// UsesVCs reports whether the microarchitecture has per-VC input state.
func (k Kind) UsesVCs() bool { return kinds[k].vcs }

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

// MaxBufPerVC bounds Config.BufPerVC. A VC's FIFO ring and the credit
// wire feeding the port (one entry per buffer slot of up to 64 VCs)
// are indexed with int32; 4,096 keeps both far inside that, and one
// VC's buffer under 100 KB.
const MaxBufPerVC = 1 << 12

// Validate reports configuration errors.
func (c Config) Validate() error {
	if !c.Kind.valid() {
		return fmt.Errorf("router: unknown kind %v", c.Kind)
	}
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
	if c.BufPerVC < 1 || c.BufPerVC > MaxBufPerVC {
		return fmt.Errorf("router: BufPerVC %d; need 1..%d buffers per VC", c.BufPerVC, MaxBufPerVC)
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
