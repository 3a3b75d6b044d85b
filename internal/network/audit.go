package network

import (
	"fmt"
	"math/bits"
	"strings"

	"routersim/internal/flit"
	"routersim/internal/router"
	"routersim/internal/topology"
)

// This file implements the opt-in engine invariant auditor
// (Config.Audit): every K cycles the network verifies its conservation
// invariants and panics with a diagnostic snapshot on the first
// violation. The auditor is a self-checking oracle for fuzzing, CI, and
// long sweeps — any engine bug that leaks, duplicates, or strands a
// flit or credit trips it within K cycles instead of surfacing as a
// silently wrong curve.
//
// Invariants checked:
//
//  1. Flit conservation: every flit ever injected by a source is
//     either still in flight (an input FIFO or an input wire) or has
//     drained through an ejection port (delivered or dropped).
//  2. Per-wire credit conservation: for every inter-router link and
//     every allocatable VC, the upstream credit counter, the credits
//     committed by latched switch grants, the flits on the flit wire
//     and in the downstream FIFO, and the credits on the return wire
//     sum to exactly the downstream buffer depth. The same loop is
//     closed for every source's injection channel.
//  3. Buffer occupancy bounds: no input FIFO exceeds its router's
//     BufPerVC; no credit counter is negative or above its loop bound.
//
// Timing: the engine audits at a barrier where every shard clock has
// converged on the audit deadline — runRound clamps each round's
// horizons to the deadline, exactly like the fault-application clamp,
// so no shard runs past it until all reach it and the boundary
// outboxes have been flushed. A quiescence fast-forward that jumps the
// clocks past a deadline skips that (trivially clean) audit. One shard
// is converged after every window, so it needs no clamp: it audits at
// the end of the first round whose window reaches the deadline. Faults
// never break the invariants: a fault only rewrites routing tables, so
// in-flight flits drain normally and every wire keeps its credit loop.

// runAudit verifies the invariants; now is the last completed cycle
// (for diagnostics only). It must be called with no shard running.
func (n *Network) runAudit(now int64) {
	injected, drained := n.auditCounters()

	// Audits run only at converged barriers: every boundary outbox must
	// have been moved, otherwise the wire census below would miss
	// in-flight items.
	for i := range n.flitXfers {
		if l := n.flitXfers[i].out.Len(); l != 0 {
			n.auditFail(now, fmt.Sprintf("boundary flit outbox %d holds %d flits at a barrier audit", i, l))
		}
	}
	for i := range n.creditXfers {
		if l := n.creditXfers[i].out.Len(); l != 0 {
			n.auditFail(now, fmt.Sprintf("boundary credit outbox %d holds %d credits at a barrier audit", i, l))
		}
	}

	// 1. Flit conservation.
	inflight := int64(0)
	for _, r := range n.routers {
		inflight += int64(r.BufferedTotal()) + int64(r.InputWireTotal())
	}
	if injected != drained+inflight {
		n.auditFail(now, fmt.Sprintf("flit conservation: injected %d != drained %d + in-flight %d",
			injected, drained, inflight))
	}

	// 2 + 3. Credit loops and occupancy bounds.
	ports := n.topo.Ports()
	var onWire, onCredit [64]int
	for id, u := range n.routers {
		for p := 1; p < ports; p++ {
			next, inPort, ok := n.topo.Neighbor(id, p)
			if !ok || !u.HasOutputWire(p) {
				continue
			}
			v := n.routers[next]
			for i := range onWire {
				onWire[i], onCredit[i] = 0, 0
			}
			v.ScanInputWire(inPort, func(f flit.Flit) { onWire[f.VC]++ })
			u.ScanCreditWire(p, func(c router.Credit) { onCredit[c.VC]++ })
			expected := v.Config().BufPerVC
			for m := u.OutVCMask(p); m != 0; m &= m - 1 {
				vc := bits.TrailingZeros64(m)
				credits := u.Credits(p, vc)
				if credits < 0 || credits > expected {
					n.auditFail(now, fmt.Sprintf("credit counter out of bounds: router %d out %d vc %d has %d credits (loop bound %d)",
						id, p, vc, credits, expected))
				}
				committed := u.CommittedCredits(p, vc)
				have := credits + committed + onWire[vc] + v.BufferedFlits(inPort, vc) + onCredit[vc]
				if have != expected {
					n.auditFail(now, fmt.Sprintf(
						"credit conservation on link %d:out%d → %d:in%d vc %d: credits=%d committed=%d flits-on-wire=%d buffered=%d credits-on-wire=%d, sum %d != downstream BufPerVC %d",
						id, p, next, inPort, vc, credits, committed, onWire[vc],
						v.BufferedFlits(inPort, vc), onCredit[vc], have, expected))
				}
			}
		}
		ucfg := u.Config()
		for p := 0; p < ports; p++ {
			for vc := 0; vc < ucfg.VCs; vc++ {
				if occ := u.BufferedFlits(p, vc); occ > ucfg.BufPerVC {
					n.auditFail(now, fmt.Sprintf("buffer overflow: router %d in %d vc %d holds %d flits (BufPerVC %d)",
						id, p, vc, occ, ucfg.BufPerVC))
				}
			}
		}
	}

	// 2b. Source injection channels (the upstream end of each local
	// input port's credit loop; the source consumes its credit in the
	// same cycle it pushes, so there is no committed-grant term).
	for id, s := range n.sources {
		r := n.routers[id]
		for i := range onWire {
			onWire[i], onCredit[i] = 0, 0
		}
		r.ScanInputWire(topology.PortLocal, func(f flit.Flit) { onWire[f.VC]++ })
		s.creditIn.Scan(func(c router.Credit) { onCredit[c.VC]++ })
		expected := r.Config().BufPerVC
		for vc := range s.credits {
			have := s.credits[vc] + onWire[vc] + r.BufferedFlits(topology.PortLocal, vc) + onCredit[vc]
			if have != expected {
				n.auditFail(now, fmt.Sprintf(
					"credit conservation on injection channel of node %d vc %d: credits=%d flits-on-wire=%d buffered=%d credits-on-wire=%d, sum %d != BufPerVC %d",
					id, vc, s.credits[vc], onWire[vc],
					r.BufferedFlits(topology.PortLocal, vc), onCredit[vc], have, expected))
			}
		}
	}
}

// auditCounters sums the shards' injected/drained flit counters (kept
// per shard so the hot-path increments are race-free).
func (n *Network) auditCounters() (injected, drained int64) {
	for _, sh := range n.shards {
		injected += sh.injected
		drained += sh.drained
	}
	return injected, drained
}

func (n *Network) auditFail(now int64, msg string) {
	panic(fmt.Sprintf("network: audit failed after cycle %d: %s\n%s", now, msg, n.DiagSnapshot()))
}

// DiagSnapshot formats a bounded diagnostic view of the network's
// in-flight state: how many routers are active, total buffered and
// on-wire flits, the injected/drained counters, and — for the first
// few active routers — per-output-port per-VC credit state. The sim
// layer's livelock watchdog attaches it to its abort error; the
// auditor attaches it to violation panics. It must be called with no
// shard running.
func (n *Network) DiagSnapshot() string {
	var b strings.Builder
	active, buffered, onWires := 0, 0, 0
	var activeIDs []int
	for id, r := range n.routers {
		buffered += r.BufferedTotal()
		onWires += r.InputWireTotal()
		if !r.Idle() {
			active++
			if len(activeIDs) < 16 {
				activeIDs = append(activeIDs, id)
			}
		}
	}
	injected, drained := n.auditCounters()
	fmt.Fprintf(&b, "%d/%d routers active; %d flits buffered, %d on wires; %d injected, %d drained",
		active, n.topo.Nodes(), buffered, onWires, injected, drained)
	if active > 0 {
		fmt.Fprintf(&b, "\nactive routers (first %d of %d): %v", len(activeIDs), active, activeIDs)
	}
	ports := n.topo.Ports()
	detail := activeIDs
	if len(detail) > 8 {
		detail = detail[:8]
	}
	for _, id := range detail {
		r := n.routers[id]
		fmt.Fprintf(&b, "\nrouter %4d: buffered=%d wire=%d credits", id, r.BufferedTotal(), r.InputWireTotal())
		for p := 1; p < ports; p++ {
			if !r.HasOutputWire(p) {
				continue
			}
			fmt.Fprintf(&b, " out%d[", p)
			first := true
			for m := r.OutVCMask(p); m != 0; m &= m - 1 {
				vc := bits.TrailingZeros64(m)
				if !first {
					b.WriteByte(' ')
				}
				fmt.Fprintf(&b, "%d", r.Credits(p, vc))
				first = false
			}
			b.WriteByte(']')
		}
	}
	return b.String()
}
