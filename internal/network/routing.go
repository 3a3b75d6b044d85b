package network

import (
	"fmt"

	"routersim/internal/flit"
	"routersim/internal/router"
	"routersim/internal/topology"
)

// This file is the network's side of the router's single routing seam
// (router.RoutingPolicy): the policies behind Config.Routing. The
// default, "dor", is the paper's deterministic dimension-order routing,
// a pure function of (router, destination) evaluated once per head flit.
// The alternative, "adaptive:minimal", is minimal-adaptive routing with
// an escape layer (Duato's methodology): the VC space is split into
// escape VCs (the low topology.VCClasses() VCs, which run the
// deterministic hop with its dateline classes) and adaptive VCs (the
// rest, free to take any productive port from
// topology.RouteCandidates). Head flits alternate VC-allocation attempts
// between the adaptive layer (even attempts, port chosen by
// emptiest-downstream credit count) and the escape layer (odd attempts,
// deterministic port only); since a packet blocked on the adaptive layer
// always retries the escape layer next cycle, and the escape layer alone
// is deadlock-free, the whole network is.

// routingMode is the parsed form of Config.Routing.
type routingMode uint8

const (
	// routeDOR is deterministic dimension-order routing.
	routeDOR routingMode = iota
	// routeAdaptiveMinimal is minimal-adaptive routing over escape VCs.
	routeAdaptiveMinimal
)

// ParseRouting parses a routing-policy spec: "" or "dor" for
// dimension-order routing, "adaptive" or "adaptive:minimal" for
// minimal-adaptive routing with escape VCs.
func ParseRouting(spec string) (routingMode, error) {
	switch spec {
	case "", "dor":
		return routeDOR, nil
	case "adaptive", "adaptive:minimal":
		return routeAdaptiveMinimal, nil
	default:
		return routeDOR, fmt.Errorf("routing: unknown policy %q (want dor or adaptive:minimal)", spec)
	}
}

// CanonicalRouting parses a routing spec and returns its canonical
// spelling ("" for the default dimension-order routing). The harness
// uses it for scenario labels and dedup.
func CanonicalRouting(spec string) (string, error) {
	mode, err := ParseRouting(spec)
	if err != nil {
		return "", err
	}
	if mode == routeAdaptiveMinimal {
		return "adaptive:minimal", nil
	}
	return "", nil
}

// dorPolicy is one router's deterministic routing: the topology's
// dimension-order Route and dateline VCMask, evaluated per head flit, so
// a router carries no per-destination state. Only a fault plan installs a
// next-hop row, which faults.go rewrites in place at fault barriers while
// no router is stepping; everything else the policy reads is immutable —
// the determinism contract of router.RoutingPolicy.
type dorPolicy struct {
	topo topology.Topology
	id   int
	// vcs is the VC count the topology's classes split (see VCMask); 0
	// makes every VC a candidate, skipping the call on classless
	// topologies.
	vcs int
	// row is this router's live next-hop table row (aliases
	// n.routeTab[id]); nil routes functionally.
	row []uint8
}

// Route implements router.RoutingPolicy.
func (dp *dorPolicy) Route(_ *router.Router, p *flit.Packet, _ int) (int, uint64) {
	port := dp.port(p)
	return port, dp.mask(p.Dst, port)
}

// port returns the deterministic next hop toward p's destination. A
// destination severed on the live graph drains through this router's
// ejection port, counted as dropped.
func (dp *dorPolicy) port(p *flit.Packet) int {
	if dp.row == nil {
		return dp.topo.Route(dp.id, p.Dst)
	}
	port := dp.row[p.Dst]
	if port == router.Unroutable {
		p.Dropped = true
		return topology.PortLocal
	}
	return int(port)
}

// mask returns the VCs the hop through port may allocate.
func (dp *dorPolicy) mask(dst, port int) uint64 {
	if dp.vcs == 0 {
		return ^uint64(0)
	}
	return dp.topo.VCMask(dp.id, dst, port, dp.vcs)
}

// adaptivePolicy is the per-router policy implementing minimal-adaptive
// routing with escape VCs. The scratch buffer makes Route
// allocation-free; beyond its escape layer it reads router-local credit
// counts and, on faulted networks, the barrier-synchronized deadOut and
// routeTab.
type adaptivePolicy struct {
	// esc is the escape layer: the deterministic hop, its classes
	// splitting the low VCClasses() VCs (VC 0 alone on classless
	// topologies).
	esc       dorPolicy
	n         *Network
	adaptMask uint64 // adaptive layer = VCs [VCClasses(), VCs)

	buf [topology.MaxPorts]uint8 // RouteCandidates scratch
}

// Adaptive implements router.AdaptivePolicy: the port is re-picked on
// every VC-allocation retry.
func (ap *adaptivePolicy) Adaptive() {}

// Route implements router.RoutingPolicy.
func (ap *adaptivePolicy) Route(r *router.Router, p *flit.Packet, attempt int) (int, uint64) {
	dst := p.Dst
	escPort := ap.esc.port(p)
	if p.Dropped {
		return escPort, ^uint64(0)
	}
	dead := ap.n.deadOut // nil on unfaulted networks
	if p.EscapeOnly || attempt&1 == 1 {
		// Escape attempt: the deterministic port on the escape VCs. On a
		// faulted network the packet is pinned to the table from its
		// first escape attempt on: the rerouted tables are loop-free
		// up*/down* routes, so the remaining hop count is bounded,
		// whereas mixing table hops (which may move away from dst in the
		// original metric) with adaptive hops (minimal in that metric)
		// could orbit forever. On an unfaulted network the deterministic
		// route is itself minimal, so no pinning is needed.
		if dead != nil {
			p.EscapeOnly = true
		}
		return escPort, ap.esc.mask(dst, escPort)
	}
	// Adaptive attempt: among the turn-model-legal productive ports,
	// pick the one with the most free downstream credits on the adaptive
	// layer (ties to the lowest port — deterministic). Under faults,
	// dead ports and next hops that lost their path to dst are skipped.
	id, topo := ap.esc.id, ap.esc.topo
	cands := topo.RouteCandidates(id, dst, ap.buf[:0])
	best, bestCredits := -1, -1
	for _, port := range cands {
		if dead != nil {
			if dead[id]&(1<<uint64(port)) != 0 {
				continue
			}
			if next, _, ok := topo.Neighbor(id, int(port)); !ok || ap.n.routeTab[next][dst] == router.Unroutable {
				continue
			}
		}
		if c := r.FreeCreditsMask(int(port), ap.adaptMask); c > bestCredits {
			best, bestCredits = int(port), c
		}
	}
	if best < 0 {
		// A fault severed every productive candidate: fall back to the
		// escape table for the rest of the packet's life.
		p.EscapeOnly = true
		return escPort, ap.esc.mask(dst, escPort)
	}
	mask := ap.adaptMask
	if best == escPort {
		// The adaptive choice coincides with the escape direction: the
		// escape VCs of that hop are legal too, widening allocation.
		mask |= ap.esc.mask(dst, best)
	}
	return best, mask
}

// installRouting builds every router's policy, carved from one slab per
// network: dimension-order routing, or the adaptive policy over it.
// Reset installs them. On a network with a fault plan the policies read
// routeTab's rows.
func (n *Network) installRouting() {
	n.policies = make([]router.RoutingPolicy, len(n.routers))
	classes := n.topo.VCClasses()
	dor := func(id, vcs int) dorPolicy {
		dp := dorPolicy{topo: n.topo, id: id, vcs: vcs}
		if n.routeTab != nil {
			dp.row = n.routeTab[id]
		}
		return dp
	}
	if n.cfg.routing == routeAdaptiveMinimal {
		adaptMask := topology.FullVCMask(n.cfg.Router.VCs) &^ topology.FullVCMask(classes)
		slab := make([]adaptivePolicy, len(n.routers))
		for id := range slab {
			slab[id] = adaptivePolicy{esc: dor(id, classes), n: n, adaptMask: adaptMask}
			n.policies[id] = &slab[id]
		}
		return
	}
	// VC overrides are rejected on class topologies (Normalize), so the
	// class masks see one uniform VC count.
	vcs := 0
	if classes > 1 {
		vcs = n.cfg.Router.VCs
	}
	slab := make([]dorPolicy, len(n.routers))
	for id := range slab {
		slab[id] = dor(id, vcs)
		n.policies[id] = &slab[id]
	}
}
