// Package topology defines network topologies and deterministic routing
// for the simulator as a graph-general abstraction: any topology that
// can name its ports, wire its neighbors, route deterministically, and
// state its deadlock-avoidance virtual-channel policy plugs into the
// network layer unchanged.
//
// The paper evaluates an 8×8 mesh with dimension-ordered (XY) routing —
// a R→p routing function, the most general possible for deterministic
// routing (footnote 14). This package generalizes that to k-ary n-cubes
// of arbitrary dimension (meshes and tori), the hypercube (the 2-ary
// n-cube), and the bidirectional ring (the k-ary 1-cube torus), each
// with its own port count p — which is exactly the parameter the
// paper's delay model is most sensitive to.
package topology

import "fmt"

// Port 0 is always the local (injection/ejection) port. For 2-D cubes
// the four directional ports keep the paper's mesh numbering; they are
// provided for readability in 2-D-specific code and tests.
const (
	PortLocal = 0
	PortEast  = 1 // dimension 0, positive
	PortWest  = 2 // dimension 0, negative
	PortNorth = 3 // dimension 1, positive
	PortSouth = 4 // dimension 1, negative
)

// MaxPorts bounds the router port count of any topology: the router's
// allocation stages index ports through 64-bit occupancy bitmasks.
const MaxPorts = 64

// MaxNodes is the default node-count cap of any topology. Simulator
// state is linear in the node count (routers, wires and sources, about
// nodeBytes a node; routing is computed, not tabulated), so the cap only
// keeps a mistyped spec from silently preallocating hundreds of
// megabytes: a spec raises it explicitly with a cap=N parameter. It is
// also the largest network a fault plan accepts — faults are the one
// feature that builds a per-destination table, nodes² bytes.
const MaxNodes = 1 << 14

// MaxNodesLimit is the absolute ceiling no cap= opt-in can exceed: the
// O(nodes) router, wire, and source state still has to be addressable.
const MaxNodesLimit = 1 << 22

// Topology describes a network graph over routers with local ports. All
// methods are pure functions of the topology's parameters, safe to call
// concurrently. Route and VCMask are the routing stage itself — the
// network layer calls them once per head flit per hop (RouteCandidates
// per adaptive retry) — so they must not allocate; the rest is read at
// construction only.
type Topology interface {
	// Name identifies the topology for reports.
	Name() string
	// Nodes returns the number of routers.
	Nodes() int
	// Ports returns the number of router ports p, including the local
	// port 0 — the maximum degree; edge routers of a mesh leave some
	// ports unconnected. This is the p of the paper's delay model.
	Ports() int
	// Degree returns the number of connected ports at node, including
	// the local port (Degree == Ports away from mesh edges).
	Degree(node int) int
	// Neighbor returns the router reached from node through output port
	// port and the input port it arrives on there, or ok=false if the
	// port faces an edge (mesh boundary) or is the local port. The
	// wiring is reciprocal: Neighbor(a, p) = (b, q, true) implies
	// Neighbor(b, q) = (a, p, true).
	Neighbor(node, port int) (next, inPort int, ok bool)
	// Route returns the output port a packet at node cur should take
	// toward dst (dimension-ordered). Route(cur, cur) is PortLocal.
	Route(cur, dst int) int
	// PortName returns a human-readable label for a port.
	PortName(port int) string
	// Diameter returns the maximum routed hop count between any pair.
	Diameter() int
	// UniformCapacity returns the bisection-limited network capacity
	// under uniform random traffic, in flits per node per cycle.
	UniformCapacity() float64
	// VCClasses returns the number of virtual-channel classes
	// dimension-ordered routing needs for deadlock freedom: 1 when the
	// channel dependency graph is already acyclic (meshes, hypercubes),
	// 2 for dateline classes on wraparound rings (tori, rings). The
	// router's VC count must be a positive multiple of VCClasses.
	VCClasses() int
	// VCMask returns the virtual channels (as a candidate bitmask over
	// v VCs) that a packet at node cur heading to dst may allocate on
	// the hop through port. Topologies with VCClasses() == 1 return the
	// full mask; v must be a positive multiple of VCClasses().
	VCMask(cur, dst, port, v int) uint64
	// RouteCandidates appends to buf the output ports an adaptive
	// minimal router at cur may legally offer a packet heading to dst,
	// and returns the extended slice (pass buf[:0] to reuse storage; no
	// allocation when capacity suffices). Every candidate is productive
	// (it lies on some minimal path), and the set obeys the family's
	// turn-model legality so that adaptive choice can never close a
	// dependency cycle outside the escape layer: meshes restrict to the
	// negative-first turn model (all productive negative-direction
	// ports, or — only when none remain — the productive positive
	// ports), wrap topologies offer the shorter way around each
	// unmatched ring (dateline VC classes break the remaining ring
	// cycles on the escape layer), and hypercubes offer every differing
	// dimension (the escape layer runs pure e-cube order). The set is
	// non-empty whenever cur != dst; RouteCandidates(cur, cur, buf)
	// returns buf with nothing appended.
	RouteCandidates(cur, dst int, buf []uint8) []uint8
}

// FullVCMask returns the unrestricted candidate mask over v VCs.
func FullVCMask(v int) uint64 { return (uint64(1) << v) - 1 }

// VCClassMask returns the bitmask of virtual channels a packet may
// request on its next hop, given v VCs per port split into two dateline
// classes (low half = class 0, high half = class 1). crossed reports
// whether the packet has already crossed the dateline in the dimension
// it is currently traversing. v must be even and ≥ 2.
func VCClassMask(v int, crossed bool) uint64 {
	half := v / 2
	low := (uint64(1) << half) - 1
	if crossed {
		return low << half
	}
	return low
}

// checkSize validates a topology's node and port counts against the
// package bounds. maxNodes <= 0 applies the MaxNodes default; any
// stated cap is itself clamped to MaxNodesLimit.
func checkSize(name string, nodes, ports, maxNodes int) error {
	limit := maxNodes
	if limit <= 0 {
		limit = MaxNodes
	}
	if limit > MaxNodesLimit {
		limit = MaxNodesLimit
	}
	if nodes > limit {
		if nodes > MaxNodesLimit {
			return fmt.Errorf("topology: %s has %d nodes; absolute limit %d", name, nodes, MaxNodesLimit)
		}
		return fmt.Errorf("topology: %s has %d nodes; max %d — building it preallocates ≈%s of router, wire and source state (linear in the node count); opt in by adding cap=%d to the topology spec",
			name, nodes, limit, MemEstimate(nodes), nodes)
	}
	if ports > MaxPorts {
		return fmt.Errorf("topology: %s needs %d router ports; max %d", name, ports, MaxPorts)
	}
	return nil
}

// nodeBytes bounds what network.New allocates per node at the paper's
// parameters: router buffers, wires, allocator and source state. The
// root package's TestFootprint holds every per-router bound it measures
// at or below this (read back as MemEstimate(1<<20), whose GiB are KiB
// per node), so a router that outgrows the estimate fails that test. It
// is also the byte budget a node of the cap stands for (Budget).
const nodeBytes = 7 << 10

// nodeBytesPorts is the port count of the router nodeBytes bounds: the
// 2-D mesh's five. Router state is per port (VC records, buffers,
// credit counters, wires), so a router of more ports stands for more.
const nodeBytesPorts = 5

// Budget returns the bytes of router, wire and source state t's node cap
// stands for: nodeBytes a node — scaled by the port count past a 2-D
// mesh's five — at the cap= its spec stated, MaxNodes by default.
// network.New refuses a network whose state outgrows it, so more VCs or
// deeper buffers than the paper's opt in through cap= just as more
// nodes do. A Topology from outside this package has the default cap.
func Budget(t Topology) int64 {
	limit := MaxNodes
	if c, ok := t.(interface{ nodeCap() int }); ok && c.nodeCap() > 0 {
		limit = min(c.nodeCap(), MaxNodesLimit)
	}
	return int64(limit) * nodeBytes * int64(max(t.Ports(), nodeBytesPorts)) / nodeBytesPorts
}

func (c Cube) nodeCap() int      { return c.maxNodes }
func (h Hypercube) nodeCap() int { return h.maxNodes }

// MemEstimate is a rough preallocation estimate for a network of this
// many nodes at the paper's parameters: nodeBytes per node, and nothing
// that grows faster than the node count.
func MemEstimate(nodes int) string {
	b := int64(nodes) * nodeBytes
	if b >= 1<<30 {
		return fmt.Sprintf("%.1f GiB", float64(b)/(1<<30))
	}
	return fmt.Sprintf("%.0f MiB", float64(b)/(1<<20))
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
