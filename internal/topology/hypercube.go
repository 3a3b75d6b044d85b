package topology

import (
	"fmt"
	"math/bits"
)

// Hypercube is the binary n-cube: 2ⁿ nodes, each linked to the n nodes
// whose index differs in exactly one bit. It is the 2-ary n-cube with a
// single channel per neighbor pair, so the router degree is n+1 — the
// topology family that stresses the delay model's p-dependence hardest
// (p grows with the network instead of staying 5).
//
// Port numbering: port 0 is local; port 1+d flips address bit d. E-cube
// (dimension-ordered) routing corrects the lowest differing bit first;
// like mesh routing it is deadlock-free without VC classes.
type Hypercube struct {
	// N is the dimension count (log₂ of the node count).
	N int
	// maxNodes is the node-count cap it was built under (0: MaxNodes).
	maxNodes int
}

// NewHypercube returns the hypercube with the given node count, which
// must be a power of two ≥ 2.
func NewHypercube(nodes int) (Hypercube, error) {
	return NewHypercubeCap(nodes, 0)
}

// NewHypercubeCap is NewHypercube with an explicit node-count cap (see
// NewCubeCap).
func NewHypercubeCap(nodes, maxNodes int) (Hypercube, error) {
	if nodes < 2 || bits.OnesCount(uint(nodes)) != 1 {
		return Hypercube{}, fmt.Errorf("topology: hypercube needs a power-of-two node count >= 2, got %d", nodes)
	}
	h := Hypercube{N: bits.Len(uint(nodes)) - 1, maxNodes: max(maxNodes, 0)}
	if err := checkSize(h.Name(), nodes, h.Ports(), maxNodes); err != nil {
		return Hypercube{}, err
	}
	return h, nil
}

// Name implements Topology.
func (h Hypercube) Name() string {
	return fmt.Sprintf("%d-cube (%d nodes)", h.N, h.Nodes())
}

// Nodes implements Topology.
func (h Hypercube) Nodes() int { return 1 << h.N }

// Ports implements Topology: one link per dimension plus local.
func (h Hypercube) Ports() int { return h.N + 1 }

// Degree implements Topology: every node has full degree.
func (h Hypercube) Degree(node int) int { return h.Ports() }

// Neighbor implements Topology: port 1+d flips bit d, and the link is
// symmetric, so the flit arrives on the same port number.
func (h Hypercube) Neighbor(node, port int) (next, inPort int, ok bool) {
	if port < 1 || port >= h.Ports() {
		return 0, 0, false
	}
	return node ^ (1 << (port - 1)), port, true
}

// Route implements e-cube routing: correct the lowest differing address
// bit. The strictly increasing dimension order makes the channel
// dependency graph acyclic, so no VC classes are needed.
func (h Hypercube) Route(cur, dst int) int {
	diff := cur ^ dst
	if diff == 0 {
		return PortLocal
	}
	return 1 + bits.TrailingZeros(uint(diff))
}

// PortName implements Topology.
func (h Hypercube) PortName(port int) string {
	if port == PortLocal {
		return "local"
	}
	if port < 0 || port >= h.Ports() {
		return fmt.Sprintf("port%d", port)
	}
	return fmt.Sprintf("d%d", port-1)
}

// Distance returns the Hamming distance between two nodes.
func (h Hypercube) Distance(a, b int) int { return bits.OnesCount(uint(a ^ b)) }

// Diameter implements Topology.
func (h Hypercube) Diameter() int { return h.N }

// AvgDistance returns the mean hop distance under uniform traffic with
// self excluded: each of n bits differs with probability ½, so
// E = n/2 · Nodes/(Nodes−1).
func (h Hypercube) AvgDistance() float64 {
	n := float64(h.Nodes())
	return float64(h.N) / 2 * n / (n - 1)
}

// UniformCapacity implements Topology: the bisection is 2^(n−1) = N/2
// channels per direction, so λ·N/4 ≤ N/2 allows 2 flits/node/cycle at
// every hypercube size — but each node injects through a single local
// channel of 1 flit/cycle, so the reachable capacity is 1.
func (h Hypercube) UniformCapacity() float64 { return 1 }

// VCClasses implements Topology: e-cube routing is deadlock-free.
func (h Hypercube) VCClasses() int { return 1 }

// VCMask implements Topology: no class restriction.
func (h Hypercube) VCMask(cur, dst, port, v int) uint64 { return FullVCMask(v) }

// RouteCandidates implements Topology: every differing address bit is a
// productive hop, and a minimal-adaptive packet may correct them in any
// order. The arbitrary order can close dependency cycles among the
// adaptive channels, so deadlock freedom rests on the escape layer,
// which runs pure e-cube (strictly increasing dimension) order.
func (h Hypercube) RouteCandidates(cur, dst int, buf []uint8) []uint8 {
	for diff := uint(cur ^ dst); diff != 0; diff &= diff - 1 {
		buf = append(buf, uint8(1+bits.TrailingZeros(diff)))
	}
	return buf
}
