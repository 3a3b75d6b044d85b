package topology

import (
	"fmt"
	"strings"
)

// Cube is a k-ary n-cube: an n-dimensional grid of radix k, either a
// mesh (open boundaries) or, with Wrap, a torus (wraparound links).
// Dimension 0 is the innermost coordinate (node % K), so the 2-D cube
// reproduces the paper's mesh node numbering and port layout exactly.
//
// Port numbering: port 0 is local; dimension d owns ports 1+2d
// (positive direction) and 2+2d (negative direction). For n = 2 these
// are the mesh constants PortEast/West/North/South.
//
// Dimension-ordered routing on a mesh is deadlock-free without virtual
// channels — which is why the paper can compare wormhole routers (no
// VCs) against VC routers on equal terms. A torus additionally needs
// dateline VC classes to break the cyclic channel dependency of each
// wraparound ring: packets use class 0 while the dateline of the
// dimension being traversed is still ahead, class 1 from the crossing
// hop onward (see VCMask).
type Cube struct {
	// K is the radix (nodes per dimension), N the dimension count.
	K, N int
	// Wrap closes every dimension into a ring (torus).
	Wrap bool

	// ring marks a Cube built by NewRing, for display only.
	ring bool
	// maxNodes is the node-count cap it was built under (0: MaxNodes).
	maxNodes int
}

// NewCube returns a k-ary n-cube mesh or torus, validating the size
// against the default package bounds.
func NewCube(k, n int, wrap bool) (Cube, error) {
	return NewCubeCap(k, n, wrap, 0)
}

// NewCubeCap is NewCube with an explicit node-count cap: maxNodes <= 0
// applies the MaxNodes default, anything larger opts in to big networks
// up to MaxNodesLimit (spec parameter cap=N routes here).
func NewCubeCap(k, n int, wrap bool, maxNodes int) (Cube, error) {
	if k < 2 {
		return Cube{}, fmt.Errorf("topology: cube radix %d; need k >= 2", k)
	}
	if n < 1 {
		return Cube{}, fmt.Errorf("topology: cube dimension %d; need n >= 1", n)
	}
	nodes := 1
	for i := 0; i < n; i++ {
		nodes *= k
		if nodes > MaxNodesLimit {
			return Cube{}, fmt.Errorf("topology: %d-ary %d-cube exceeds the absolute limit of %d nodes", k, n, MaxNodesLimit)
		}
	}
	c := Cube{K: k, N: n, Wrap: wrap, maxNodes: max(maxNodes, 0)}
	if err := checkSize(c.Name(), nodes, c.Ports(), maxNodes); err != nil {
		return Cube{}, err
	}
	return c, nil
}

// NewMesh returns a k×k mesh, the paper's topology. It panics on k < 2
// (programmer error); spec-driven configuration goes through New, which
// returns errors instead.
func NewMesh(k int) Cube {
	c, err := NewCube(k, 2, false)
	if err != nil {
		panic(err)
	}
	return c
}

// NewTorus returns a k×k torus with dateline VC classes.
// It panics on k < 2 (programmer error), like NewMesh.
func NewTorus(k int) Cube {
	c, err := NewCube(k, 2, true)
	if err != nil {
		panic(err)
	}
	return c
}

// NewRing returns a bidirectional ring of the given node count — the
// k-ary 1-cube torus, so it inherits the dateline VC classes.
func NewRing(nodes int) (Cube, error) {
	return NewRingCap(nodes, 0)
}

// NewRingCap is NewRing with an explicit node-count cap (see
// NewCubeCap).
func NewRingCap(nodes, maxNodes int) (Cube, error) {
	c, err := NewCubeCap(nodes, 1, true, maxNodes)
	if err != nil {
		return Cube{}, fmt.Errorf("topology: ring: %w", err)
	}
	c.ring = true
	return c, nil
}

// Name implements Topology.
func (c Cube) Name() string {
	if c.ring {
		return fmt.Sprintf("%d-node ring", c.K)
	}
	kind := "mesh"
	if c.Wrap {
		kind = "torus"
	}
	dims := make([]string, c.N)
	for i := range dims {
		dims[i] = fmt.Sprint(c.K)
	}
	return fmt.Sprintf("%s %s", strings.Join(dims, "x"), kind)
}

// Nodes implements Topology.
func (c Cube) Nodes() int {
	n := 1
	for i := 0; i < c.N; i++ {
		n *= c.K
	}
	return n
}

// Ports implements Topology: local plus two directions per dimension.
func (c Cube) Ports() int { return 1 + 2*c.N }

// Degree implements Topology.
func (c Cube) Degree(node int) int {
	if c.Wrap {
		return c.Ports()
	}
	deg := 1
	for d := 0; d < c.N; d++ {
		x := c.Coord(node, d)
		if x > 0 {
			deg++
		}
		if x < c.K-1 {
			deg++
		}
	}
	return deg
}

// Coord returns the node's coordinate in dimension d.
func (c Cube) Coord(node, d int) int {
	for i := 0; i < d; i++ {
		node /= c.K
	}
	return node % c.K
}

// XY returns the coordinates of a node of a 2-D cube.
func (c Cube) XY(node int) (x, y int) { return node % c.K, node / c.K % c.K }

// Node returns the node at coordinates (x, y) of a 2-D cube.
func (c Cube) Node(x, y int) int { return y*c.K + x }

// stride returns the node-index stride of dimension d.
func (c Cube) stride(d int) int {
	s := 1
	for i := 0; i < d; i++ {
		s *= c.K
	}
	return s
}

// dimOf decodes a directional port into its dimension and direction.
func dimOf(port int) (d int, plus bool) { return (port - 1) / 2, (port-1)%2 == 0 }

// Neighbor implements Topology.
func (c Cube) Neighbor(node, port int) (next, inPort int, ok bool) {
	if port < 1 || port >= c.Ports() {
		return 0, 0, false
	}
	d, plus := dimOf(port)
	x := c.Coord(node, d)
	s := c.stride(d)
	if plus {
		if x == c.K-1 {
			if !c.Wrap {
				return 0, 0, false
			}
			return node - x*s, port + 1, true
		}
		return node + s, port + 1, true
	}
	if x == 0 {
		if !c.Wrap {
			return 0, 0, false
		}
		return node + (c.K-1)*s, port - 1, true
	}
	return node - s, port - 1, true
}

// Route implements dimension-ordered routing, lowest dimension first
// (XY routing for n = 2): correct each dimension fully, then eject. On
// a torus each ring is traversed the shorter way around, ties broken
// toward the positive direction.
func (c Cube) Route(cur, dst int) int {
	for d := 0; d < c.N; d++ {
		x, t := c.Coord(cur, d), c.Coord(dst, d)
		if x == t {
			continue
		}
		if c.Wrap {
			if forward(x, t, c.K) {
				return 1 + 2*d
			}
			return 2 + 2*d
		}
		if t > x {
			return 1 + 2*d
		}
		return 2 + 2*d
	}
	return PortLocal
}

// forward reports whether the positive direction is (weakly) shorter.
func forward(c, d, k int) bool {
	fwd := (d - c + k) % k
	return fwd <= k-fwd
}

// RouteCandidates implements Topology. On a mesh the set follows the
// negative-first turn model: while any dimension still needs a negative
// correction, only the productive negative ports are offered (a packet
// may pick any order among them); once every remaining correction is
// positive, all productive positive ports are offered. Negative-first
// forbids every positive→negative turn, which leaves the channel
// dependency graph acyclic, so even the adaptive layer alone cannot
// deadlock on a mesh. On a torus or ring each unmatched dimension
// offers its shorter-way port (ties toward positive, matching Route);
// the ring cycles this leaves are broken by the dateline VC classes on
// the escape layer, not by turn restrictions.
func (c Cube) RouteCandidates(cur, dst int, buf []uint8) []uint8 {
	if c.Wrap {
		for d := 0; d < c.N; d++ {
			x, t := c.Coord(cur, d), c.Coord(dst, d)
			if x == t {
				continue
			}
			if forward(x, t, c.K) {
				buf = append(buf, uint8(1+2*d))
			} else {
				buf = append(buf, uint8(2+2*d))
			}
		}
		return buf
	}
	n := len(buf)
	neg := false
	for d := 0; d < c.N; d++ {
		x, t := c.Coord(cur, d), c.Coord(dst, d)
		if x == t {
			continue
		}
		if t < x {
			if !neg {
				buf = buf[:n] // drop buffered positive ports
				neg = true
			}
			buf = append(buf, uint8(2+2*d))
		} else if !neg {
			buf = append(buf, uint8(1+2*d))
		}
	}
	return buf
}

// PortName implements Topology. 2-D cubes keep the paper's compass
// labels; higher dimensions use x/y/z then d<i> with +/- direction.
func (c Cube) PortName(port int) string {
	if port == PortLocal {
		return "local"
	}
	if port < 0 || port >= c.Ports() {
		return fmt.Sprintf("port%d", port)
	}
	d, plus := dimOf(port)
	if c.N == 2 {
		switch port {
		case PortEast:
			return "east"
		case PortWest:
			return "west"
		case PortNorth:
			return "north"
		case PortSouth:
			return "south"
		}
	}
	dim := [...]string{"x", "y", "z"}
	name := fmt.Sprintf("d%d", d)
	if d < len(dim) {
		name = dim[d]
	}
	if plus {
		return name + "+"
	}
	return name + "-"
}

// Distance returns the minimal hop count between two nodes.
func (c Cube) Distance(a, b int) int {
	total := 0
	for d := 0; d < c.N; d++ {
		x, y := c.Coord(a, d), c.Coord(b, d)
		if c.Wrap {
			total += ringDist(x, y, c.K)
		} else {
			total += abs(x - y)
		}
	}
	return total
}

func ringDist(a, b, k int) int {
	d := abs(a - b)
	if k-d < d {
		return k - d
	}
	return d
}

// Diameter implements Topology.
func (c Cube) Diameter() int {
	if c.Wrap {
		return c.N * (c.K / 2)
	}
	return c.N * (c.K - 1)
}

// AvgDistance returns the mean hop distance under uniform traffic with
// self-addressed packets excluded: n · E[per-dimension distance] ·
// Nodes/(Nodes−1). Per dimension, a mesh has E[|Δ|] = (k²−1)/(3k); a
// torus ring has E[dist] = k/4 for even k and (k²−1)/(4k) for odd k.
func (c Cube) AvgDistance() float64 {
	k := float64(c.K)
	var perDim float64
	if c.Wrap {
		if c.K%2 == 0 {
			perDim = k / 4
		} else {
			perDim = (k*k - 1) / (4 * k)
		}
	} else {
		perDim = (k*k - 1) / (3 * k)
	}
	n := float64(c.Nodes())
	return float64(c.N) * perDim * n / (n - 1)
}

// UniformCapacity implements Topology. The bisection of a k-ary n-cube
// mesh is k^(n−1) channels per direction; uniform traffic sends half of
// all λ·kⁿ flits across it, so λ·kⁿ/4 ≤ k^(n−1), i.e. capacity = 4/k
// flits/node/cycle (0.5 for the paper's 8×8 mesh) independent of n. A
// torus has twice the bisection: 8/k. Either bound is additionally
// capped at the injection-channel bandwidth of 1 flit/node/cycle —
// on small-radix cubes the bisection outruns what a single local port
// can ever offer, and load fractions must stay physically reachable.
func (c Cube) UniformCapacity() float64 {
	cap := 4 / float64(c.K)
	if c.Wrap {
		cap = 8 / float64(c.K)
	}
	return min(cap, 1)
}

// VCClasses implements Topology: tori need the two dateline classes.
func (c Cube) VCClasses() int {
	if c.Wrap {
		return 2
	}
	return 1
}

// VCMask implements Topology. On a mesh every VC is a candidate. On a
// torus the hop's channel is class 0 while the remaining route in the
// current dimension still has the wraparound (dateline) link ahead, and
// class 1 from the crossing hop onward (including routes that never
// wrap). Each class owns half the v VCs; v must be even and ≥ 2.
func (c Cube) VCMask(cur, dst, port, v int) uint64 {
	if !c.Wrap || port == PortLocal || port >= c.Ports() {
		return FullVCMask(v) // ejection, or no class policy at all
	}
	d, plus := dimOf(port)
	x, t := c.Coord(cur, d), c.Coord(dst, d)
	var wrapAhead bool
	if plus {
		next := (x + 1) % c.K
		wrapAhead = x+1 < c.K && t < next
	} else {
		next := (x - 1 + c.K) % c.K
		wrapAhead = x-1 >= 0 && t > next
	}
	return VCClassMask(v, !wrapAhead)
}

// CrossesDateline reports whether the hop from node through port crosses
// the wraparound link of its dimension (the dateline is between
// coordinate k−1 and 0). Always false on a mesh.
func (c Cube) CrossesDateline(node, port int) bool {
	if !c.Wrap || port < 1 || port >= c.Ports() {
		return false
	}
	d, plus := dimOf(port)
	x := c.Coord(node, d)
	if plus {
		return x == c.K-1
	}
	return x == 0
}
