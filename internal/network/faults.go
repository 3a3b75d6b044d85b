package network

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"routersim/internal/rng"
	"routersim/internal/router"
	"routersim/internal/topology"
)

// This file implements deterministic fault injection: a FaultPlan parsed
// from a compact spec string kills links or whole routers at given
// cycles. Faults follow a graceful-drain model — a kill changes only
// future routing decisions. A network with a fault plan is the only one
// that holds per-destination state: next-hop tables, seeded with the
// topology's dimension-order routes and served to the routers through
// the routing policies (routing.go). At each fault cycle the tables are
// rebuilt as up*/down* routes over a BFS orientation of the live graph
// (deadlock-free for any fault pattern; see reroute), dead output ports
// are masked out of the adaptive candidate sets, and destinations
// severed from a source are marked with the router.Unroutable sentinel:
// packets to them drain through the ejection port of the router that
// discovered the partition and are counted, not delivered. Faults apply
// only between shard windows, with no shard running, so a faulted run
// remains byte-identical across shard counts, worker counts and the
// full-scan policy.

// FaultEvent is one parsed entry of a fault plan. Exactly one of the
// kinds is active: a named link (Link), a named router (Router >= 0), or
// a seeded random draw (RandLinks/RandRouters > 0) resolved against the
// live topology when the network is built.
type FaultEvent struct {
	// Cycle is the simulation cycle the fault takes effect: routing
	// decisions at cycles >= Cycle see the post-fault network.
	Cycle int64
	// LinkA, LinkB name the endpoints of a link kill (every physical
	// channel between the pair dies, both directions). Valid when
	// IsLink.
	LinkA, LinkB int
	IsLink       bool
	// Router names a router kill (all its links die; it keeps draining
	// buffered flits). Valid when >= 0.
	Router int
	// RandLinks / RandRouters ask for that many distinct live links or
	// routers drawn with Seed at resolution time.
	RandLinks   int
	RandRouters int
	// Seed seeds a random event's draw; when HasSeed is false the
	// network's Config.Seed is used.
	Seed    uint64
	HasSeed bool
}

// FaultPlan is a parsed fault-injection spec: an ordered list of fault
// events. Parse with ParseFaults; the zero value means no faults.
type FaultPlan struct {
	Events []FaultEvent
}

// ParseFaults parses a fault-injection spec: ';'-separated events, each
// `link:A-B@cycle=N`, `router:R@cycle=N`, `rand:links=K[,seed=S]@cycle=N`,
// or `rand:routers=K[,seed=S]@cycle=N`. An empty spec returns nil.
// Structural validation against a concrete topology (endpoints exist,
// the named pair is actually linked) happens when the network is built.
func ParseFaults(spec string) (*FaultPlan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var plan FaultPlan
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		ev, err := parseFaultEvent(part)
		if err != nil {
			return nil, err
		}
		plan.Events = append(plan.Events, ev)
	}
	if len(plan.Events) == 0 {
		return nil, fmt.Errorf("faults: empty spec %q", spec)
	}
	return &plan, nil
}

func parseFaultEvent(s string) (FaultEvent, error) {
	ev := FaultEvent{Router: -1}
	head, tail, ok := strings.Cut(s, "@")
	if !ok {
		return ev, fmt.Errorf("faults: event %q needs @cycle=N", s)
	}
	cyc, ok := strings.CutPrefix(tail, "cycle=")
	if !ok {
		return ev, fmt.Errorf("faults: event %q: expected @cycle=N, got @%s", s, tail)
	}
	n, err := strconv.ParseInt(cyc, 10, 64)
	if err != nil || n < 0 {
		return ev, fmt.Errorf("faults: event %q: bad cycle %q", s, cyc)
	}
	ev.Cycle = n
	kind, params, ok := strings.Cut(head, ":")
	if !ok {
		return ev, fmt.Errorf("faults: event %q needs a kind (link:, router:, rand:)", s)
	}
	switch kind {
	case "link":
		a, b, ok := strings.Cut(params, "-")
		if !ok {
			return ev, fmt.Errorf("faults: link event %q needs endpoints A-B", s)
		}
		ev.LinkA, err = atoiNode(a)
		if err == nil {
			ev.LinkB, err = atoiNode(b)
		}
		if err != nil || ev.LinkA == ev.LinkB {
			return ev, fmt.Errorf("faults: link event %q: bad endpoints", s)
		}
		if ev.LinkA > ev.LinkB {
			ev.LinkA, ev.LinkB = ev.LinkB, ev.LinkA
		}
		ev.IsLink = true
	case "router":
		ev.Router, err = atoiNode(params)
		if err != nil {
			return ev, fmt.Errorf("faults: router event %q: bad id", s)
		}
	case "rand":
		for _, p := range strings.Split(params, ",") {
			key, val, ok := strings.Cut(p, "=")
			if !ok {
				return ev, fmt.Errorf("faults: rand event %q: bad parameter %q", s, p)
			}
			switch key {
			case "links":
				ev.RandLinks, err = atoiNode(val)
			case "routers":
				ev.RandRouters, err = atoiNode(val)
			case "seed":
				ev.Seed, err = strconv.ParseUint(val, 10, 64)
				ev.HasSeed = true
			default:
				return ev, fmt.Errorf("faults: rand event %q: unknown parameter %q", s, key)
			}
			if err != nil {
				return ev, fmt.Errorf("faults: rand event %q: bad value %q", s, val)
			}
		}
		if (ev.RandLinks > 0) == (ev.RandRouters > 0) {
			return ev, fmt.Errorf("faults: rand event %q needs exactly one of links=K, routers=K (K > 0)", s)
		}
	default:
		return ev, fmt.Errorf("faults: unknown event kind %q in %q", kind, s)
	}
	return ev, nil
}

func atoiNode(s string) (int, error) {
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad number %q", s)
	}
	return n, nil
}

// Canonical returns the canonical spelling of the plan: each event in
// its normal form, joined by ';'. Two specs with equal canonical strings
// describe the same plan.
func (fp *FaultPlan) Canonical() string {
	if fp == nil || len(fp.Events) == 0 {
		return ""
	}
	parts := make([]string, len(fp.Events))
	for i, ev := range fp.Events {
		switch {
		case ev.IsLink:
			parts[i] = fmt.Sprintf("link:%d-%d@cycle=%d", ev.LinkA, ev.LinkB, ev.Cycle)
		case ev.Router >= 0:
			parts[i] = fmt.Sprintf("router:%d@cycle=%d", ev.Router, ev.Cycle)
		case ev.RandLinks > 0:
			parts[i] = randCanon("links", ev.RandLinks, ev)
		default:
			parts[i] = randCanon("routers", ev.RandRouters, ev)
		}
	}
	return strings.Join(parts, ";")
}

func randCanon(what string, k int, ev FaultEvent) string {
	if ev.HasSeed {
		return fmt.Sprintf("rand:%s=%d,seed=%d@cycle=%d", what, k, ev.Seed, ev.Cycle)
	}
	return fmt.Sprintf("rand:%s=%d@cycle=%d", what, k, ev.Cycle)
}

// CanonicalFaults parses a fault spec and returns its canonical
// spelling ("" for no faults). The harness uses it for scenario labels
// and dedup.
func CanonicalFaults(spec string) (string, error) {
	fp, err := ParseFaults(spec)
	if err != nil {
		return "", err
	}
	return fp.Canonical(), nil
}

// resolvedFault is one fault application: at Cycle, mark each (node,
// port) in kills dead. Reciprocal directions are already included.
type resolvedFault struct {
	cycle int64
	kills [][2]int32
}

// faultState is the runtime fault machinery on a Network: the resolved
// event list (sorted by cycle), the application cursor, the adjacency
// table the reroute BFS walks, and its scratch storage.
type faultState struct {
	events []resolvedFault
	idx    int
	adj    []int32 // nodes×ports: neighbor id, -1 where no link
	comp   []int32 // reroute scratch: live-component root per node
	level  []int32 // reroute scratch: BFS depth in the component
	order  []int32 // reroute scratch: nodes by ascending (level, id)
	cnt    []int32 // reroute scratch: counting-sort buckets
	ddown  []int32 // reroute scratch: down-only distance to dst
	fdist  []int32 // reroute scratch: committed up*/down* distance
	queue  []int32 // BFS scratch
}

// nextFaultCycle returns the cycle of the earliest unapplied fault, or
// maxInt64 when none remain.
func (fs *faultState) nextFaultCycle() int64 {
	if fs == nil || fs.idx >= len(fs.events) {
		return math.MaxInt64
	}
	return fs.events[fs.idx].cycle
}

// resolveFaults turns the parsed plan into concrete (node, port) kills
// against the topology, drawing random events from their seeds (default
// seed: the network seed). Events resolve in cycle order so a random
// draw's candidate pool excludes everything already dead. Structural
// errors (unknown node, pair not linked, more kills requested than live
// candidates) surface here.
func resolveFaults(fp *FaultPlan, topo topology.Topology, netSeed uint64) (*faultState, error) {
	nodes, ports := topo.Nodes(), topo.Ports()
	fs := &faultState{
		adj:   make([]int32, nodes*ports),
		comp:  make([]int32, nodes),
		level: make([]int32, nodes),
		order: make([]int32, nodes),
		cnt:   make([]int32, nodes+1),
		ddown: make([]int32, nodes),
		fdist: make([]int32, nodes),
		queue: make([]int32, 0, nodes),
	}
	for id := 0; id < nodes; id++ {
		for port := 0; port < ports; port++ {
			fs.adj[id*ports+port] = -1
			if port == topology.PortLocal {
				continue
			}
			if next, _, ok := topo.Neighbor(id, port); ok {
				fs.adj[id*ports+port] = int32(next)
			}
		}
	}

	// Stable sort by cycle keeps same-cycle events in spec order.
	events := make([]FaultEvent, len(fp.Events))
	copy(events, fp.Events)
	sort.SliceStable(events, func(i, j int) bool { return events[i].Cycle < events[j].Cycle })

	dead := make([]uint64, nodes) // directed (node, port) already killed
	deadRouter := make([]bool, nodes)
	killLink := func(rf *resolvedFault, id int, port int) {
		// Kill both directions of the physical channel.
		next, inPort, ok := topo.Neighbor(id, port)
		if !ok {
			return
		}
		dead[id] |= 1 << uint(port)
		dead[next] |= 1 << uint(inPort)
		rf.kills = append(rf.kills, [2]int32{int32(id), int32(port)}, [2]int32{int32(next), int32(inPort)})
	}

	for _, ev := range events {
		rf := resolvedFault{cycle: ev.Cycle}
		switch {
		case ev.IsLink:
			if ev.LinkA >= nodes || ev.LinkB >= nodes {
				return nil, fmt.Errorf("faults: link %d-%d: node out of range (topology has %d nodes)", ev.LinkA, ev.LinkB, nodes)
			}
			found := false
			for port := 1; port < ports; port++ {
				if fs.adj[ev.LinkA*ports+port] == int32(ev.LinkB) {
					killLink(&rf, ev.LinkA, port)
					found = true
				}
			}
			if !found {
				return nil, fmt.Errorf("faults: nodes %d and %d are not linked on %s", ev.LinkA, ev.LinkB, topo.Name())
			}
		case ev.Router >= 0:
			if ev.Router >= nodes {
				return nil, fmt.Errorf("faults: router %d out of range (topology has %d nodes)", ev.Router, nodes)
			}
			deadRouter[ev.Router] = true
			for port := 1; port < ports; port++ {
				if fs.adj[ev.Router*ports+port] >= 0 && dead[ev.Router]&(1<<uint(port)) == 0 {
					killLink(&rf, ev.Router, port)
				}
			}
		default:
			seed := netSeed
			if ev.HasSeed {
				seed = ev.Seed
			}
			r := rng.New(seed)
			if ev.RandLinks > 0 {
				// Candidate pool: every live physical channel, once, in
				// canonical order (enumerated from its lower-id endpoint;
				// parallel channels between a pair count separately).
				var cands [][2]int32
				for id := 0; id < nodes; id++ {
					for port := 1; port < ports; port++ {
						next := fs.adj[id*ports+port]
						if next > int32(id) && dead[id]&(1<<uint(port)) == 0 {
							cands = append(cands, [2]int32{int32(id), int32(port)})
						}
					}
				}
				if ev.RandLinks > len(cands) {
					return nil, fmt.Errorf("faults: rand:links=%d but only %d live links remain", ev.RandLinks, len(cands))
				}
				for i := 0; i < ev.RandLinks; i++ {
					j := i + r.Intn(len(cands)-i)
					cands[i], cands[j] = cands[j], cands[i]
					killLink(&rf, int(cands[i][0]), int(cands[i][1]))
				}
			} else {
				var cands []int32
				for id := 0; id < nodes; id++ {
					if !deadRouter[id] {
						cands = append(cands, int32(id))
					}
				}
				if ev.RandRouters > len(cands) {
					return nil, fmt.Errorf("faults: rand:routers=%d but only %d live routers remain", ev.RandRouters, len(cands))
				}
				for i := 0; i < ev.RandRouters; i++ {
					j := i + r.Intn(len(cands)-i)
					cands[i], cands[j] = cands[j], cands[i]
					id := int(cands[i])
					deadRouter[id] = true
					for port := 1; port < ports; port++ {
						if fs.adj[id*ports+port] >= 0 && dead[id]&(1<<uint(port)) == 0 {
							killLink(&rf, id, port)
						}
					}
				}
			}
		}
		fs.events = append(fs.events, rf)
	}
	return fs, nil
}

// buildFaults allocates the tables only a faulted network has: the
// dead-port masks and the next-hop tables (one slab, row id = router
// id's). resetFaults fills them.
func (n *Network) buildFaults() {
	nodes := n.topo.Nodes()
	n.deadOut = make([]uint64, nodes)
	n.routeTab = make([][]uint8, nodes)
	slab := make([]uint8, nodes*nodes)
	for id := range n.routeTab {
		n.routeTab[id] = slab[id*nodes : (id+1)*nodes : (id+1)*nodes]
	}
}

// resetFaults rewinds a faulted network to before its first fault: the
// plan's events (resolved for this run's seed) unapplied, every port
// live, each table row the dimension-order routes.
func (n *Network) resetFaults(fs *faultState) {
	n.faults = fs
	clear(n.deadOut)
	for id, row := range n.routeTab {
		for dst := range row {
			row[dst] = uint8(n.topo.Route(id, dst))
		}
	}
}

// applyFaults applies every fault event due at or before now: dead
// output ports are ORed into deadOut (the adaptive policies read it) and
// the routing tables are rebuilt on the live graph. Callers hold the
// engine at a barrier (no router stepping concurrently); every engine
// applies a given fault before any routing decision of a cycle >= its
// fault cycle, which is what keeps faulted runs byte-identical across
// engines.
func (n *Network) applyFaults(now int64) {
	fs := n.faults
	if fs.idx >= len(fs.events) || fs.events[fs.idx].cycle > now {
		return
	}
	// The rebuilt tables depend only on the final live graph, so an
	// engine catching up on several fault cycles at once — which only
	// happens across decision-free spans, because every engine clamps
	// its stepping horizon to the next unapplied fault cycle — can fold
	// them into one rebuild and stay identical to an engine that applied
	// each fault on time.
	for fs.idx < len(fs.events) && fs.events[fs.idx].cycle <= now {
		for _, k := range fs.events[fs.idx].kills {
			n.deadOut[k[0]] |= 1 << uint(k[1])
		}
		fs.idx++
	}
	n.reroute()
}

// reroute rebuilds every routing-table column as up*/down* routes on
// the live graph. Every live edge is oriented by a BFS of each
// component (rooted at its lowest-numbered node): the direction toward
// the lower (level, id) endpoint is "up", the other "down", and a legal
// route takes all its up hops strictly before its down hops. Any such
// discipline is deadlock-free on every VC of every router kind — both
// phases move through the acyclic (level, id) order monotonically, so
// the channel dependency graph has no cycle for an arbitrary fault
// pattern — a guarantee no shortest-path repair can give once the
// dimension-order turn discipline is broken (a repaired shortest path
// may pair X→Y with Y→X turns and close a cycle). On an unfaulted mesh
// or hypercube the discipline costs nothing: it reduces to
// negative-first / e-cube order, and every route stays minimal.
//
// A single next-hop table cannot track which phase a packet is in, so
// the route construction is made phase-consistent by commitment: a node
// with any down-only path to dst takes the shortest one (ddown, a
// backward BFS over down edges — every hop of which lands on another
// committed-down node), and only nodes with no down-only path climb,
// taking the up edge minimizing the committed distance fdist. The climb
// strictly descends the (level, id) order and down hops strictly
// shrink ddown, so table routes are loop-free with bounded length.
// Sources in a different component than dst get the router.Unroutable
// sentinel. Tables are rewritten in place; the routing policies alias
// the same rows.
func (n *Network) reroute() {
	fs := n.faults
	nodes := len(n.routeTab)
	ports := n.cfg.Router.Ports
	// BFS spanning forest of the live graph: component roots and levels
	// define the edge orientation.
	comp, level := fs.comp, fs.level
	for i := range comp {
		comp[i] = -1
	}
	q := fs.queue
	for root := 0; root < nodes; root++ {
		if comp[root] >= 0 {
			continue
		}
		comp[root], level[root] = int32(root), 0
		q = append(q[:0], int32(root))
		for qi := 0; qi < len(q); qi++ {
			u := int(q[qi])
			deadm := n.deadOut[u]
			for port := 1; port < ports; port++ {
				if deadm&(1<<uint(port)) != 0 {
					continue
				}
				v := fs.adj[u*ports+port]
				if v < 0 || comp[v] >= 0 {
					continue
				}
				comp[v], level[v] = comp[u], level[u]+1
				q = append(q, v)
			}
		}
	}
	// Counting sort into ascending (level, id) — a topological order of
	// the up orientation, so fdist[w] is final before any v above w.
	order, cnt := fs.order, fs.cnt
	for i := range cnt {
		cnt[i] = 0
	}
	for v := 0; v < nodes; v++ {
		cnt[level[v]+1]++
	}
	for l := 1; l <= nodes; l++ {
		cnt[l] += cnt[l-1]
	}
	for v := 0; v < nodes; v++ {
		order[cnt[level[v]]] = int32(v)
		cnt[level[v]]++
	}

	ddown, fdist := fs.ddown, fs.fdist
	for dst := 0; dst < nodes; dst++ {
		cdst := comp[dst]
		// Backward BFS from dst over down edges only: ddown[v] = length
		// of the shortest v→dst route of pure down hops (-1 = none).
		// v→x is a down hop iff (level, id) of x exceeds v's.
		for i := range ddown {
			ddown[i] = -1
		}
		ddown[dst] = 0
		q = append(q[:0], int32(dst))
		for qi := 0; qi < len(q); qi++ {
			x := int(q[qi])
			deadm := n.deadOut[x]
			for port := 1; port < ports; port++ {
				if deadm&(1<<uint(port)) != 0 {
					continue
				}
				v := fs.adj[x*ports+port]
				if v < 0 || ddown[v] >= 0 {
					continue
				}
				if level[v] < level[x] || (level[v] == level[x] && v < int32(x)) {
					ddown[v] = ddown[x] + 1
					q = append(q, v)
				}
			}
		}
		// Fill the column in (level, id) order: committed-down nodes
		// take their shortest down hop, the rest climb the up edge with
		// the smallest committed distance (the BFS-tree parent guarantees
		// one exists within the component).
		fdist[dst] = 0
		for _, vv := range order {
			v := int(vv)
			if v == dst {
				continue // routeTab[dst][dst] stays PortLocal
			}
			if comp[v] != cdst {
				n.routeTab[v][dst] = router.Unroutable
				continue
			}
			deadm := n.deadOut[v]
			if ddown[v] >= 0 {
				fdist[v] = ddown[v]
				for port := 1; port < ports; port++ {
					if deadm&(1<<uint(port)) != 0 {
						continue
					}
					x := fs.adj[v*ports+port]
					if x < 0 || ddown[x] != ddown[v]-1 {
						continue
					}
					if level[x] > level[v] || (level[x] == level[v] && x > int32(v)) {
						n.routeTab[v][dst] = uint8(port)
						break
					}
				}
				continue
			}
			best, bestPort := int32(-1), -1
			for port := 1; port < ports; port++ {
				if deadm&(1<<uint(port)) != 0 {
					continue
				}
				x := fs.adj[v*ports+port]
				if x < 0 || (level[x] > level[v] || (level[x] == level[v] && x > int32(v))) {
					continue // missing, or a down edge
				}
				if f := fdist[x]; best < 0 || f < best {
					best, bestPort = f, port
				}
			}
			if bestPort < 0 {
				panic("network: faults: no up*/down* route within a live component")
			}
			fdist[v] = best + 1
			n.routeTab[v][dst] = uint8(bestPort)
		}
	}
	fs.queue = q[:0]
}
