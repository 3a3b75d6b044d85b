package network

import (
	"fmt"
	"testing"

	"routersim/internal/flit"
	"routersim/internal/router"
)

// faultCanonCases and faultBadSpecs are the grammar's table tests; they
// also seed FuzzParseFaults.
var faultCanonCases = []struct{ spec, want string }{
	{"link:3-7@cycle=1000", "link:3-7@cycle=1000"},
	{"link:7-3@cycle=1000", "link:3-7@cycle=1000"},
	{" link:0-1@cycle=0 ; router:12@cycle=5 ", "link:0-1@cycle=0;router:12@cycle=5"},
	{"rand:links=2@cycle=500", "rand:links=2@cycle=500"},
	{"rand:links=2,seed=9@cycle=500", "rand:links=2,seed=9@cycle=500"},
	{"rand:seed=9,links=2@cycle=500", "rand:links=2,seed=9@cycle=500"},
	{"rand:routers=3@cycle=42", "rand:routers=3@cycle=42"},
	{"router:0@cycle=0", "router:0@cycle=0"},
}

var faultBadSpecs = []string{
	"link:3-7",                       // no cycle
	"link:3-7@tick=5",                // wrong key
	"link:3@cycle=5",                 // missing endpoint
	"link:3-3@cycle=5",               // self link
	"link:3-x@cycle=5",               // non-numeric
	"link:-1-3@cycle=5",              // negative
	"router:@cycle=5",                // empty id
	"router:x@cycle=5",               // non-numeric
	"rand:links=2,routers=1@cycle=0", // both kinds
	"rand:seed=5@cycle=0",            // neither kind
	"rand:links=0@cycle=0",           // zero count
	"rand:bogus=1@cycle=0",           // unknown parameter
	"quench:3@cycle=5",               // unknown kind
	"link:1-2@cycle=-3",              // negative cycle
	"@cycle=5",                       // no kind
	";;",                             // nothing but separators
}

func TestParseFaultsCanonical(t *testing.T) {
	for _, c := range faultCanonCases {
		got, err := CanonicalFaults(c.spec)
		if err != nil {
			t.Errorf("CanonicalFaults(%q): %v", c.spec, err)
			continue
		}
		if got != c.want {
			t.Errorf("CanonicalFaults(%q) = %q, want %q", c.spec, got, c.want)
		}
		// Canonical forms are fixed points.
		again, err := CanonicalFaults(got)
		if err != nil || again != got {
			t.Errorf("CanonicalFaults(%q) not a fixed point: %q, %v", got, again, err)
		}
	}
	if got, err := CanonicalFaults("  "); err != nil || got != "" {
		t.Errorf("empty spec: got %q, %v", got, err)
	}
}

func TestParseFaultsErrors(t *testing.T) {
	for _, spec := range faultBadSpecs {
		if _, err := ParseFaults(spec); err == nil {
			t.Errorf("ParseFaults(%q): expected error, got none", spec)
		}
	}
}

// FuzzParseFaults: any string either fails to parse with an error or
// canonicalizes to a fixed point of the grammar — never a panic.
func FuzzParseFaults(f *testing.F) {
	for _, c := range faultCanonCases {
		f.Add(c.spec)
	}
	for _, spec := range faultBadSpecs {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		canon, err := CanonicalFaults(spec)
		if err != nil {
			return
		}
		if again, err := CanonicalFaults(canon); err != nil || again != canon {
			t.Errorf("CanonicalFaults(%q) = %q, which re-canonicalizes to %q, %v", spec, canon, again, err)
		}
	})
}

// TestFaultResolutionErrors pins structural validation against a
// concrete topology: naming a pair that is not linked, a node outside
// the network, or more random kills than live candidates fails at
// network construction, not mid-run.
func TestFaultResolutionErrors(t *testing.T) {
	bad := []string{
		"link:0-5@cycle=0",  // not adjacent on a 4×4 mesh
		"link:0-99@cycle=0", // out of range
		"router:16@cycle=0", // out of range
		"rand:links=1000@cycle=0",
		"rand:routers=17@cycle=0",
	}
	for _, spec := range bad {
		cfg := testConfig(router.VirtualChannel, 0.02)
		cfg.K = 4
		cfg.Faults = spec
		if err := cfg.Normalize(); err != nil {
			continue // already rejected at parse/validate time
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("New with faults %q: expected error, got none", spec)
		}
	}
}

// TestRerouteTableSound checks the rebuilt tables after a link kill:
// every pair stays routable (one link cannot partition a mesh), table
// walks terminate at the destination without loops, and the up*/down*
// discipline keeps the detours small on a mesh (near-minimal paths, no
// tree-root funnel).
func TestRerouteTableSound(t *testing.T) {
	cfg := testConfig(router.VirtualChannel, 0.02)
	cfg.Faults = "link:3-4@cycle=0"
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.applyFaults(0)

	topo := cfg.Topo
	nodes := topo.Nodes()
	manhattan := func(a, b int) int {
		dx, dy := a%8-b%8, a/8-b/8
		if dx < 0 {
			dx = -dx
		}
		if dy < 0 {
			dy = -dy
		}
		return dx + dy
	}
	worst := 0
	for src := 0; src < nodes; src++ {
		for dst := 0; dst < nodes; dst++ {
			if src == dst {
				continue
			}
			hops, cur := 0, src
			for cur != dst {
				p := n.routeTab[cur][dst]
				if p == router.Unroutable {
					t.Fatalf("%d->%d unroutable after a single link kill", src, dst)
				}
				next, _, ok := topo.Neighbor(cur, int(p))
				if !ok {
					t.Fatalf("%d->%d: dead-end port %d at node %d", src, dst, p, cur)
				}
				if n.deadOut[cur]&(1<<uint(p)) != 0 {
					t.Fatalf("%d->%d: table routes through dead port %d at node %d", src, dst, p, cur)
				}
				cur = next
				if hops++; hops > 4*nodes {
					t.Fatalf("%d->%d: routing loop", src, dst)
				}
			}
			if d := hops - manhattan(src, dst); d > worst {
				worst = d
			}
		}
	}
	if worst > 4 {
		t.Errorf("worst post-fault detour = +%d hops over minimal, want <= 4", worst)
	}
}

// TestRouterKillPartition pins the unroutable accounting: killing a
// router strands exactly its own rows and everyone's column to it.
func TestRouterKillPartition(t *testing.T) {
	cfg := testConfig(router.VirtualChannel, 0.02)
	cfg.K = 4
	cfg.Faults = "router:5@cycle=0"
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.applyFaults(0)
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			if src == dst {
				continue
			}
			unroutable := n.routeTab[src][dst] == router.Unroutable
			want := src == 5 || dst == 5
			if unroutable != want {
				t.Errorf("routeTab[%d][%d] unroutable = %v, want %v", src, dst, unroutable, want)
			}
		}
	}
}

// TestUnfaultedDropCountersZero is the satellite regression gate: on a
// fault-free network — any routing policy — the Unroutable and
// DroppedFlits counters must stay exactly zero.
func TestUnfaultedDropCountersZero(t *testing.T) {
	for _, routing := range []string{"", "adaptive:minimal"} {
		cfg := testConfig(router.SpeculativeVC, 0.4*0.5/5)
		cfg.Routing = routing
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for now := int64(0); now < simCycles(3000); now++ {
			n.Step(now)
		}
		if u, d := n.Unroutable(), n.DroppedFlits(); u != 0 || d != 0 {
			t.Errorf("routing %q: unfaulted run counted unroutable=%d droppedFlits=%d, want 0/0", routing, u, d)
		}
		n.Close()
	}
}

// TestFaultRerouteDelivery is the satellite delivery gate: kill one
// non-partitioning link mid-run and every packet must still arrive —
// zero unroutable drops, and every packet injected with enough cycles
// left to drain completes. Run under -race in CI.
func TestFaultRerouteDelivery(t *testing.T) {
	cycles := simCycles(12000)
	for _, routing := range []string{"", "adaptive:minimal"} {
		routing := routing
		t.Run("routing="+routing, func(t *testing.T) {
			t.Parallel()
			cfg := testConfig(router.VirtualChannel, 0.12*0.5/5)
			cfg.Routing = routing
			cfg.Faults = fmt.Sprintf("link:3-4@cycle=%d", cycles/4)
			n, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			created := make(map[int64]int64) // packet id -> creation cycle
			n.OnPacketCreated = func(p *flit.Packet, now int64) {
				created[p.ID] = now
			}
			n.OnPacketDone = func(p *flit.Packet, now int64) {
				delete(created, p.ID)
			}
			for now := int64(0); now < cycles; now++ {
				n.Step(now)
			}
			if u := n.Unroutable(); u != 0 {
				t.Fatalf("one link kill cannot partition a mesh, yet %d packets dropped", u)
			}
			// Everything injected before the drain window must have
			// arrived; only the freshest packets may still be in flight.
			drainWindow := cycles / 4
			for id, at := range created {
				if at < cycles-drainWindow {
					t.Errorf("packet %d injected at cycle %d never arrived by cycle %d", id, at, cycles)
				}
			}
		})
	}
}

// TestFaultedEngineIdentity extends the engine identity matrix to
// adaptive routing and fault injection: for each config the full-scan
// serial engine is the reference, and the active-set scheduler on one,
// two and four shards must reproduce its exact event trace through link
// kills, a router kill, and a seeded random kill. Run under -race in CI.
func TestFaultedEngineIdentity(t *testing.T) {
	cycles := simCycles(6000)
	faults := fmt.Sprintf("link:0-1@cycle=%d;router:5@cycle=%d;rand:links=1@cycle=%d",
		cycles/8, cycles/4, cycles/2)
	cases := []struct {
		name    string
		spec    string
		vcs     int
		routing string
		faults  string
	}{
		{"mesh-dor-faulted", "mesh:k=4", 2, "", faults},
		{"mesh-adaptive", "mesh:k=4", 2, "adaptive:minimal", ""},
		{"mesh-adaptive-faulted", "mesh:k=4", 2, "adaptive:minimal", faults},
		{"torus-adaptive-faulted", "torus", 4, "adaptive:minimal", faults},
		{"hypercube-adaptive-faulted", "hypercube:16", 2, "adaptive:minimal", faults},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			topo := mustTopo(t, tc.spec)
			rc := router.DefaultConfig(router.SpeculativeVC)
			rc.VCs = tc.vcs
			cfg := Config{
				Topo:          topo,
				Router:        rc,
				Seed:          17,
				InjectionRate: 0.3 * topo.UniformCapacity() / 5,
				Routing:       tc.routing,
				Faults:        tc.faults,
				FullScan:      true,
			}
			ref := eventTrace(t, cfg, cycles)
			for _, v := range []struct {
				label  string
				shards int
			}{
				{"active serial", 0},
				{"shards=2", 2},
				{"shards=4", 4},
			} {
				cfg := cfg
				cfg.FullScan = false
				cfg.Shards = v.shards
				compareTraces(t, v.label, ref, eventTrace(t, cfg, cycles))
			}
		})
	}
}
