package topology

import (
	"strings"
	"testing"
)

// TestSpecCapOptIn: cap=N in a spec raises the MaxNodes default, so
// topologies far past it (mesh:k=320 is the 102,400-node target from
// the scaling work) construct successfully.
func TestSpecCapOptIn(t *testing.T) {
	topo, err := New("mesh:k=320,cap=102400", 8)
	if err != nil {
		t.Fatalf("New(mesh:k=320,cap=102400): %v", err)
	}
	if topo.Nodes() != 320*320 {
		t.Fatalf("nodes = %d, want %d", topo.Nodes(), 320*320)
	}
	// Spot-check routing at scale: a dimension-ordered mesh hop from the
	// corner toward the far corner moves +x first.
	if got := topo.Route(0, 320*320-1); got != 1 {
		t.Errorf("Route(0, far corner) = port %d, want 1 (+x)", got)
	}

	s, err := Parse("mesh:k=320,cap=102400")
	if err != nil {
		t.Fatal(err)
	}
	shape, k := s.Canonical()
	if shape != "mesh:cap=102400" || k != 320 {
		t.Errorf("Canonical = (%q, %d), want (%q, 320)", shape, k, "mesh:cap=102400")
	}
	// The canonical form must round-trip through the parser.
	s2, err := Parse(shape)
	if err != nil {
		t.Fatalf("Parse(%q): %v", shape, err)
	}
	if s2.Cap != 102400 {
		t.Errorf("round-tripped Cap = %d, want 102400", s2.Cap)
	}
}

// TestCapErrorGuidance: building past MaxNodes without an opt-in must
// fail with an error that states the memory stake and names the exact
// cap= parameter that unlocks it.
func TestCapErrorGuidance(t *testing.T) {
	_, err := New("mesh:k=320", 8)
	if err == nil {
		t.Fatal("mesh:k=320 without cap= should fail")
	}
	for _, sub := range []string{"cap=102400", "iB"} {
		if !strings.Contains(err.Error(), sub) {
			t.Errorf("error %q does not mention %q", err, sub)
		}
	}

	// The stated cap must actually gate: a cap below the node count
	// still fails, and no cap can pass the absolute limit.
	if _, err := New("mesh:k=320,cap=1000", 8); err == nil {
		t.Error("cap below the node count should still fail")
	}
	if _, err := New("mesh:k=3000,cap=4194305", 8); err == nil {
		t.Error("cap above MaxNodesLimit should fail")
	} else if !strings.Contains(err.Error(), "nodes") {
		t.Errorf("over-limit error %q does not mention nodes", err)
	}
}

// TestCapConstructors: the *Cap constructors honor an explicit limit
// without a spec string in the loop.
func TestCapConstructors(t *testing.T) {
	if _, err := NewCubeCap(320, 2, false, 0); err == nil {
		t.Error("NewCubeCap with default cap should reject 102,400 nodes")
	}
	c, err := NewCubeCap(320, 2, false, 102400)
	if err != nil {
		t.Fatalf("NewCubeCap(320, 2, false, 102400): %v", err)
	}
	if c.Nodes() != 102400 {
		t.Errorf("nodes = %d, want 102400", c.Nodes())
	}
	r, err := NewRingCap(20000, 20000)
	if err != nil {
		t.Fatalf("NewRingCap(20000, 20000): %v", err)
	}
	if r.Nodes() != 20000 {
		t.Errorf("ring nodes = %d, want 20000", r.Nodes())
	}
	if _, err := NewHypercubeCap(1<<15, 0); err == nil {
		t.Error("NewHypercubeCap with default cap should reject 2^15 nodes")
	}
	h, err := NewHypercubeCap(1<<15, 1<<15)
	if err != nil {
		t.Fatalf("NewHypercubeCap(1<<15, 1<<15): %v", err)
	}
	if h.Nodes() != 1<<15 {
		t.Errorf("hypercube nodes = %d, want %d", h.Nodes(), 1<<15)
	}
}
