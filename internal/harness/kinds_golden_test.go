package harness

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"routersim/internal/router"
)

var updateKindsGolden = flag.Bool("update-kinds-golden", false,
	"rewrite testdata/kinds-golden.txt from this build (only ever at the commit a refactor starts from)")

// kindsGoldenScenarios is the kind-identity matrix: every router kind
// on both sides of its knee, plus the axes whose code paths differ per
// kind — wraparound VC classes, adaptive re-picks on VA retry, a long
// credit loop, and heterogeneous neighbours.
func kindsGoldenScenarios() []Scenario {
	var out []Scenario
	for _, kind := range router.Kinds() {
		base := Scenario{Router: kind.String(), K: 4}
		for _, load := range []float64{0.1, 0.6} {
			sc := base
			sc.Load = load
			out = append(out, sc)
		}
		slow := base
		slow.CreditDelay, slow.Load = 4, 0.3
		hetero := base
		hetero.Overrides, hetero.Load = "5:buf=2;9-10:delay=2", 0.3
		if kind.UsesVCs() {
			hetero.Overrides = "0:vcs=4,buf=2;" + hetero.Overrides
			torus, adaptive := base, base
			torus.Topology, torus.Load = "torus", 0.3
			adaptive.Routing, adaptive.Load = "adaptive:minimal", 0.3
			out = append(out, torus, adaptive)
		}
		out = append(out, slow, hetero)
	}
	return out
}

// TestKindsGolden pins every router kind bit for bit: the SHA-256 of
// each scenario's serialized seed-1 result must equal the digest
// recorded before the five step bodies were folded into one stepper.
// The single-cycle kinds have no other exact test (no benchmark digest
// runs them). Auditing is on because it is result-identical and checks
// the credit loop of every kind along the way.
func TestKindsGolden(t *testing.T) {
	const path = "testdata/kinds-golden.txt"
	var got strings.Builder
	for _, sc := range kindsGoldenScenarios() {
		jr, err := RunScenario(sc, Options{
			Workers: 1, Seed: 1, Audit: 50,
			Protocol: Protocol{Warmup: 500, Packets: 400},
		})
		if err != nil {
			t.Fatal(err)
		}
		if jr.Error != "" {
			t.Fatalf("%s: %s", jr.Scenario.Label(), jr.Error)
		}
		var js bytes.Buffer
		if err := WriteJSON(&js, []JobResult{jr}); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%x %s credit-delay=%d\n", sha256.Sum256(js.Bytes()), jr.Scenario.Label(), jr.Scenario.CreditDelay)
	}
	if *updateKindsGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d scenarios run, %s pins %d", len(gotLines)-1, path, len(wantLines)-1)
	}
	for i, line := range gotLines {
		if line != wantLines[i] {
			t.Errorf("%s:%d: got %q, want %q", path, i+1, line, wantLines[i])
		}
	}
}
