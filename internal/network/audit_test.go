package network

import (
	"fmt"
	"strings"
	"testing"

	"routersim/internal/router"
)

// TestAuditCleanRun steps every engine shape under load with the
// invariant auditor enabled at a small interval: a correct engine never
// trips it, on any router kind, through warmup, steady state, and
// drain.
func TestAuditCleanRun(t *testing.T) {
	shapes := []struct {
		name    string
		mutate  func(c *Config)
		needsVC bool
	}{
		{"fullscan", func(c *Config) { c.FullScan = true }, false},
		{"active", func(c *Config) {}, false},
		{"sharded2", func(c *Config) { c.Shards = 2 }, false},
		{"sharded4", func(c *Config) { c.Shards = 4 }, false},
	}
	kinds := []router.Kind{router.Wormhole, router.SpeculativeVC}
	for _, shape := range shapes {
		for _, kind := range kinds {
			shape, kind := shape, kind
			t.Run(shape.name+"/"+kind.String(), func(t *testing.T) {
				t.Parallel()
				cfg := testConfig(kind, 0.4*0.5/5)
				cfg.Audit = 7 // off-stride interval so deadlines land mid-burst
				shape.mutate(&cfg)
				net, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer net.Close()
				for now := int64(0); now < simCycles(6000); now++ {
					net.Step(now)
				}
			})
		}
	}
}

// expectAuditPanic steps the network until the next audit deadline and
// asserts it panics with an audit message containing want.
func expectAuditPanic(t *testing.T, net *Network, from int64, want string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("audit did not fire on corrupted state")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "network: audit failed") || !strings.Contains(msg, want) {
			t.Fatalf("audit panic = %v, want message containing %q", r, want)
		}
	}()
	for now := from; now < from+3*int64(net.cfg.Audit)+3; now++ {
		net.Step(now)
	}
}

// corruptAndExpect steps a network at each shard count past warmup,
// corrupts its state, and expects the next audit to abort with want.
func corruptAndExpect(t *testing.T, corrupt func(*Network), want string) {
	t.Helper()
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			cfg := testConfig(router.SpeculativeVC, 0.4*0.5/5)
			cfg.Audit = 8
			cfg.Shards = shards
			net, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer net.Close()
			var now int64
			for ; now < 200; now++ {
				net.Step(now)
			}
			corrupt(net)
			expectAuditPanic(t, net, now, want)
		})
	}
}

// TestAuditDetectsLeakedFlit corrupts the flit-conservation ledger (as
// an engine that lost or duplicated a flit would) and expects the next
// audit to abort with the conservation diagnostic.
func TestAuditDetectsLeakedFlit(t *testing.T) {
	corruptAndExpect(t, func(net *Network) {
		net.shards[len(net.shards)-1].injected++ // one phantom flit that never entered the wires
	}, "flit conservation")
}

// TestAuditDetectsLostCredit steals one credit from a source (as a
// flow-control bug dropping a credit on the floor would) and expects
// the injection-channel credit loop to come up short.
func TestAuditDetectsLostCredit(t *testing.T) {
	corruptAndExpect(t, func(net *Network) {
		net.sources[5].credits[0]--
	}, "injection channel")
}

// TestAuditConfigValidation: negative intervals are rejected.
func TestAuditConfigValidation(t *testing.T) {
	cfg := testConfig(router.Wormhole, 0.01)
	cfg.Audit = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted a negative audit interval")
	}
}
