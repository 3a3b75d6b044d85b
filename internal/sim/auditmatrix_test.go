package sim

import (
	"reflect"
	"testing"

	"routersim/internal/network"
	"routersim/internal/router"
)

// TestAuditEngineMatrix runs a live workload across the engine
// identity matrix — full-scan vs active-set, 1/2/4 shards — with the
// invariant auditor enabled at a small interval, and checks two
// contracts at once: no variant trips an invariant, and auditing is
// observationally free (every audited result equals the audit-off
// reference bit for bit).
func TestAuditEngineMatrix(t *testing.T) {
	type variant struct {
		name     string
		fullScan bool
		shards   int
	}
	variants := []variant{
		{"fullscan-serial", true, 0},
		{"active-serial", false, 0},
		{"sharded2", false, 2},
		{"sharded4", false, 4},
	}
	base := func(audit int, v variant) Config {
		return Config{
			Net: network.Config{
				K:             8,
				Router:        router.DefaultConfig(router.SpeculativeVC),
				InjectionRate: 0.4 * 0.5 / 5,
				Seed:          1,
				FullScan:      v.fullScan,
				Shards:        v.shards,
				Audit:         audit,
			},
			WarmupCycles:   800,
			MeasurePackets: 300,
			ExactLatency:   true,
		}
	}
	ref, err := Run(base(0, variants[0]))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(base(7, v)) // off-stride interval: deadlines land mid-burst
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, ref) {
				t.Errorf("audited result diverges from audit-off reference:\n got %+v\nwant %+v", res, ref)
			}
		})
	}
}
