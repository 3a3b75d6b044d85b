package sim

import (
	"reflect"
	"testing"

	"routersim/internal/network"
	"routersim/internal/router"
	"routersim/internal/topology"
	"routersim/internal/trace"
	"routersim/internal/traffic"
)

// TestGoldenReplayConformance is the conformance tier's cross-engine
// contract: replaying one checked-in captured trace must produce a
// sim.Result that is reflect.DeepEqual across every engine variant —
// full-scan vs active-set scheduler, one shard vs two or four — and
// independent of the RNG seed (a replayed workload consumes no
// randomness: destinations, sizes, and injection cycles all come from
// the trace). Any divergence in any Result field (latency percentiles,
// accepted-throughput CI, cycle count, saturation flag) fails.
//
// The fixture was captured on a 4×4 mesh with a bursty sized workload,
// exercising the MMPP and bimodal-size paths end to end:
//
//	go run ./cmd/netsim -router spec-vc -k 4 -load 0.15 \
//	  -source mmpp:on=30,off=50 -sizes bimodal:small=1,large=9,p=0.1 \
//	  -warmup 150 -packets 150 -seed 5 \
//	  -record internal/sim/testdata/replay_fixture.jsonl
//
// The measurement protocol below matches the capture's, so the replay
// drains every tagged packet; the assertions pin that (a censored or
// saturated replay would mean the replayer lost events).
func TestGoldenReplayConformance(t *testing.T) {
	tr, err := trace.ReadFile("testdata/replay_fixture.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	variants := []struct {
		name     string
		fullScan bool
		shards   int
	}{
		{"fullscan-serial", true, 0},
		{"active-serial", false, 0},
		{"sharded2", false, 2},
		{"sharded4", false, 4},
	}
	var ref Result
	for i, v := range variants {
		topo, err := topology.New("mesh", 4)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Net: network.Config{
				K:      4,
				Topo:   topo,
				Router: router.DefaultConfig(router.SpeculativeVC),
				Source: traffic.SourceSpec{Kind: "trace", File: "testdata/replay_fixture.jsonl"},
				Replay: tr,
				// Each variant runs a different seed on purpose: replay
				// results must not depend on it.
				Seed:     1000 + uint64(i)*77,
				FullScan: v.fullScan,
				Shards:   v.shards,
			},
			WarmupCycles:   150,
			MeasurePackets: 150,
			ExactLatency:   true,
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if res.Latency.Packets == 0 || res.Latency.Censored > 0 || res.Saturated {
			t.Fatalf("%s: replay did not drain cleanly: %+v", v.name, res)
		}
		if i == 0 {
			ref = res
			continue
		}
		if !reflect.DeepEqual(res, ref) {
			t.Errorf("%s: replay result diverges from %s:\n got %+v\nwant %+v",
				v.name, variants[0].name, res, ref)
		}
	}
}
