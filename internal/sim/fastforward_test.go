package sim

import (
	"reflect"
	"testing"

	"routersim/internal/network"
	"routersim/internal/router"
)

// TestFastForwardResultIdentity: a measurement run over the active-set
// engine — including its quiescence fast-forward jumps — must report
// exactly the result of the full-scan engine stepping every cycle: same
// latencies, same throughput, same confidence intervals, same cycle
// count. The ultra-low load case spends most of its span fully
// quiescent, so the jump path really executes; the mid-load case pins
// the busy path.
func TestFastForwardResultIdentity(t *testing.T) {
	for _, tc := range []struct {
		name string
		load float64 // fraction of capacity
	}{
		{"quiescent-heavy", 0.01},
		{"mid-load", 0.4},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := Config{
				Net: network.Config{
					K:      4,
					Router: router.DefaultConfig(router.SpeculativeVC),
					Seed:   5,
				},
				WarmupCycles:   3000,
				MeasurePackets: 150,
			}
			cfg.Net.InjectionRate = RateForLoad(tc.load, cfg.Net)
			active, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Net.FullScan = true
			full, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(active, full) {
				t.Fatalf("active-set result diverged from full scan:\nactive: %+v\nfull:   %+v", active, full)
			}
		})
	}
}

// TestVanishingLoadEngineIdentity: at 2e-5 packets per node per cycle
// (the benchmark's drain-tail rate) each source fires once in 50,000
// cycles, so every injection is placed by ConstantRate's binade jump.
// The full-scan engine ticks its injectors one cycle at a time instead,
// so equal results across full scan, the active-set engine and two
// shards pin the jump's schedule to per-cycle ticking end to end.
func TestVanishingLoadEngineIdentity(t *testing.T) {
	cfg := Config{
		Net: network.Config{
			K:             8,
			Router:        router.DefaultConfig(router.SpeculativeVC),
			InjectionRate: 2e-5,
			Seed:          7,
		},
		WarmupCycles:   20000,
		MeasurePackets: 40,
	}
	active, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := cfg
	full.Net.FullScan = true
	if res, err := Run(full); err != nil {
		t.Fatal(err)
	} else if !reflect.DeepEqual(active, res) {
		t.Fatalf("active-set result diverged from full scan:\nactive: %+v\nfull:   %+v", active, res)
	}
	sharded := cfg
	sharded.Net.Shards = 2
	if res, err := Run(sharded); err != nil {
		t.Fatal(err)
	} else if !reflect.DeepEqual(active, res) {
		t.Fatalf("sharded result diverged from serial:\nserial:  %+v\nsharded: %+v", active, res)
	}
}

// TestFastForwardCITarget: the jump path must coexist with early
// CI-target termination — the shortened sample and its intervals are
// identical across engines.
func TestFastForwardCITarget(t *testing.T) {
	cfg := Config{
		Net: network.Config{
			K:      4,
			Router: router.DefaultConfig(router.VirtualChannel),
			Seed:   23,
		},
		WarmupCycles:   2000,
		MeasurePackets: 2000,
		CITarget:       0.1,
	}
	cfg.Net.InjectionRate = RateForLoad(0.15, cfg.Net)
	active, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Net.FullScan = true
	full, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(active, full) {
		t.Fatalf("CI-target run diverged:\nactive: %+v\nfull:   %+v", active, full)
	}
}

// TestFastForwardMaxCyclesBelowWarmup: an explicit MaxCycles below the
// warm-up bound must end the run on its exact cycle under both engines
// — the pre-measurement jump is clamped to the cap, not just to the
// warm-up boundary.
func TestFastForwardMaxCyclesBelowWarmup(t *testing.T) {
	cfg := Config{
		Net: network.Config{
			K:      4,
			Router: router.DefaultConfig(router.SpeculativeVC),
			Seed:   3,
		},
		WarmupCycles:   10000,
		MeasurePackets: 10,
		MaxCycles:      50,
	}
	cfg.Net.InjectionRate = 0.0001
	active, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Net.FullScan = true
	full, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(active, full) {
		t.Fatalf("capped-below-warmup run diverged:\nactive: %+v\nfull:   %+v", active, full)
	}
	if active.Cycles != 50 {
		t.Fatalf("Cycles = %d, want exactly MaxCycles = 50", active.Cycles)
	}
}
