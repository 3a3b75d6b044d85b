package sim

import (
	"math"
	"strings"
	"testing"

	"routersim/internal/network"
	"routersim/internal/router"
)

// TestNegativeProtocolRejected: a protocol value no run can honour is an
// error naming the field, from Run and from RunOn alike, instead of a
// run that silently measures nothing. A negative StallCycles stays the
// way to disable the watchdog.
func TestNegativeProtocolRejected(t *testing.T) {
	for _, tc := range []struct {
		field string
		set   func(c *Config)
	}{
		{"WarmupCycles", func(c *Config) { c.WarmupCycles = -5 }},
		{"MeasurePackets", func(c *Config) { c.MeasurePackets = -3 }},
		{"MaxCycles", func(c *Config) { c.MaxCycles = -1 }},
		{"CITarget", func(c *Config) { c.CITarget = -0.02 }},
		{"CITarget", func(c *Config) { c.CITarget = math.NaN() }},
		{"CITarget", func(c *Config) { c.CITarget = math.Inf(1) }},
	} {
		cfg := Config{
			Net:          network.Config{K: 4, Router: router.DefaultConfig(router.VirtualChannel), InjectionRate: 0.02, Seed: 1},
			WarmupCycles: 100, MeasurePackets: 50,
		}
		tc.set(&cfg)
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("Run with bad %s = %v, want an error naming it", tc.field, err)
		}
		net, err := network.New(cfg.Net)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewRunner(cfg).RunOn(net); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("RunOn with bad %s = %v, want an error naming it", tc.field, err)
		}
		net.Close()
	}
	ok := Config{StallCycles: -1, CITarget: 0.02}
	if err := ok.Validate(); err != nil {
		t.Errorf("Validate(StallCycles -1, CITarget 0.02) = %v, want nil", err)
	}
}
