package network

import (
	"reflect"
	"testing"

	"routersim/internal/arbiter"
	"routersim/internal/router"
	"routersim/internal/topology"
	"routersim/internal/trace"
	"routersim/internal/traffic"
)

// resetClass classifies one Config field for Reset. A structural field
// shapes what New allocates, so Reset must refuse a change to it; a
// per-run field is rewritten by Reset; a derived field is Normalize's
// parse of another field and changes only through it.
type resetClass int

const (
	structural resetClass = iota
	perRun
	derived
)

// TestConfigFieldsClassified is Reset's shape check, field by field:
// every Config field is listed here as structural, per-run or derived,
// and changing it on a built network must make Reset refuse
// (structural) or accept (per-run). A field added later without a row
// fails the test, so the shape check cannot silently ignore it.
func TestConfigFieldsClassified(t *testing.T) {
	replay := trace.NewRecorder(16)
	replay.Record(3, 0, 5, 5, 0)
	replay.Record(9, 7, 2, 1, 1)
	sizes, err := traffic.ParseSizes("uniform:min=1,max=3")
	if err != nil {
		t.Fatal(err)
	}
	overrides, err := ParseOverrides("0:buf=2", 16)
	if err != nil {
		t.Fatal(err)
	}
	torus, err := topology.NewCube(4, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	fields := map[string]struct {
		class  resetClass
		mutate func(c *Config)
	}{
		"K":             {structural, func(c *Config) { c.K = 6 }},
		"Router":        {structural, func(c *Config) { c.Router.BufPerVC = 2 }},
		"Overrides":     {structural, func(c *Config) { c.Overrides = overrides }},
		"Routing":       {structural, func(c *Config) { c.Routing = "adaptive:minimal" }},
		"Faults":        {structural, func(c *Config) { c.Faults = "link:0-1@cycle=10" }},
		"FlitDelay":     {structural, func(c *Config) { c.FlitDelay = 2 }},
		"CreditDelay":   {structural, func(c *Config) { c.CreditDelay = 2 }},
		"Topo":          {structural, func(c *Config) { c.Topo = torus }},
		"StepWorkers":   {structural, func(c *Config) { c.StepWorkers = 2 }},
		"FullScan":      {structural, func(c *Config) { c.FullScan = true }},
		"Shards":        {structural, func(c *Config) { c.Shards = 2 }},
		"PacketSize":    {perRun, func(c *Config) { c.PacketSize = 3 }},
		"InjectionRate": {perRun, func(c *Config) { c.InjectionRate = 0.05 }},
		"Pattern":       {perRun, func(c *Config) { c.Pattern = traffic.Transpose{} }},
		"Bernoulli":     {perRun, func(c *Config) { c.Bernoulli = true }},
		"Source":        {perRun, func(c *Config) { c.Source = traffic.SourceSpec{Kind: "bernoulli"} }},
		"Sizes":         {perRun, func(c *Config) { c.Sizes = sizes }},
		"Replay": {perRun, func(c *Config) {
			c.Source, c.Replay = traffic.SourceSpec{Kind: "trace"}, replay.Trace()
		}},
		"Seed":      {perRun, func(c *Config) { c.Seed = 2 }},
		"Audit":     {perRun, func(c *Config) { c.Audit = 100 }},
		"routing":   {derived, nil},
		"faultPlan": {derived, nil},
	}
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		if _, ok := fields[typ.Field(i).Name]; !ok {
			t.Errorf("Config.%s is not classified for Reset: add it to this table, and to fits' shape if it is per-run", typ.Field(i).Name)
		}
	}

	base := Config{K: 4, Router: router.DefaultConfig(router.VirtualChannel), InjectionRate: 0.02, Seed: 1}
	net, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	for name, f := range fields {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("table row %s names no Config field", name)
			continue
		}
		if f.class == derived {
			continue
		}
		cfg := base
		f.mutate(&cfg)
		err := net.Reset(cfg)
		switch {
		case f.class == structural && err == nil:
			t.Errorf("Reset after changing structural %s was accepted", name)
		case f.class == perRun && err != nil:
			t.Errorf("Reset after changing per-run %s: %v", name, err)
		}
	}
}

// TestResetRefusesArbiterFactories: an arbiter factory is a func, which
// does not compare, so a network built with one is never reset — not
// even to its own configuration — and a network built without one
// refuses a configuration that has one.
func TestResetRefusesArbiterFactories(t *testing.T) {
	cfg := Config{K: 4, Router: router.DefaultConfig(router.SpeculativeVC), InjectionRate: 0.02, Seed: 1}
	plain, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	cfg.Router.Arb = arbiter.RoundRobinFactory
	factory, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer factory.Close()
	if factory.Reset(cfg) == nil || plain.Reset(cfg) == nil {
		t.Error("Reset with an arbiter factory was accepted")
	}
}
