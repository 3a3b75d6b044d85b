package network

import (
	"reflect"
	"testing"

	"routersim/internal/arbiter"
	"routersim/internal/flit"
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

// TestResetReturnsEveryPacketOnce: Reset takes back every packet a
// saturated run holds — queued at a source, streaming onto a VC, in
// wires and buffers, ejected or created but not yet replayed — and puts
// each on its shard's pool exactly once. A packet is in one list at a
// time, so a queued packet pushed onto a pool before its source queue
// is drained would corrupt both lists. The rewound network then runs
// exactly like a new one.
func TestResetReturnsEveryPacketOnce(t *testing.T) {
	cfg := Config{K: 8, Router: router.DefaultConfig(router.SpeculativeVC), Shards: 2, Seed: 3, InjectionRate: 0.3, FlitDelay: 4, CreditDelay: 4}
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	carved := map[*flit.Packet]bool{} // every packet the pools ever handed out
	net.OnPacketCreated = func(p *flit.Packet, _ int64) { carved[p] = true }
	unreplayed := func() (ejects, creates int) {
		for _, sh := range net.shards {
			ejects += len(sh.ejects) - sh.ejCur
			creates += len(sh.creates) - sh.crCur
		}
		return ejects, creates
	}
	now := int64(0)
	for ; now < 3000; now++ {
		net.Step(now)
	}
	// Four-cycle links let the shards run ahead of the replay; stop
	// where they have.
	for ej, cr := unreplayed(); (ej == 0 || cr == 0) && now < 4000; ej, cr = unreplayed() {
		net.Step(now)
		now++
	}
	queued, streaming := 0, 0
	for _, s := range net.sources {
		queued += s.queue.Len()
		streaming += s.inFlight
	}
	ej, cr := unreplayed()
	if queued == 0 || streaming == 0 || ej == 0 || cr == 0 {
		t.Fatalf("at cycle %d: %d queued, %d streaming, %d ejections and %d creations unreplayed; want each > 0", now, queued, streaming, ej, cr)
	}
	for _, sh := range net.shards {
		for _, e := range sh.creates[sh.crCur:] {
			carved[e.p] = true
		}
	}
	t.Logf("reset at cycle %d: %d queued, %d streaming, %d ejections and %d creations unreplayed, %d packets carved", now, queued, streaming, ej, cr, len(carved))

	if err := net.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	pooled := 0
	for _, sh := range net.shards {
		pooled += sh.pktFree.Len()
	}
	if pooled != len(carved) {
		t.Errorf("the pools hold %d packets after Reset, want the %d ever carved", pooled, len(carved))
	}
	seen := map[*flit.Packet]bool{}
	for _, sh := range net.shards {
		var order []*flit.Packet
		for range sh.pktFree.Len() {
			p := sh.pktFree.Pop()
			switch {
			case p == nil:
				t.Fatalf("shard %d: the pool ran out before its Len", sh.idx)
			case seen[p]:
				t.Fatalf("shard %d: a packet is on the pools twice", sh.idx)
			case !carved[p] || p.Size != 0:
				t.Fatalf("shard %d: pooled packet %+v was never handed out or is not zeroed", sh.idx, *p)
			}
			seen[p] = true
			order = append(order, p)
		}
		for _, p := range order {
			sh.pktFree.Push(p)
		}
	}

	var got, want []string
	hookTrace(net, &got)
	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	hookTrace(fresh, &want)
	for now := int64(0); now < 2000; now++ {
		net.Step(now)
		fresh.Step(now)
	}
	compareTraces(t, "reset against new", want, got)
}
