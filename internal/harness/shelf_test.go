package harness

import (
	"bytes"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"routersim/internal/network"
	"routersim/internal/sim"
)

// resetScenarios are the jobs TestResetEqualsNew reruns on a dirty
// network: the kind golden's matrix plus every feature with state of its
// own — sharding and its gangs under the auditor, fault plans (whose
// random draws follow the seed) under both routing policies, overrides
// (also across off-stride shards), bursty arrivals with drawn sizes, and a trace replay. audit is the
// job's Options.Audit.
func resetScenarios(t *testing.T) (scs []Scenario, audit []int) {
	t.Helper()
	for _, sc := range kindsGoldenScenarios() {
		scs, audit = append(scs, sc), append(audit, 0)
	}
	recorded := Scenario{Router: "spec-vc", K: 4, Load: 0.3}
	path := filepath.Join(t.TempDir(), "workload.trace")
	if _, err := RunScenarioRecorded(recorded, Options{Seed: 5, Protocol: Protocol{Warmup: 200, Packets: 150}}, path); err != nil {
		t.Fatal(err)
	}
	const faults = "link:5-6@cycle=300;rand:links=2@cycle=600"
	for _, sc := range []Scenario{
		{Router: "spec-vc", K: 4, Shards: 2, StepWorkers: 2, Load: 0.3},
		{Router: "vc", K: 4, Faults: faults, Load: 0.3},
		{Router: "vc", K: 4, VCs: 3, Routing: "adaptive:minimal", Faults: faults, Load: 0.3},
		{Router: "spec-vc", K: 4, Overrides: "0-3:vcs=4,buf=2;9:delay=3", Load: 0.3},
		// Off-stride shards over nodes of different slab sizes: where a
		// per-shard carving offset bug would show.
		{Router: "spec-vc", K: 4, Shards: 3, Overrides: "0-3:vcs=4,buf=2;9:delay=3", Load: 0.3},
		{Router: "spec-vc", K: 4, Source: "mmpp:on=20,off=60", Sizes: "bimodal:small=1,large=9,p=0.1", Load: 0.2},
		{Router: "spec-vc", K: 4, Source: "trace:file=" + path},
	} {
		scs = append(scs, sc)
		audit = append(audit, 0)
	}
	audit[len(kindsGoldenScenarios())] = 100 // the sharded job
	return scs, audit
}

// TestResetEqualsNew: a job run on a reused network serializes to the
// same bytes as on a new one. The reused network first ran a different
// job of the same shape — another seed, load 0.8, the turnaround probe
// on, and a cycle cap that stops it saturated with flits in flight — so
// any state Reset misses shows up in the result.
func TestResetEqualsNew(t *testing.T) {
	pr := Protocol{Warmup: 300, Packets: 200}
	scs, audit := resetScenarios(t)
	for i, sc := range scs {
		opts := Options{Seed: 1, Audit: audit[i], Protocol: pr}
		fresh := newShelf(1)
		want := encodeJob(t, fresh.job(0, sc, opts))
		fresh.close()

		dirty := sc
		dirty.Source, dirty.Sizes, dirty.Load = "", "", 0.8
		cfg, err := dirty.SimConfig(99, pr)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Probe, cfg.MaxCycles = true, 1500
		net, err := network.New(cfg.Net)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.NewRunner(cfg).RunOn(net); err != nil {
			t.Fatalf("%s: dirty run: %v", dirty.Label(), err)
		}
		if inFlight(net) == 0 {
			t.Fatalf("%s: the dirty run left nothing in flight", dirty.Label())
		}

		reused := newShelf(1)
		reused.put(net)
		got := encodeJob(t, reused.job(0, sc, opts))
		if len(reused.idle) != 1 || reused.idle[0] != net {
			t.Fatalf("%s: the job did not run on the shelved network", sc.Label())
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: reused network gives\n%s\nnew network gives\n%s", sc.Label(), got, want)
		}

		// A different shape is refused, and the refusal leaves the
		// network usable: the same job again gives the same bytes.
		other := sc
		other.CreditDelay = 7
		ocfg, err := other.SimConfig(1, pr)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Reset(ocfg.Net); err == nil {
			t.Fatalf("%s: Reset to credit delay 7 was accepted", sc.Label())
		}
		if again := encodeJob(t, reused.job(0, sc, opts)); !bytes.Equal(again, want) {
			t.Errorf("%s: after a refused Reset the network gives\n%s\nwant\n%s", sc.Label(), again, want)
		}
		reused.close()
	}
}

// inFlight counts buffered flits and queued packets.
func inFlight(net *network.Network) int {
	total := 0
	for id := 0; id < net.Nodes(); id++ {
		total += net.Router(id).BufferedTotal() + net.SourceQueueLen(id)
	}
	return total
}

func encodeJob(t *testing.T, jr JobResult) []byte {
	t.Helper()
	if jr.Error != "" {
		t.Fatalf("%s: %s", jr.Scenario.Label(), jr.Error)
	}
	b, err := appendJobResult(nil, &jr)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestShelfClosesFailedJobsNetworks: a job that panics or errors may
// stop its network mid-cycle, so the network is closed, never shelved
// for the next job.
func TestShelfClosesFailedJobsNetworks(t *testing.T) {
	cfg, err := Scenario{Router: "spec-vc", K: 4, Load: 0.2}.SimConfig(1, Protocol{Warmup: 100, Packets: 50})
	if err != nil {
		t.Fatal(err)
	}
	sh := newShelf(2)
	defer sh.close()
	var used *network.Network
	record := func(n *network.Network) { used = n }

	ok := cfg
	ok.NetHook = record
	if _, err := sh.run(ok); err != nil {
		t.Fatal(err)
	}
	first := used

	panicking := cfg
	panicking.NetHook = func(n *network.Network) { used = n; panic("job fails mid-run") }
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the panicking job did not panic")
			}
		}()
		sh.run(panicking)
	}()
	if used != first {
		t.Fatal("the panicking job did not run on the shelved network")
	}
	if len(sh.idle) != 0 {
		t.Fatalf("after a panicking job the shelf holds %d networks, want 0", len(sh.idle))
	}
	if _, err := sh.run(ok); err != nil {
		t.Fatal(err)
	}
	if used == first {
		t.Fatal("a job reused the network a panicking job left behind")
	}
	second := used

	erroring := cfg
	erroring.NetHook = record
	erroring.Net.InjectionRate = 0 // no cycle cap derivable: RunOn errors after its Reset
	if _, err := sh.run(erroring); err == nil {
		t.Fatal("the zero-rate job did not error")
	}
	if used != second || len(sh.idle) != 0 {
		t.Fatalf("after an erroring job: ran on the shelved network %v, shelf holds %d, want true and 0", used == second, len(sh.idle))
	}
	if _, err := sh.run(ok); err != nil {
		t.Fatal(err)
	}
	if used == second {
		t.Fatal("a job reused the network an erroring job left behind")
	}
}

// TestShelfClosesShardGangs: a sharded network runs goroutines (shard
// and step-worker gangs); every network a Run shelved is closed before
// Run returns, so the goroutine count goes back to its baseline.
func TestShelfClosesShardGangs(t *testing.T) {
	baseline := runtime.NumGoroutine()
	m := Matrix{Routers: []string{"spec-vc"}, Ks: []int{4}, Shards: []int{2}, StepWorkers: []int{0, 2}, Loads: []float64{0.1, 0.2, 0.3}}
	results, err := Run(m, Options{Workers: 2, Seed: 1, Protocol: Protocol{Warmup: 100, Packets: 50}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Error != "" {
			t.Fatalf("%s: %s", r.Scenario.Label(), r.Error)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("%d goroutines after Run returned, baseline %d: a shelved network was not closed", n, baseline)
	}
}

// TestShelfHoldsAtMostWorkers: jobs of more shapes than workers never
// leave more idle networks on the shelf than there are workers; a job
// whose shape is shelved reuses it instead of building.
func TestShelfHoldsAtMostWorkers(t *testing.T) {
	sh := newShelf(2)
	defer sh.close()
	pr := Protocol{Warmup: 100, Packets: 50}
	var used *network.Network
	nets := map[int]*network.Network{}
	for _, k := range []int{4, 5, 6, 4, 6, 5} {
		cfg, err := Scenario{Router: "vc", K: k, Load: 0.2}.SimConfig(1, pr)
		if err != nil {
			t.Fatal(err)
		}
		cfg.NetHook = func(n *network.Network) { used = n }
		if _, err := sh.run(cfg); err != nil {
			t.Fatal(err)
		}
		if len(sh.idle) > sh.max {
			t.Fatalf("shelf holds %d idle networks, max %d", len(sh.idle), sh.max)
		}
		if prev, ok := nets[k]; ok && k == 6 && used != prev {
			t.Errorf("k=%d: built a new network while one of its shape was shelved", k)
		}
		nets[k] = used
	}
}
