// Allocation-regression tests: the simulator's steady-state hot paths
// must not touch the heap. These lock in the zero-allocation cycle
// engine — a regression here multiplies into every load sweep.
package routersim_test

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"
	"unsafe"

	"routersim/internal/allocator"
	"routersim/internal/arbiter"
	"routersim/internal/checkpoint"
	"routersim/internal/flit"
	"routersim/internal/harness"
	"routersim/internal/link"
	"routersim/internal/network"
	"routersim/internal/router"
	"routersim/internal/stats"
	"routersim/internal/topology"
	"routersim/internal/traffic"
)

// warmNetwork builds the benchmark network and steps it past warmup so
// every pool, ring, and scratch buffer has reached steady-state size.
func warmNetwork(t *testing.T, cycles int64) (*network.Network, int64) {
	t.Helper()
	rc := router.DefaultConfig(router.SpeculativeVC)
	cfg := network.Config{K: 8, Router: rc, Seed: 1, InjectionRate: 0.4 * 0.5 / 5}
	net, err := network.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := int64(0)
	for ; now < cycles; now++ {
		net.Step(now)
	}
	return net, now
}

// TestNetworkStepZeroAlloc: a steady-state Network.Step performs zero
// heap allocations — packets come from the pool, flit slices are
// reused, wires and FIFOs never grow, allocators return scratch. The
// default engine is the active-set scheduler, so this also pins its
// worklists (active/carry lists, wake wheel, source heap) at their
// steady-state sizes.
func TestNetworkStepZeroAlloc(t *testing.T) {
	net, now := warmNetwork(t, 6000)
	allocs := testing.AllocsPerRun(400, func() {
		net.Step(now)
		now++
	})
	if allocs != 0 {
		t.Fatalf("steady-state Network.Step allocates %.2f times per cycle, want 0", allocs)
	}
}

// TestNetworkStepZeroAllocLowLoad extends the invariant to the regime
// the active-set scheduler exists for: a 1,024-router mesh at 5% load,
// where sources park and wake constantly and the worklists churn every
// cycle. Growth of any scheduler structure past warm-up would show here.
func TestNetworkStepZeroAllocLowLoad(t *testing.T) {
	// The exact config BenchmarkNetworkCycleLowLoad times, so the test
	// pins the benchmark's allocation behaviour.
	net, err := network.New(lowLoadCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	now := int64(0)
	warm := int64(4000)
	if testing.Short() {
		warm = 2000
	}
	for ; now < warm; now++ {
		net.Step(now)
	}
	allocs := testing.AllocsPerRun(400, func() {
		net.Step(now)
		now++
	})
	if allocs != 0 {
		t.Fatalf("low-load active-set Network.Step allocates %.2f times per cycle, want 0", allocs)
	}
}

// TestNetworkStepZeroAllocSharded extends the invariant to the sharded
// engine's steady state: per-shard packet pools stay balanced (a
// finished packet returns to its source's shard), the boundary
// outbox/inbox rings are presized, the replay buffers are compacted in
// place, and the barrier posts wakes through prebuilt closures — so a
// steady-state sharded Step, barriers included, performs zero heap
// allocations, matching the one-shard gate above.
func TestNetworkStepZeroAllocSharded(t *testing.T) {
	rc := router.DefaultConfig(router.SpeculativeVC)
	cfg := network.Config{
		K:             16,
		Router:        rc,
		Seed:          1,
		InjectionRate: 0.3 * 0.5 / 5,
		Shards:        4,
	}
	net, err := network.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	now := int64(0)
	warm := int64(8000)
	if testing.Short() {
		warm = 4000
	}
	for ; now < warm; now++ {
		net.Step(now)
	}
	allocs := testing.AllocsPerRun(400, func() {
		net.Step(now)
		now++
	})
	if allocs != 0 {
		t.Fatalf("steady-state sharded Network.Step allocates %.2f times per cycle, want 0", allocs)
	}
}

// TestNetworkStepZeroAllocCrossTopology extends the zero-allocation
// invariant to every topology family the graph-general layer added:
// ring, 3-D torus, and hypercube steady-state cycles must also stay off
// the heap (same pools and tables, different graphs and port counts).
func TestNetworkStepZeroAllocCrossTopology(t *testing.T) {
	for _, spec := range []string{"ring:16", "torus:k=4,n=3", "hypercube:16"} {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			topo, err := topology.New(spec, 0)
			if err != nil {
				t.Fatal(err)
			}
			rc := router.DefaultConfig(router.SpeculativeVC)
			// 15% of capacity: comfortably below saturation on every
			// wraparound topology (dateline classes halve the usable
			// VCs), so the packet pool and source queues reach a steady
			// state instead of growing without bound.
			cfg := network.Config{
				Topo:          topo,
				Router:        rc,
				Seed:          1,
				InjectionRate: 0.15 * topo.UniformCapacity() / 5,
			}
			net, err := network.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			now := int64(0)
			for ; now < 6000; now++ {
				net.Step(now)
			}
			allocs := testing.AllocsPerRun(400, func() {
				net.Step(now)
				now++
			})
			if allocs != 0 {
				t.Fatalf("%s: steady-state Network.Step allocates %.2f times per cycle, want 0", spec, allocs)
			}
		})
	}
}

// TestNetworkStepZeroAllocWorkloads extends the zero-allocation
// invariant to the bursty arrival processes, size distributions, and
// per-router heterogeneity: MMPP on/off bursts (dwell lengths are
// pre-sampled at each state entry), batch releases (a pending counter,
// not a queue), per-packet size draws into pooled packets, and
// heterogeneous VC/buffer/link-delay overrides (the wake wheel is sized
// at build time) must all run their steady state off the heap.
func TestNetworkStepZeroAllocWorkloads(t *testing.T) {
	cases := []struct {
		name, source, sizes, overrides string
	}{
		{"mmpp", "mmpp:on=20,off=60", "", ""},
		{"batch", "batch:size=4", "", ""},
		{"mmpp-bimodal", "mmpp:on=30,off=50", "bimodal:small=1,large=9,p=0.1", ""},
		{"hetero", "", "uniform:min=1,max=9", "0:vcs=4,buf=8;10:delay=3"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			src, err := traffic.ParseSource(tc.source)
			if err != nil {
				t.Fatal(err)
			}
			var sizer traffic.Sizer
			if tc.sizes != "" {
				if sizer, err = traffic.ParseSizes(tc.sizes); err != nil {
					t.Fatal(err)
				}
			}
			var ovs []network.RouterOverride
			if tc.overrides != "" {
				if ovs, err = network.ParseOverrides(tc.overrides, 64); err != nil {
					t.Fatal(err)
				}
			}
			rc := router.DefaultConfig(router.SpeculativeVC)
			cfg := network.Config{
				K: 8, Router: rc, Seed: 1,
				InjectionRate: 0.2 * 0.5 / 5,
				Source:        src,
				Sizes:         sizer,
				Overrides:     ovs,
			}
			net, err := network.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			now := int64(0)
			for ; now < 6000; now++ {
				net.Step(now)
			}
			allocs := testing.AllocsPerRun(400, func() {
				net.Step(now)
				now++
			})
			if allocs != 0 {
				t.Fatalf("%s: steady-state Network.Step allocates %.2f times per cycle, want 0", tc.name, allocs)
			}
		})
	}
}

// TestWireZeroAlloc: pushing and draining a wire at link bandwidth never
// allocates (the ring is preallocated from delay+bandwidth).
func TestWireZeroAlloc(t *testing.T) {
	w := link.NewWire[int](4)
	now := int64(0)
	allocs := testing.AllocsPerRun(400, func() {
		w.Push(now, int(now))
		for _, ok := w.Pop(now); ok; _, ok = w.Pop(now) {
		}
		now++
	})
	if allocs != 0 {
		t.Fatalf("Wire push/drain allocates %.2f times per cycle, want 0", allocs)
	}
}

// TestStreamAddZeroAlloc: the streaming latency accumulator's hot Add
// path — called once per tagged packet, for every job of a matrix —
// must never touch the heap (its histogram is a fixed-size array), and
// the batch-means accumulator must stay allocation-free once its
// preallocated batch slice is sized.
func TestStreamAddZeroAlloc(t *testing.T) {
	s := stats.NewStream()
	v := int64(1)
	allocs := testing.AllocsPerRun(1000, func() {
		v = (v*6364136223846793005 + 1442695040888963407) % 100000
		if v < 0 {
			v = -v
		}
		s.Add(v)
	})
	if allocs != 0 {
		t.Errorf("Stream.Add allocates %.2f times per sample, want 0", allocs)
	}

	// Unit batches force the pair-collapse path to run repeatedly
	// during the 1000+ observations: collapsing must also be heap-free.
	b := stats.NewBatchMeans(1)
	x := 0.0
	allocs = testing.AllocsPerRun(1000, func() {
		x += 1.5
		b.Add(x)
	})
	if allocs != 0 {
		t.Errorf("BatchMeans.Add allocates %.2f times per observation, want 0", allocs)
	}
}

// TestAllocatorZeroAlloc covers the three allocator micro-bench paths:
// matrix arbiter grant, separable switch allocation, VC allocation.
func TestAllocatorZeroAlloc(t *testing.T) {
	m := arbiter.NewMatrix(5)
	if allocs := testing.AllocsPerRun(400, func() { m.Grant(0b10111) }); allocs != 0 {
		t.Errorf("Matrix.Grant allocates %.2f times per call, want 0", allocs)
	}

	s := allocator.NewSeparableSwitch(5, 2, nil)
	swReqs := []allocator.SwitchRequest{
		{In: 0, VC: 0, Out: 3}, {In: 1, VC: 1, Out: 3},
		{In: 2, VC: 0, Out: 4}, {In: 3, VC: 1, Out: 0},
	}
	if allocs := testing.AllocsPerRun(400, func() { s.Allocate(swReqs) }); allocs != 0 {
		t.Errorf("SeparableSwitch.Allocate allocates %.2f times per call, want 0", allocs)
	}

	a := allocator.NewVCAllocator(5, 2, nil)
	vaReqs := []allocator.VCRequest{
		{In: 0, VC: 0, Out: 1, Candidates: 0b11},
		{In: 1, VC: 1, Out: 1, Candidates: 0b11},
		{In: 2, VC: 0, Out: 3, Candidates: 0b01},
	}
	if allocs := testing.AllocsPerRun(400, func() { a.Allocate(vaReqs) }); allocs != 0 {
		t.Errorf("VCAllocator.Allocate allocates %.2f times per call, want 0", allocs)
	}
}

// TestFootprint is the memory-layout gate: a flit is 24 bytes, and
// building a network costs a bounded number of heap objects and bytes
// per router. Routers, allocators, arbiter places, sources (with their
// RNG stream and constant-rate injector) and wires are carved from a few
// typed slabs per shard, so what is left is per network: shards,
// schedulers, routing policies and node tables (171 mallocs and 13.8 KB
// per router before any slab; 35.2 spec-vc, 28.2 vc and 21.2 wormhole
// mallocs per router with objects per router). Each bound is the
// measured value plus at most 5% for bytes and 0.7 for mallocs, so a
// change that grows a router's state or brings back a per-router object
// trips it. The sharded build gets its own bound: per-shard slabs must
// not fragment it. The k=32 row pins that neither count grows with the
// node count: routing is computed per head flit, so no router holds a
// per-destination table, and no object is allocated per router. The vc
// and wormhole rows pin the other two allocator shapes.
func TestFootprint(t *testing.T) {
	if sz := unsafe.Sizeof(flit.Flit{}); sz != 24 {
		t.Errorf("flit.Flit is %d bytes, want 24", sz)
	}
	// The topology cap error quotes topology's per-node estimate; every
	// row's bound must fit under it. 2^20 nodes × x KiB is x GiB.
	var estKiB float64
	if _, err := fmt.Sscanf(topology.MemEstimate(1<<20), "%f GiB", &estKiB); err != nil {
		t.Fatal(err)
	}
	perRouter := map[int]float64{} // spec-vc one-shard mallocs per router, by k
	for _, c := range []struct {
		kind       router.Kind
		k, shards  int
		maxMallocs float64
		maxKB      float64
	}{
		{router.SpeculativeVC, 16, 0, 1.0, 6.8},  // 0.3 mallocs, 6.49 KB measured
		{router.SpeculativeVC, 16, 2, 1.3, 6.9},  // 0.6, 6.66
		{router.SpeculativeVC, 32, 0, 0.8, 6.7},  // 0.1, 6.40
		{router.VirtualChannel, 16, 0, 1.0, 6.2}, // 0.3, 5.99
		{router.Wormhole, 16, 0, 1.0, 4.9},       // 0.3, 4.72
	} {
		cfg := network.Config{K: c.k, Router: router.DefaultConfig(c.kind), Seed: 1, InjectionRate: 0.01, Shards: c.shards}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		net, err := network.New(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		nodes := float64(net.Nodes())
		mallocs := float64(after.Mallocs-before.Mallocs) / nodes
		kb := float64(after.TotalAlloc-before.TotalAlloc) / nodes / 1000
		t.Logf("shards=%d: network.New k=%d %v: %.1f mallocs, %.2f KB per router (bounds %.1f, %.1f)", c.shards, c.k, c.kind, mallocs, kb, c.maxMallocs, c.maxKB)
		if c.maxKB > estKiB*1.024 {
			t.Errorf("k=%d %v: bound %.1f KB exceeds topology.MemEstimate's %.1f KiB per node", c.k, c.kind, c.maxKB, estKiB)
		}
		if mallocs > c.maxMallocs || kb > c.maxKB {
			t.Errorf("shards=%d: network.New k=%d %v costs %.1f mallocs and %.2f KB per router, want <= %.1f and <= %.1f", c.shards, c.k, c.kind, mallocs, kb, c.maxMallocs, c.maxKB)
		}
		if c.kind == router.SpeculativeVC && c.shards == 0 {
			perRouter[c.k] = mallocs
		}
		net.Close()
	}
	if perRouter[32] > perRouter[16] {
		t.Errorf("network.New allocates %.2f objects per router at k=32, more than k=16's %.2f: something is allocated per router", perRouter[32], perRouter[16])
	}
}

// TestResumedSweepAllocs bounds what a fully cached sweep costs per
// loaded job: key, entry read, checksum, decode, JSON and CSV. The
// matrix is the benchmark's 48-job sweep; the whole pass allocated
// 5.0 KB per job when it went through reflection JSON both ways and
// Expand grew its slice and map from empty, 2.6 KB with the JobResult
// codec and both presized, 2.3 KB once Store.Get read into a reused
// buffer instead of os.ReadFile's fresh one and *os.File. What remains
// is mostly the payload's copy, the entry path, and the decoded result.
func TestResumedSweepAllocs(t *testing.T) {
	m := harness.Matrix{
		Routers:    []string{"vc", "spec-vc"},
		Topologies: []string{"mesh", "torus", "hypercube:64"},
		Patterns:   []string{"uniform", "transpose"},
		VCs:        []int{2, 4},
		Loads:      []float64{0.1, 0.3},
	}
	opts := harness.Options{Seed: 1, Protocol: harness.Protocol{Warmup: 100, Packets: 50}}
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	pass := func() int {
		out.Reset()
		results, err := harness.RunResumable(m, opts, store)
		if err != nil {
			t.Fatal(err)
		}
		if err := harness.WriteJSON(&out, results); err != nil {
			t.Fatal(err)
		}
		if err := harness.WriteCSV(&out, results); err != nil {
			t.Fatal(err)
		}
		return len(results)
	}
	jobs := pass() // cold: fills the store and sizes the buffer
	if jobs != 48 {
		t.Fatalf("matrix expands to %d jobs, want 48", jobs)
	}
	opts.Progress = func(int, int, harness.JobResult) { t.Error("a job ran on a cached pass") }
	const passes = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < passes; i++ {
		pass()
	}
	runtime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / float64(passes*jobs) / 1000
	mallocs := float64(after.Mallocs-before.Mallocs) / float64(passes*jobs)
	t.Logf("cached pass: %.2f KB, %.1f mallocs per loaded job", kb, mallocs)
	if kb > 2.5 {
		t.Errorf("a cached pass allocates %.2f KB per loaded job, want <= 2.5", kb)
	}
}

// TestReusedJobAllocs bounds what a sweep job costs once its worker's
// network exists: harness.Run lends each job an idle network of its
// shape, reset in place, so only the first job of a one-shape sweep
// builds one. Jobs 2–8 each allocate at most 15% of job 1's bytes:
// the run's own measurement state, injectors and RNG streams, and the
// packets a higher load needs beyond the pool the earlier jobs left
// warm. The loads stop at spec-vc's knee (0.6 on the 8×8 mesh): past
// it a run's source queues grow without bound, and the backlog's
// packets are the workload's cost, paid on a new network too (load
// 0.8 adds ~250 KB here).
func TestReusedJobAllocs(t *testing.T) {
	m := harness.Matrix{
		Routers: []string{"spec-vc"},
		Loads:   []float64{0.1, 0.2, 0.3, 0.4, 0.45, 0.5, 0.55, 0.6},
	}
	var (
		ms    runtime.MemStats
		prev  uint64
		bytes []uint64
	)
	opts := harness.Options{
		Workers:  1,
		Seed:     1,
		Protocol: harness.Protocol{Warmup: 1000, Packets: 1000},
		Progress: func(int, int, harness.JobResult) {
			runtime.ReadMemStats(&ms)
			bytes = append(bytes, ms.TotalAlloc-prev)
			prev = ms.TotalAlloc
		},
	}
	runtime.ReadMemStats(&ms)
	prev = ms.TotalAlloc
	results, err := harness.Run(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Error != "" {
			t.Fatalf("%s: %s", r.Scenario.Label(), r.Error)
		}
	}
	for i, b := range bytes {
		t.Logf("job %d (load %.2f): %.1f KB", i+1, m.Loads[i], float64(b)/1000)
		if i > 0 && float64(b) > 0.15*float64(bytes[0]) {
			t.Errorf("job %d allocates %.1f KB, %.0f%% of job 1's %.1f KB; want <= 15%%", i+1, float64(b)/1000, 100*float64(b)/float64(bytes[0]), float64(bytes[0])/1000)
		}
	}
}

// TestNoWorkMovedIntoStep: network.New builds everything a run needs —
// nothing is constructed lazily on the first Steps. In drain-tail's
// shape (a k=16 spec-vc mesh at 0.00002 packets per node per cycle, a
// few packets in flight) 2,000 stepped cycles after New may allocate
// no more than they did when every router was 35 separate objects. The
// count is process-wide, so the least of three fresh networks is kept.
func TestNoWorkMovedIntoStep(t *testing.T) {
	cfg := network.Config{K: 16, Router: router.DefaultConfig(router.SpeculativeVC), Seed: 1, InjectionRate: 0.00002}
	least := uint64(math.MaxUint64)
	for trial := 0; trial < 3; trial++ {
		net, err := network.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for now := int64(0); now < 2000; now++ {
			net.Step(now)
		}
		runtime.ReadMemStats(&after)
		net.Close()
		least = min(least, after.Mallocs-before.Mallocs)
	}
	t.Logf("2,000 cycles after New: %d mallocs", least)
	// 389: the count measured before routers were carved from slabs.
	if least > 389 {
		t.Errorf("2,000 cycles after New allocate %d times, want <= 389", least)
	}
}
