// Command netsim runs one network simulation at a chosen load and
// prints the latency/throughput summary — a single-scenario run of the
// experiment harness.
//
// Usage:
//
//	netsim -router spec-vc -vcs 2 -buf 4 -load 0.4
//	netsim -router wormhole -buf 8 -load 0.45 -packets 100000
//	netsim -router spec-vc -pattern transpose -topo torus -load 0.3
//	netsim -router spec-vc -routing adaptive:minimal -faults 'link:3-7@cycle=1000' -load 0.3
//	netsim -router spec-vc -probe-turnaround -load 0.9
//	netsim -router vc -load 0.4 -json
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"routersim"
)

// handleSignals converts SIGINT/SIGTERM into a clean exit with the
// conventional 128+signal code (netsim holds no profiles or
// checkpoint state; the handler exists so scripted runs observe the
// standard termination status).
func handleSignals() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-ch
		fmt.Fprintf(os.Stderr, "netsim: caught %v; exiting\n", sig)
		code := 130 // 128 + SIGINT
		if sig == syscall.SIGTERM {
			code = 143
		}
		os.Exit(code)
	}()
}

func main() {
	kindStr := flag.String("router", "spec-vc", "router: "+routersim.RouterNames())
	vcs := flag.Int("vcs", 0, "virtual channels per port (default: paper config)")
	buf := flag.Int("buf", 0, "flit buffers per VC (default: paper config)")
	load := flag.Float64("load", 0.4, "offered load as a fraction of capacity")
	k := flag.Int("k", 8, "network size: radix for mesh/torus, node count for ring/hypercube")
	topo := flag.String("topo", "mesh", "topology spec: mesh, torus, ring, hypercube, parameterized as mesh:k=8, torus:k=4,n=3, hypercube:64, ring:16")
	pattern := flag.String("pattern", "uniform", "traffic pattern: uniform, transpose, bit-reversal, bit-complement, hotspot[:NODE:FRAC]")
	pkt := flag.Int("packetsize", 5, "flits per packet")
	creditDelay := flag.Int("credit-delay", 1, "credit propagation delay (cycles)")
	source := flag.String("source", "", "injection process: const, bernoulli, mmpp:on=X,off=Y, batch:size=N, trace:file=PATH (replay; ignores -load)")
	sizes := flag.String("sizes", "", "packet-size distribution: fixed:N, uniform:min=A,max=B, bimodal:small=S,large=L,p=P (empty = every packet is -packetsize flits)")
	overrides := flag.String("overrides", "", "per-router overrides, ';'-separated SEL:k=v groups (SEL = id, LO-HI, or '*'): e.g. '0:vcs=4,buf=8;3-5:delay=2'")
	routing := flag.String("routing", "", "routing policy: dor (default, the paper's deterministic dimension-order routing) or adaptive:minimal")
	faults := flag.String("faults", "", "fault-injection spec, ';'-separated events: link:A-B@cycle=N, router:R@cycle=N, rand:links=K[,seed=S]@cycle=N, rand:routers=K[,seed=S]@cycle=N")
	record := flag.String("record", "", "record the run's packet workload to this trace file (.jsonl/.json = JSONL, else binary)")
	stepWorkers := flag.Int("step-workers", 0, "deterministic parallel stepper workers per shard (0 or 1 = none; results are identical for every value)")
	shards := flag.Int("shards", 0, "lookahead-sharded engine shard count (0 or 1 = one shard; results are identical for every value)")
	audit := flag.Int("audit", 0, "check engine conservation invariants every N cycles (0 = off; results are identical either way)")
	warmup := flag.Int64("warmup", 10000, "warm-up cycles")
	packets := flag.Int("packets", 20000, "tagged sample size")
	exact := flag.Bool("exact", false, "store every latency sample for exact percentiles (default streams with O(1) memory)")
	ciTarget := flag.Float64("ci-target", 0, "end the run early once the relative 95% CI half-width of mean latency reaches this (0 = run the full sample)")
	seed := flag.Uint64("seed", 1, "random seed")
	probe := flag.Bool("probe-turnaround", false, "measure the buffer turnaround time (Figure 16)")
	jsonOut := flag.Bool("json", false, "emit the result as JSON instead of text")
	flag.Parse()
	handleSignals()

	kind, ok := routersim.ParseRouterKind(*kindStr)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown router %q (have %s)\n", *kindStr, routersim.RouterNames())
		os.Exit(2)
	}
	// Resolve the paper defaults up front so the printed/serialized
	// configuration is the one that actually runs.
	defaults := routersim.DefaultSimConfig(kind)
	if *vcs == 0 {
		*vcs = defaults.VCs
	}
	if *buf == 0 {
		*buf = defaults.BufPerVC
	}
	if *vcs > 1 && !kind.UsesVCs() {
		fmt.Fprintf(os.Stderr, "%s routers have exactly 1 VC, got -vcs %d\n", *kindStr, *vcs)
		os.Exit(2)
	}

	if *probe {
		// The turnaround probe goes through the facade's probe path,
		// which supports neither alternate topologies/patterns, workload
		// specs, recording, nor JSON output; reject rather than silently
		// ignore those flags.
		if *topo != "mesh" || *pattern != "uniform" || *jsonOut ||
			*source != "" || *sizes != "" || *overrides != "" || *routing != "" || *faults != "" ||
			*record != "" || *stepWorkers != 0 || *shards != 0 {
			fmt.Fprintln(os.Stderr, "-probe-turnaround supports only -topo mesh, -pattern uniform, the default workload, and text output")
			os.Exit(2)
		}
		runProbe(*kindStr, *vcs, *buf, *k, *pkt, *creditDelay, *load, *warmup, *packets, *seed, *exact, *ciTarget, *audit)
		return
	}

	sc := routersim.Scenario{
		Router:      *kindStr,
		Topology:    *topo,
		K:           *k,
		Pattern:     *pattern,
		VCs:         *vcs,
		BufPerVC:    *buf,
		PacketSize:  *pkt,
		CreditDelay: *creditDelay,
		StepWorkers: *stepWorkers,
		Shards:      *shards,
		Source:      *source,
		Sizes:       *sizes,
		Overrides:   *overrides,
		Routing:     *routing,
		Faults:      *faults,
		Load:        *load,
	}
	opts := routersim.MatrixOptions{
		Seed:  *seed,
		Audit: *audit,
		Protocol: routersim.MatrixProtocol{
			Warmup: *warmup, Packets: *packets,
			Exact: *exact, CITarget: *ciTarget,
		},
	}
	var r routersim.MatrixResult
	var err error
	if *record != "" {
		r, err = routersim.RecordScenario(sc, opts, *record)
	} else {
		r, err = routersim.RunScenario(sc, opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if r.Error != "" {
		fmt.Fprintln(os.Stderr, r.Error)
		os.Exit(1)
	}

	if *jsonOut {
		if err := routersim.WriteMatrixJSON(os.Stdout, []routersim.MatrixResult{r}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	res := *r.Result
	// Report the engine's canonicalized scenario and the derived job
	// seed: the configuration and RNG stream that actually ran.
	sc = r.Scenario
	fmt.Printf("router=%s topo=%s k=%d pattern=%s vcs=%d buf=%d load=%.2f seed=%d (job seed %d)\n",
		sc.Router, sc.Topology, sc.K, sc.Pattern, sc.VCs, sc.BufPerVC, sc.Load, *seed, r.Seed)
	if sc.Source != "" || sc.Sizes != "" || sc.Overrides != "" {
		fmt.Printf("  workload  source=%q sizes=%q overrides=%q\n", sc.Source, sc.Sizes, sc.Overrides)
	}
	if sc.Routing != "" || sc.Faults != "" {
		fmt.Printf("  routing   policy=%q faults=%q\n", sc.Routing, sc.Faults)
	}
	if *record != "" {
		fmt.Printf("  recorded  packet trace -> %s\n", *record)
	}
	fmt.Printf("  offered   %.3f of capacity\n", res.OfferedLoad)
	fmt.Printf("  accepted  %.3f ±%.3f of capacity\n", res.AcceptedLoad, res.AcceptedCI)
	fmt.Printf("  latency   mean=%.1f ±%.1f p50=%d p95=%d max=%d cycles (%d packets)\n",
		res.Latency.MeanLatency, res.Latency.MeanCI, res.Latency.P50, res.Latency.P95,
		res.Latency.MaxLatency, res.Latency.Packets)
	if res.Latency.Censored > 0 {
		fmt.Printf("  censored  %d tagged packets undrained: latency columns are lower bounds\n",
			res.Latency.Censored)
	}
	if res.Unroutable > 0 {
		fmt.Printf("  dropped   %d unroutable packets (%d flits) drained at discovery\n",
			res.Unroutable, res.DroppedFlits)
	}
	fmt.Printf("  cycles    %d (saturated=%t)\n", res.Cycles, res.Saturated)
	if r.Model != nil {
		fmt.Printf("  model     p=%d v=%d -> %d pipeline stages (EQ 1)\n",
			r.Model.Ports, r.Model.VCs, r.Model.Stages)
	}
}

// runProbe measures the buffer-turnaround time (the credit-loop length
// of Figure 16), which needs the probe path of the facade rather than a
// plain harness job.
func runProbe(kindStr string, vcs, buf, k, pkt, creditDelay int, load float64, warmup int64, packets int, seed uint64, exact bool, ciTarget float64, audit int) {
	kind, _ := routersim.ParseRouterKind(kindStr)
	cfg := routersim.DefaultSimConfig(kind)
	cfg.ExactLatency = exact
	cfg.CITarget = ciTarget
	cfg.Audit = audit
	if vcs > 0 {
		cfg.VCs = vcs
	}
	if buf > 0 {
		cfg.BufPerVC = buf
	}
	cfg.MeshRadix = k
	cfg.PacketSize = pkt
	cfg.CreditDelay = creditDelay
	cfg.LoadFraction = load
	cfg.WarmupCycles = warmup
	cfg.MeasurePackets = packets
	cfg.Seed = seed

	res, err := routersim.SimulateWithTurnaroundProbe(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("router=%s vcs=%d buf=%d load=%.2f seed=%d\n", kindStr, cfg.VCs, cfg.BufPerVC, load, seed)
	fmt.Printf("  buffer turnaround (min) %d cycles\n", res.MinTurnaround)
}
