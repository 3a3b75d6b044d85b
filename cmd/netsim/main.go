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
	"routersim/internal/harness"
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

var (
	record   = flag.String("record", "", "record the run's packet workload to this trace file (.jsonl/.json = JSONL, else binary)")
	audit    = flag.Int("audit", 0, "check engine conservation invariants every N cycles (0 = off; results are identical either way)")
	warmup   = flag.Int64("warmup", 10000, "warm-up cycles")
	packets  = flag.Int("packets", 20000, "tagged sample size")
	exact    = flag.Bool("exact", false, "store every latency sample for exact percentiles (default streams with O(1) memory)")
	ciTarget = flag.Float64("ci-target", 0, "end the run early once the relative 95% CI half-width of mean latency reaches this (0 = run the full sample)")
	seed     = flag.Uint64("seed", 1, "random seed")
	probe    = flag.Bool("probe-turnaround", false, "measure the buffer turnaround time (Figure 16)")
	jsonOut  = flag.Bool("json", false, "emit the result as JSON instead of text")

	// The scenario: one flag per axis, from the axis table.
	sc routersim.Scenario
)

func init() { harness.AddScenarioFlags(flag.CommandLine, &sc) }

func main() {
	flag.Parse()
	handleSignals()

	if *probe {
		// The turnaround probe runs through the facade, which lowers the
		// same scenario but has neither a recorder nor a JSON result.
		if *jsonOut || *record != "" {
			fmt.Fprintln(os.Stderr, "-probe-turnaround supports neither -json nor -record")
			os.Exit(2)
		}
		runProbe()
		return
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
	fmt.Printf("%s seed=%d (job seed %d)\n", r.Scenario.Label(), *seed, r.Seed)
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
func runProbe() {
	cfg := routersim.SimConfig{
		Scenario: sc, Seed: *seed, Audit: *audit,
		WarmupCycles: *warmup, MeasurePackets: *packets,
		ExactLatency: *exact, CITarget: *ciTarget,
	}
	res, err := routersim.SimulateWithTurnaroundProbe(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Expand canonicalizes: the label states the configuration that ran.
	fmt.Printf("%s seed=%d\n", sc.Matrix().Expand()[0].Label(), *seed)
	fmt.Printf("  buffer turnaround (min) %d cycles\n", res.MinTurnaround)
}
