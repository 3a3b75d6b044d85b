// Mesh32 example: the active-set scheduler at scale. A 32×32 mesh —
// 1,024 routers, 16× the paper's evaluation network — runs a complete
// low-load measurement (the regime of zero-load latency points and
// sub-saturation probes) under both scheduling policies and reports
// wall-clock time. The policies are byte-identical in every result; the
// only difference is who gets visited each cycle: the full scan touches
// all 1,024 routers and sources, the scheduler only the few hundred —
// or few dozen — with in-flight work, and its quiescence fast-forward
// skips dead cycles outright.
package main

import (
	"fmt"
	"log"
	"time"

	"routersim"
)

func run(load float64, fullScan bool) (routersim.SimResult, time.Duration) {
	cfg := routersim.DefaultSimConfig(routersim.SpecVCRouter)
	cfg.Topology = "mesh:k=32"
	cfg.Load = load
	cfg.WarmupCycles = 5000
	cfg.MeasurePackets = 2000
	cfg.FullScan = fullScan
	start := time.Now()
	res, err := routersim.Simulate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	return res, time.Since(start)
}

func main() {
	fmt.Println("32x32 mesh, 1,024 speculative-VC routers, uniform traffic")
	fmt.Println()
	fmt.Printf("%-8s %-10s %10s %12s %12s %12s %9s\n",
		"load", "engine", "cycles", "mean lat", "accepted", "wall", "speedup")
	for _, load := range []float64{0.02, 0.05, 0.15} {
		full, fullWall := run(load, true)
		act, actWall := run(load, false)
		if full != act {
			log.Fatalf("engines diverged at load %v:\nfull-scan: %+v\nactive:    %+v", load, full, act)
		}
		fmt.Printf("%-8.2f %-10s %10d %9.1f cy %12.4f %12s %9s\n",
			load, "full-scan", full.Cycles, full.Latency.MeanLatency, full.AcceptedLoad,
			fullWall.Round(time.Millisecond), "")
		fmt.Printf("%-8.2f %-10s %10d %9.1f cy %12.4f %12s %8.1fx\n",
			load, "active", act.Cycles, act.Latency.MeanLatency, act.AcceptedLoad,
			actWall.Round(time.Millisecond), float64(fullWall)/float64(actWall))
	}
	fmt.Println()
	fmt.Println("Identical results (the example verifies every field), different cost:")
	fmt.Println("stepping cost scales with in-flight packets, not with the 1,024 nodes.")
	fmt.Println("The win grows as load falls — and on drain tails and warm-up gaps the")
	fmt.Println("scheduler's quiescence fast-forward jumps straight to the next event.")
}
