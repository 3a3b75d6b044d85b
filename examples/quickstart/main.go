// Quickstart: design a router pipeline with the delay model, then run a
// small network simulation with the prescribed router — the two halves
// of the Peh-Dally methodology in one program.
package main

import (
	"fmt"
	"log"

	"routersim"
)

func main() {
	// 1. Delay model: ask the model for the pipeline of a speculative
	// virtual-channel router at the paper's technology point.
	params := routersim.PaperDelayParams()
	params.Range = routersim.RangeVC // deterministic routing
	pipe, err := routersim.DesignPipeline(routersim.SpeculativeVCFlow, params)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Pipeline prescribed by the delay model:")
	fmt.Print(pipe)
	fmt.Println()

	// 2. Simulator: run the prescribed 3-stage speculative router on an
	// 8x8 mesh at 40% of capacity with uniform traffic.
	cfg := routersim.DefaultSimConfig(routersim.SpecVCRouter)
	cfg.Load = 0.40
	cfg.WarmupCycles = 3000
	cfg.MeasurePackets = 5000
	res, err := routersim.Simulate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Simulated %d-stage speculative VC router on an 8x8 mesh at %.0f%% capacity:\n",
		pipe.Depth(), 100*cfg.Load)
	fmt.Printf("  mean latency    %.1f cycles\n", res.Latency.MeanLatency)
	fmt.Printf("  p95 latency     %d cycles\n", res.Latency.P95)
	fmt.Printf("  accepted load   %.2f of capacity\n", res.AcceptedLoad)
}
