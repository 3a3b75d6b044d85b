// Torus extension: the paper's future-work direction of "other
// topologies". Runs the speculative VC router on 2-D and 3-D tori with
// dateline virtual-channel classes for deadlock freedom, and compares
// traffic patterns (the flow-control comparison is pattern-insensitive,
// per the paper's footnote 13 — but topology and pattern interact).
package main

import (
	"fmt"
	"log"

	"routersim/internal/flit"
	"routersim/internal/network"
	"routersim/internal/router"
	"routersim/internal/topology"
	"routersim/internal/traffic"
)

func run(name string, pattern traffic.Pattern, topo topology.Topology, rate float64) {
	rc := router.DefaultConfig(router.SpeculativeVC)
	cfg := network.Config{
		Topo:          topo,
		Router:        rc,
		Pattern:       pattern,
		InjectionRate: rate,
		Seed:          5,
	}
	net, err := network.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	var sum, n float64
	net.OnPacketDone = func(p *flit.Packet, now int64) {
		if now > 3000 { // past warm-up
			sum += float64(p.Latency(now))
			n++
		}
	}
	for now := int64(0); now < 15000; now++ {
		net.Step(now)
	}
	if n == 0 {
		fmt.Printf("  %-36s saturated\n", name)
		return
	}
	fmt.Printf("  %-36s mean latency %6.1f cycles (%d packets)\n", name, sum/n, int(n))
}

func main() {
	const rate = 0.1 * 1.0 / 5 // 0.1 flits/node/cycle in packets

	fmt.Println("Speculative VC router (2 VCs x 4 bufs), 4x4 mesh vs torus:")
	run("mesh, uniform", traffic.Uniform{}, topology.NewMesh(4), rate)
	run("torus (dateline VCs), uniform", traffic.Uniform{}, topology.NewTorus(4), rate)
	fmt.Println()
	fmt.Println("The torus halves the average hop count for edge-to-edge traffic, so")
	fmt.Println("uniform-traffic latency drops; the price is that dateline classes")
	fmt.Println("reserve half the VCs for wrapped packets.")
	fmt.Println()

	fmt.Println("Traffic patterns on the 4x4 torus:")
	for _, p := range []traffic.Pattern{
		traffic.Uniform{},
		traffic.Transpose{},
		traffic.BitComplement{},
		traffic.Hotspot{Node: 5, Frac: 0.2},
	} {
		run(p.Name(), p, topology.NewTorus(4), rate)
	}
	fmt.Println()

	// The same code drives a 4-ary 3-cube: 64 nodes of degree 7. The
	// mean hop count matches the 8x8 mesh's node count with a shorter
	// diameter, so zero-load latency drops — at the cost of the wider
	// 7-port crossbar the delay model charges for.
	cube, err := topology.New("torus:k=4,n=3", 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("64 nodes, 3-D (%s, diameter %d):\n", cube.Name(), cube.Diameter())
	run("4x4x4 torus, uniform", traffic.Uniform{}, cube, rate)
	run("4x4x4 torus, bit-complement", traffic.BitComplement{}, cube, rate)
}
