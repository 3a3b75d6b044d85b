package harness

import (
	"fmt"

	"routersim/internal/sim"
)

// Curve runs one scenario across a load range — one latency-throughput
// curve — through the matrix engine and returns one point per load, in
// input order. The scenario is checked as stated, as RunScenario checks
// it, before the matrix engine canonicalizes it (which would pin a
// wormhole scenario's stated VCs to 1, say). Loads must be distinct
// (the matrix engine collapses exact-duplicate scenarios, which would
// silently shorten the curve).
// It is the one curve engine: every figure and the facade's Sweep run
// on it, point i at the seed rng.Derive(opts.Seed, i).
func Curve(sc Scenario, loads []float64, opts Options) ([]sim.LoadPoint, error) {
	seen := make(map[float64]bool, len(loads))
	for _, l := range loads {
		if seen[l] {
			return nil, fmt.Errorf("harness: duplicate load %v in curve", l)
		}
		seen[l] = true
	}
	// Run's Matrix.Validate sizes the network of each load's scenario.
	if err := sc.check(false); err != nil {
		return nil, fmt.Errorf("harness: %s: %w", sc.canonical().Label(), err)
	}
	m := sc.Matrix()
	m.Loads = loads
	results, err := Run(m, opts)
	if err != nil {
		return nil, err
	}
	pts := make([]sim.LoadPoint, len(results))
	for i, r := range results {
		if r.Error != "" {
			return nil, fmt.Errorf("harness: %s: %s", r.Scenario.Label(), r.Error)
		}
		pts[i] = sim.LoadPoint{Load: r.Scenario.Load, Result: *r.Result}
	}
	return pts, nil
}
