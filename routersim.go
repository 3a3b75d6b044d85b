// Package routersim is a complete Go implementation of Peh and Dally's
// "A Delay Model and Speculative Architecture for Pipelined Routers"
// (HPCA 2001): the technology-independent router delay model, the EQ-1
// pipeline design methodology, the speculative virtual-channel router
// microarchitecture, and the cycle-accurate flit-level mesh simulator
// used by the paper's evaluation.
//
// The package is a facade over the implementation packages:
//
//   - The delay model (Table 1 equations, pipeline packing, Figures
//     11–12) — see DesignPipeline and Table1.
//   - The network simulator (wormhole / VC / speculative-VC / unit-
//     latency routers on a k×k mesh with credit flow control) — see
//     Simulate and Sweep.
//   - The paper's experiments (Figures 13–18) — see Reproduce.
//
// Quick start:
//
//	pipe, _ := routersim.DesignPipeline(routersim.SpeculativeVCFlow, routersim.PaperDelayParams())
//	fmt.Print(pipe)                      // 3-stage speculative pipeline
//
//	cfg := routersim.DefaultSimConfig(routersim.SpecVCRouter)
//	cfg.Load = 0.4                       // 40% of network capacity
//	res, _ := routersim.Simulate(cfg)
//	fmt.Println(res.Latency.MeanLatency) // ≈ 35 cycles
package routersim

import (
	"io"

	"routersim/internal/checkpoint"
	"routersim/internal/core"
	"routersim/internal/harness"
	"routersim/internal/router"
	"routersim/internal/sim"
	"routersim/internal/topology"
	"routersim/internal/traffic"
)

// ---------------------------------------------------------------------
// Delay model
// ---------------------------------------------------------------------

// FlowControl selects the flow-control method for the delay model.
type FlowControl = core.FlowControl

// Flow-control methods understood by the delay model.
const (
	WormholeFlow       = core.Wormhole
	VirtualChannelFlow = core.VirtualChannel
	SpeculativeVCFlow  = core.SpeculativeVC
)

// RoutingRange is the range of the routing function (R→v, R→p, R→pv),
// which sets the virtual-channel allocator's complexity.
type RoutingRange = core.RoutingRange

// Routing-function ranges (Figure 8 of the paper).
const (
	RangeVC  = core.RangeVC
	RangePC  = core.RangePC
	RangeAll = core.RangeAll
)

// DelayParams are the delay-model parameters: physical channels P,
// virtual channels per channel V, channel width W (bits), clock cycle in
// τ4 units, and the routing range.
type DelayParams = core.Params

// PaperDelayParams returns the evaluation point of the paper's Table 1:
// p=5, w=32, v=2, clk=20 τ4, R→pv.
func PaperDelayParams() DelayParams { return core.PaperParams() }

// Pipeline is a pipeline design prescribed by the model (EQ 1).
type Pipeline = core.Pipeline

// DesignPipeline applies the general router model: it packs the atomic
// modules of the chosen flow control into pipeline stages that fit the
// clock cycle, returning the per-hop router pipeline.
func DesignPipeline(fc FlowControl, p DelayParams) (Pipeline, error) {
	return core.DesignPipeline(fc, p, core.DefaultSpecOptions())
}

// Table1Row is one row of the paper's Table 1 with our computed value
// and the paper's reference values.
type Table1Row = core.Table1Row

// Table1 evaluates every delay equation at the paper's parameter point.
func Table1() []Table1Row { return core.Table1() }

// ---------------------------------------------------------------------
// Simulator
// ---------------------------------------------------------------------

// RouterKind selects the simulated router microarchitecture.
type RouterKind = router.Kind

// Simulated router microarchitectures.
const (
	WormholeRouter      = router.Wormhole
	VCRouter            = router.VirtualChannel
	SpecVCRouter        = router.SpeculativeVC
	SingleCycleWormhole = router.SingleCycleWormhole
	SingleCycleVC       = router.SingleCycleVC
)

// TrafficPattern chooses packet destinations.
type TrafficPattern = traffic.Pattern

// UniformTraffic is the paper's workload: uniformly distributed random
// destinations.
func UniformTraffic() TrafficPattern { return traffic.Uniform{} }

// TrafficByName resolves a traffic pattern spec ("uniform", "transpose",
// "bit-reversal", "bit-complement", "hotspot[:NODE:FRAC]") for a
// network of the given node count.
func TrafficByName(spec string, nodes int) (TrafficPattern, error) { return traffic.New(spec, nodes) }

// Topology is a network topology: node graph, deterministic routing,
// port metadata, and deadlock-avoidance VC-class policy.
type Topology = topology.Topology

// TopologyByName resolves a topology spec ("mesh", "torus", "ring",
// "hypercube", optionally parameterized: "mesh:k=8", "torus:k=4,n=3",
// "hypercube:64", "ring:16"). Specs that don't state their own size
// take k as the radix (mesh/torus) or node count (ring/hypercube).
func TopologyByName(spec string, k int) (Topology, error) { return topology.New(spec, k) }

// ParseRouterKind resolves a router kind from its name.
func ParseRouterKind(s string) (RouterKind, bool) { return router.ParseKind(s) }

// RouterNames lists the canonical router kind names, comma separated.
func RouterNames() string { return harness.RouterNames() }

// ---------------------------------------------------------------------
// Experiment harness
// ---------------------------------------------------------------------

// Scenario is one fully-specified simulation job of a scenario matrix.
type Scenario = harness.Scenario

// ScenarioMatrix is a declarative experiment matrix: the cross product
// of router kinds, topologies, radices, traffic patterns, VC counts,
// buffer depths, packet sizes, credit delays, and offered loads.
type ScenarioMatrix = harness.Matrix

// MatrixOptions parameterize one matrix run: worker pool size, base
// seed (each job derives an independent seed), measurement protocol,
// and progress/streaming callbacks.
type MatrixOptions = harness.Options

// MatrixProtocol is the per-job measurement protocol of a matrix run.
type MatrixProtocol = harness.Protocol

// MatrixResult is the outcome of one scenario job.
type MatrixResult = harness.JobResult

// ScenarioDelayModel is the paper's delay model evaluated at a
// scenario's topology port count and VC count (see Scenario.DelayModel).
type ScenarioDelayModel = harness.DelayModel

// RunMatrix expands the matrix and runs every job on a bounded,
// deterministic worker pool. Results come back in job-index order; the
// same seed produces identical results regardless of the worker count.
func RunMatrix(m ScenarioMatrix, opts MatrixOptions) ([]MatrixResult, error) {
	return harness.Run(m, opts)
}

// RunScenario runs a single scenario through the matrix engine and
// returns its one result.
func RunScenario(sc Scenario, opts MatrixOptions) (MatrixResult, error) {
	return harness.RunScenario(sc, opts)
}

// RecordScenario runs a single scenario with a workload recorder
// attached and writes the captured packet trace to path (".jsonl" or
// ".json" extensions select the JSONL encoding, anything else the
// binary one). Replaying the file — a scenario whose Source is
// "trace:file=PATH" — reproduces the recorded packet workload event
// for event, independent of engine variant or worker count.
func RecordScenario(sc Scenario, opts MatrixOptions, path string) (MatrixResult, error) {
	return harness.RunScenarioRecorded(sc, opts, path)
}

// CheckpointStore is an on-disk, content-addressed store of completed
// matrix-job results: entries are keyed by engine version, canonical
// scenario, derived seed, and measurement protocol; writes are atomic
// (temp file + rename) and checksummed; corrupt entries are
// quarantined, never trusted and never fatal.
type CheckpointStore = checkpoint.Store

// MatrixJobError is the structured record of a recovered job panic:
// scenario label, panic message, normalized stack, attempt count.
type MatrixJobError = harness.JobError

// OpenCheckpointStore opens (creating if needed) a checkpoint
// directory for resumable matrix runs.
func OpenCheckpointStore(dir string) (*CheckpointStore, error) { return checkpoint.Open(dir) }

// RunMatrixResumable is RunMatrix with crash-safe persistence: every
// successful job is checkpointed as it finishes, and a rerun against
// the same store loads completed jobs and runs only the remainder. An
// interrupted-then-resumed sweep emits byte-identical JSON and CSV to
// an uninterrupted one, at any worker count. Failed jobs are never
// persisted, so a resume retries them.
func RunMatrixResumable(m ScenarioMatrix, opts MatrixOptions, store *CheckpointStore) ([]MatrixResult, error) {
	return harness.RunResumable(m, opts, store)
}

// WriteMatrixJSON serializes matrix results as one JSON array with a
// byte-deterministic payload.
func WriteMatrixJSON(w io.Writer, results []MatrixResult) error {
	return harness.WriteJSON(w, results)
}

// WriteMatrixCSV serializes matrix results as CSV with a
// byte-deterministic payload.
func WriteMatrixCSV(w io.Writer, results []MatrixResult) error {
	return harness.WriteCSV(w, results)
}

// MatrixProgressPrinter returns a Progress callback printing one line
// per completed job (with per-job wall time) to w.
func MatrixProgressPrinter(w io.Writer) func(done, total int, r MatrixResult) {
	return harness.ProgressPrinter(w)
}

// SaturationSearch parameterizes the adaptive saturation search:
// bracket, load resolution, latency cap, and probe budget.
type SaturationSearch = harness.SearchOptions

// SaturationResult is the outcome of one adaptive saturation search:
// the knee load, its delivered throughput, and the probes that found it.
type SaturationResult = harness.SaturationResult

// FindSaturation locates a scenario's saturation point by adaptive
// bisection on offered load — the replacement for sweeping a fixed load
// grid past the knee. Each probe runs one simulation at the bracket
// midpoint under the run's saturation predicate (censored sample,
// throughput shortfall, or the latency cap); the search needs
// ~log2(1/step) simulations where a grid needs 1/step.
func FindSaturation(sc Scenario, opts MatrixOptions, so SaturationSearch) (SaturationResult, error) {
	return harness.FindSaturation(sc, opts, so)
}

// FindSaturations runs the adaptive saturation search for every
// scenario of the matrix (the Loads axis is ignored) on a bounded,
// deterministic worker pool.
func FindSaturations(m ScenarioMatrix, opts MatrixOptions, so SaturationSearch) ([]SaturationResult, error) {
	return harness.FindSaturations(m, opts, so)
}

// WriteSaturationCSV serializes saturation-search results as CSV with a
// byte-deterministic payload.
func WriteSaturationCSV(w io.Writer, results []SaturationResult) error {
	return harness.WriteSaturationCSV(w, results)
}

// WriteSaturationJSON serializes saturation-search results as one JSON
// array with a byte-deterministic payload.
func WriteSaturationJSON(w io.Writer, results []SaturationResult) error {
	return harness.WriteSaturationJSON(w, results)
}

// SimConfig parameterizes one network simulation: a Scenario (router,
// topology, traffic, resources, load; see the harness axis table) plus
// the measurement protocol and the auditor. Scenario fields
// other than Router take their canonical defaults when zero, as in a
// matrix job; DefaultSimConfig fills them all.
type SimConfig struct {
	Scenario

	// Measurement protocol.
	WarmupCycles   int64 // paper: 10,000
	MeasurePackets int   // paper: 100,000
	Seed           uint64

	// Audit, when > 0, enables the engine's invariant auditor at that
	// cycle interval: flit conservation, per-wire credit conservation,
	// and buffer-occupancy bounds are checked across the whole network
	// every Audit cycles, on every engine variant. A violation panics
	// with a diagnostic snapshot. Results are byte-identical with
	// auditing on or off.
	Audit int

	// ExactLatency stores every latency sample for exact percentiles
	// (the paper-figure reproduction mode); the default streams samples
	// into a log-binned histogram with O(1) memory (exact mean/max,
	// ≤ 1.6% percentile error).
	ExactLatency bool
	// CITarget, when > 0, ends the tagged sample early once the
	// relative 95% batch-means CI half-width of mean latency reaches it
	// (e.g. 0.02 for ±2%).
	CITarget float64
}

// DefaultSimConfig returns the paper's configuration for a router kind
// (Figure 13 buffering: 8 flit buffers per input port) on the 8×8 mesh
// at 20% load.
func DefaultSimConfig(kind RouterKind) SimConfig {
	rc := router.DefaultConfig(kind)
	return SimConfig{
		Scenario: Scenario{
			Router:      kind.String(),
			K:           8,
			VCs:         rc.VCs,
			BufPerVC:    rc.BufPerVC,
			PacketSize:  5,
			CreditDelay: 1,
			Load:        0.2,
		},
		WarmupCycles:   10000,
		MeasurePackets: 100000,
		Seed:           1,
	}
}

// SimResult is the outcome of one simulation run.
type SimResult = sim.Result

// LoadPoint is one point of a latency-throughput curve.
type LoadPoint = sim.LoadPoint

// protocol is the harness protocol of the configuration.
func (c SimConfig) protocol() harness.Protocol {
	return harness.Protocol{
		Warmup: c.WarmupCycles, Packets: c.MeasurePackets,
		Exact: c.ExactLatency, CITarget: c.CITarget,
	}
}

// lower is the scenario's one lowering, plus the auditor.
func (c SimConfig) lower() (sim.Config, error) {
	low, err := c.Scenario.SimConfig(c.Seed, c.protocol())
	if err != nil {
		return sim.Config{}, err
	}
	low.Net.Audit = c.Audit
	return low, nil
}

// Simulate runs one simulation with the paper's measurement protocol:
// warm-up, a tagged packet sample, and a drain phase; latency is
// measured from packet creation to last-flit ejection.
func Simulate(c SimConfig) (SimResult, error) {
	low, err := c.lower()
	if err != nil {
		return SimResult{}, err
	}
	return sim.Run(low)
}

// SimulateWithTurnaroundProbe runs Simulate with buffer-turnaround
// probes installed on every router; the result's MinTurnaround reports
// the architectural credit-loop length (Figure 16): 4 cycles for
// wormhole and speculative VC routers, 5 for the non-speculative VC
// router, 2 for single-cycle routers.
func SimulateWithTurnaroundProbe(c SimConfig) (SimResult, error) {
	low, err := c.lower()
	if err != nil {
		return SimResult{}, err
	}
	low.Probe = true
	return sim.Run(low)
}

// Sweep runs one simulation per offered load (fractions of capacity) in
// parallel, producing a latency-throughput curve: the harness's curve
// engine, the one the figures use. Point i runs at the seed
// rng.Derive(c.Seed, i) — it equals Simulate with that Seed and that
// Load — so the points' random streams are independent. Loads must be
// distinct, and the configuration is checked as strictly as Simulate
// checks it.
func Sweep(c SimConfig, loads []float64) ([]LoadPoint, error) {
	return harness.Curve(c.Scenario, loads, harness.Options{Seed: c.Seed, Audit: c.Audit, Protocol: c.protocol()})
}

// SaturationLoad estimates the saturation point of a swept curve using
// the paper's 140-cycle plot clip.
func SaturationLoad(pts []LoadPoint) float64 { return sim.SaturationLoad(pts, 140) }
