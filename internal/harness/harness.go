package harness

import (
	"fmt"
	"io"
	"sync"
	"time"

	"routersim/internal/pool"
	"routersim/internal/rng"
	"routersim/internal/sim"
	"routersim/internal/trace"
)

// Protocol is the measurement protocol applied to every job of a run.
type Protocol struct {
	// Warmup cycles before measurement begins (0 = paper's 10,000).
	Warmup int64 `json:"warmup"`
	// Packets in the tagged sample (0 = paper's 100,000).
	Packets int `json:"packets"`
	// Exact stores every latency sample per job for exact percentiles —
	// the bit-identical paper-figure reproduction mode. The default
	// streams samples into a log-binned histogram with O(1) memory per
	// job (exact mean/max, ≤ 1.6% percentile error).
	Exact bool `json:"exact,omitempty"`
	// CITarget, when > 0, ends each job's tagged sample early once the
	// relative 95% batch-means CI half-width of mean latency reaches it
	// (e.g. 0.02 for ±2%) — a speed win on long sub-saturation runs.
	CITarget float64 `json:"ci_target,omitempty"`
}

// validate refuses, before any job runs, a protocol every job would.
func (pr Protocol) validate() error {
	cfg := sim.Config{WarmupCycles: pr.Warmup, MeasurePackets: pr.Packets, CITarget: pr.CITarget}
	return cfg.Validate()
}

// QuickProtocol is a scaled-down protocol for smoke runs and tests.
func QuickProtocol() Protocol { return Protocol{Warmup: 2000, Packets: 1500} }

// PaperProtocol is the paper's full measurement protocol (Section 5).
func PaperProtocol() Protocol { return Protocol{Warmup: 10000, Packets: 100000} }

// Options parameterize one matrix run.
type Options struct {
	// Workers bounds the worker pool (0 = GOMAXPROCS). The worker count
	// affects only wall time, never results.
	Workers int
	// Seed is the base seed; every job derives its own independent seed
	// from it and the job index.
	Seed uint64
	// Protocol is the per-job measurement protocol.
	Protocol Protocol
	// Progress, when non-nil, is called after each job completes, in
	// completion order, with the running done count. It is called from
	// worker goroutines but never concurrently.
	Progress func(done, total int, r JobResult)
	// OnResult, when non-nil, streams results in job-index order as soon
	// as every earlier job has finished. It is never called concurrently.
	OnResult func(r JobResult)
	// Audit, when > 0, enables the network engine's invariant auditor
	// in every job at that cycle interval (network.Config.Audit). It is
	// an execution option: results are byte-identical with auditing on
	// or off, so audited jobs share checkpoint entries with unaudited
	// ones.
	Audit int
	// Retries bounds how many times a panicking job is retried before
	// its failure is recorded as a structured JobError result: 0 means
	// the default single retry, a negative value disables retries, and
	// a positive value allows that many. Retries back off with a capped
	// exponential delay. Jobs that return an error (rather than panic)
	// are never retried — config errors are deterministic.
	Retries int

	// runFn replaces the job executor (tests only: deterministic panic
	// and retry injection). nil runs the real simulation.
	runFn func(i int, sc Scenario, opts Options) JobResult
}

// JobResult is the outcome of one scenario job. Wall is excluded from
// serialization: it is the only nondeterministic field, and the
// serialized payload must be byte-identical across runs and worker
// counts.
type JobResult struct {
	// Index is the job's position in the expanded matrix.
	Index int `json:"index"`
	// Scenario is the job's point of the matrix.
	Scenario Scenario `json:"scenario"`
	// Seed is the job's derived RNG seed.
	Seed uint64 `json:"seed"`
	// Result holds the simulation outcome (nil on error).
	Result *sim.Result `json:"result,omitempty"`
	// Model is the paper's delay model evaluated at the scenario's
	// topology port count and VC count (nil for router kinds the model
	// does not describe, i.e. the single-cycle baselines).
	Model *DelayModel `json:"delay_model,omitempty"`
	// Error is the job's failure, if any. A recovered panic reports as
	// "panic: <message>" here (so every error-display path works
	// unchanged) with the structured details in Failure.
	Error string `json:"error,omitempty"`
	// Failure carries the structured record of a recovered panic:
	// message, normalized stack, scenario label, attempt count. nil for
	// successful jobs and plain (non-panic) errors.
	Failure *JobError `json:"failure,omitempty"`
	// Wall is the job's wall-clock run time (progress reporting only).
	Wall time.Duration `json:"-"`
}

// Run expands the matrix and executes every job on a bounded worker
// pool, jobs of one network shape sharing networks (shelf). Results are
// returned in job-index order. Job failures are recorded per job, not
// returned: a bad scenario must not discard the rest of a large matrix.
// Run itself fails only on an empty matrix or an invalid protocol.
func Run(m Matrix, opts Options) ([]JobResult, error) {
	if err := opts.Protocol.validate(); err != nil {
		return nil, err
	}
	scenarios := m.Expand()
	if len(scenarios) == 0 {
		return nil, fmt.Errorf("harness: empty matrix")
	}
	results := make([]JobResult, len(scenarios))
	sh := newShelf(opts.Workers)
	defer sh.close()

	var (
		mu     sync.Mutex
		done   int
		ready  = make([]bool, len(scenarios))
		cursor int
	)
	pool.Run(len(scenarios), opts.Workers, func(i int) {
		results[i] = executeJob(i, scenarios[i], opts, sh)
		if opts.Progress == nil && opts.OnResult == nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		done++
		if opts.Progress != nil {
			opts.Progress(done, len(scenarios), results[i])
		}
		ready[i] = true
		for opts.OnResult != nil && cursor < len(ready) && ready[cursor] {
			opts.OnResult(results[cursor])
			cursor++
		}
	})
	return results, nil
}

// RunScenario runs a single scenario through the matrix engine and
// returns its one result. Unlike matrix expansion — which canonicalizes
// inapplicable axis values, e.g. a VC count crossed with a wormhole
// router — an explicitly stated scenario is validated strictly: a
// configuration the simulation cannot honor as stated is an error,
// labelled with the configuration that would have run.
func RunScenario(sc Scenario, opts Options) (JobResult, error) {
	if err := sc.check(); err != nil {
		return JobResult{}, fmt.Errorf("harness: %s: %w", sc.canonical().Label(), err)
	}
	results, err := Run(sc.Matrix(), opts)
	if err != nil {
		return JobResult{}, err
	}
	return results[0], nil
}

// RunScenarioRecorded runs a single scenario with a workload recorder
// attached and writes the captured trace to path (trace.WriteFile:
// ".jsonl"/".json" extensions select the JSONL encoding, anything else
// the binary one) — the record half of the trace record/replay
// workflow. The capture includes every injection of the run, warm-up
// and drain included, so replaying the file via a "trace:file=PATH"
// source reproduces the run's packet workload event for event. The job
// uses the same derived seed as RunScenario, so the recorded run IS the
// plain run, plus the capture. Recording a scenario that itself replays
// a trace is an error.
func RunScenarioRecorded(sc Scenario, opts Options, path string) (JobResult, error) {
	seed := rng.Derive(opts.Seed, 0)
	sc = sc.canonical() // SimConfig canonicalizes too; errors name what runs
	cfg, err := sc.SimConfig(seed, opts.Protocol)
	if err != nil {
		return JobResult{}, fmt.Errorf("harness: %s: %w", sc.Label(), err)
	}
	if cfg.Net.Replay != nil {
		return JobResult{}, fmt.Errorf("harness: %s: recording a trace-replay scenario would copy the input trace; record a live workload instead", sc.Label())
	}
	jr := JobResult{Index: 0, Scenario: sc, Seed: seed}
	rec := trace.NewRecorder(cfg.Net.Topo.Nodes())
	cfg.Record = rec
	start := time.Now()
	res, err := sim.NewRunner(cfg).Run()
	jr.Wall = time.Since(start)
	if err != nil {
		return JobResult{}, fmt.Errorf("harness: %s: %w", sc.Label(), err)
	}
	jr.Result = &res
	jr.Model = sc.DelayModel()
	if err := trace.WriteFile(path, rec.Trace()); err != nil {
		return JobResult{}, fmt.Errorf("harness: %s: %w", sc.Label(), err)
	}
	return jr, nil
}

// job executes one scenario with its derived seed on a shelved network.
func (s *shelf) job(i int, sc Scenario, opts Options) (jr JobResult) {
	seed := rng.Derive(opts.Seed, uint64(i))
	jr = JobResult{Index: i, Scenario: sc, Seed: seed}
	start := time.Now()
	defer func() { jr.Wall = time.Since(start) }()

	cfg, err := sc.SimConfig(seed, opts.Protocol)
	if err != nil {
		jr.Error = err.Error()
		return jr
	}
	cfg.Net.Audit = opts.Audit
	res, err := s.run(cfg)
	if err != nil {
		jr.Error = err.Error()
		return jr
	}
	jr.Result = &res
	jr.Model = sc.DelayModel()
	return jr
}

// ProgressPrinter returns a Progress callback that writes one line per
// completed job to w, including the per-job wall time. Wall time goes to
// the progress stream, never the result payload, to keep payloads
// deterministic.
func ProgressPrinter(w io.Writer) func(done, total int, r JobResult) {
	return func(done, total int, r JobResult) {
		status := "ok"
		if r.Error != "" {
			status = "error: " + r.Error
		} else if r.Result.Saturated {
			status = "saturated"
		}
		fmt.Fprintf(w, "[%d/%d] %s (%.2fs) %s\n",
			done, total, r.Scenario.Label(), r.Wall.Seconds(), status)
	}
}
