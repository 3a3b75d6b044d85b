// Package sim runs network simulations using the paper's measurement
// protocol (Section 5): a warm-up phase, a tagged sample of injected
// packets, and a drain phase that runs until every tagged packet has
// been received. Latency is measured from packet creation (including
// source queueing) to last-flit ejection.
//
// The measurement engine is statistically honest about the two failure
// modes of that protocol. At or past saturation the drain phase hits
// its cycle cap with tagged packets still in flight; those undrained
// packets are the *slowest* of the sample, so the surviving latencies
// are biased low — the result carries the censored count and consumers
// must treat censored summaries as saturated, not as valid latencies.
// Below saturation, consecutive latency samples are serially correlated
// (queue states persist), so confidence intervals come from batch
// means, not the dishonestly tight s/√n of raw samples.
package sim

import (
	"fmt"
	"math"

	"routersim/internal/flit"
	"routersim/internal/network"
	"routersim/internal/pool"
	"routersim/internal/stats"
	"routersim/internal/topology"
	"routersim/internal/trace"
)

// ciBatches is the number of batch-means batches a full tagged sample
// is divided into; minStopBatches is the least number of completed
// batches before CITarget may end a run early (a variance estimate over
// fewer batches is too noisy to stop on).
const (
	ciBatches      = 20
	minStopBatches = 8
)

// Config parameterizes one simulation run.
type Config struct {
	Net network.Config
	// WarmupCycles precede measurement (paper: 10,000).
	WarmupCycles int64
	// MeasurePackets is the tagged sample size (paper: 100,000).
	MeasurePackets int
	// MaxCycles caps the run for loads beyond saturation; 0 derives a
	// cap from the offered load, sample size, and topology diameter.
	MaxCycles int64
	// ExactLatency stores every tagged latency sample for exact
	// percentiles — the paper-figure reproduction mode. The default
	// streams samples into a fixed-size log-binned histogram (mean and
	// max stay exact; percentiles carry ≤ 1.6% relative error), so a
	// matrix of thousands of jobs holds no per-sample memory.
	ExactLatency bool
	// CITarget, when > 0, ends the tagged sample early once the 95%
	// batch-means confidence half-width of mean latency falls to
	// CITarget × mean (e.g. 0.02 for ±2%). Sub-saturation runs that
	// converge early skip the rest of their sample; saturated runs
	// never converge and still run to their cycle cap.
	CITarget float64
	// Probe enables the buffer-turnaround probe on all routers.
	Probe bool
	// Record, when non-nil, captures every packet injection of the run
	// (warm-up included) into the recorder — the record half of the
	// trace record/replay workflow. The capture sees the exact workload,
	// so replaying it reproduces the run event for event.
	Record *trace.Recorder
	// StallCycles tunes the progress watchdog: with packets outstanding
	// but no flit ejected for this many consecutive cycles, the run
	// aborts with a LivelockError carrying a diagnostic snapshot
	// instead of spinning to the cycle cap. 0 derives the allowance
	// from the topology's drain budget (drainAllowance — generous for
	// any configuration that can drain at all); a negative value
	// disables the watchdog.
	StallCycles int64
	// NetHook, when non-nil, observes the network — freshly built, or
	// reset by RunOn — before the run starts: a seam for tests to install
	// custom routing policies or inspect engine state. It must not
	// retain the network past the run.
	NetHook func(*network.Network)
}

// Result reports one simulation run. The json tags keep the harness's
// serialized payloads in one consistent snake_case schema.
type Result struct {
	// OfferedLoad is the offered load as a fraction of capacity.
	OfferedLoad float64 `json:"offered_load"`
	// AcceptedLoad is the measured ejection rate as a fraction of
	// capacity.
	AcceptedLoad float64 `json:"accepted_load"`
	// AcceptedCI is the 95% batch-means confidence half-width on
	// AcceptedLoad, as a fraction of capacity (0 when the measurement
	// window closed before enough batches completed).
	AcceptedCI float64 `json:"accepted_ci,omitempty"`
	// Latency summarizes tagged-packet latency in cycles. Its Censored
	// field counts tagged packets still undrained at the cycle cap:
	// when nonzero the latency columns are biased low (the undrained
	// packets are the slowest) and must be read as saturated, not as
	// valid latencies.
	Latency stats.Summary `json:"latency"`
	// Saturated is true when the run hit MaxCycles before every tagged
	// packet was received, or accepted throughput fell short of the
	// offered load — the network is past its saturation point.
	Saturated bool `json:"saturated"`
	// Cycles is the number of simulated cycles.
	Cycles int64 `json:"cycles"`
	// TaggedDone / Tagged count the sample packets received vs created.
	TaggedDone int `json:"tagged_done"`
	Tagged     int `json:"tagged"`
	// MinTurnaround is the smallest observed buffer-turnaround interval
	// (0 unless Config.Probe).
	MinTurnaround int64 `json:"min_turnaround"`
	// Unroutable counts packets dropped because fault injection left
	// their destination unreachable; DroppedFlits counts their flits.
	// Both are always zero on unfaulted configurations. Dropped tagged
	// packets retire from the sample without contributing a latency.
	Unroutable   int64 `json:"unroutable,omitempty"`
	DroppedFlits int64 `json:"dropped_flits,omitempty"`
}

// Runner executes simulations from one base configuration. It is the
// reusable execution core shared by Run, SweepLoads, and the experiment
// harness: construct once, then Run as many times as needed (each Run
// builds a fresh network, so a Runner is safe to reuse; distinct Runners
// are safe to drive concurrently; RunOn reuses a caller's network).
type Runner struct {
	cfg Config
}

// NewRunner returns a Runner over a base configuration.
func NewRunner(cfg Config) *Runner { return &Runner{cfg: cfg} }

// Config returns the Runner's base configuration.
func (r *Runner) Config() Config { return r.cfg }

// drainAllowance is the post-injection drain budget in cycles. It
// scales with the topology's diameter and the packet length — the
// dominant terms of worst-case packet latency — with a wide congestion
// multiplier, and never drops below the legacy fixed 30,000 cycles:
// the floor keeps the paper's 8×8-mesh runs cycle-identical, while
// high-diameter topologies (long rings, high-n tori) get the slack
// their longest routes actually need instead of being falsely labeled
// saturated when a clean run simply drains slowly.
func drainAllowance(ncfg network.Config) int64 {
	const floor = 30000
	if ncfg.Topo == nil {
		return floor // Normalize always sets Topo; defensive only
	}
	// The packet-length term uses the workload's mean flit count when a
	// size distribution or trace replay makes it differ from PacketSize.
	pkt := int64(ncfg.PacketSize)
	if m := int64(ncfg.MeanFlitsPerPacket() + 0.999999); m > pkt {
		pkt = m
	}
	scaled := 64 * int64(ncfg.Topo.Diameter()) * (pkt + int64(ncfg.CreditDelay) + 8)
	if scaled < floor {
		return floor
	}
	return scaled
}

// LivelockError reports a progress-watchdog abort: packets were
// outstanding but no flit left the network for the full stall
// allowance. Snapshot is the network's diagnostic state at the abort —
// active routers, in-flight flit totals, per-VC credit state — the
// evidence a deadlock/livelock report needs.
type LivelockError struct {
	// Cycle is the cycle the watchdog fired on; LastProgress is the
	// last cycle a flit was ejected (-1: never).
	Cycle        int64
	LastProgress int64
	// Allowance is the stall allowance that expired.
	Allowance int64
	// Outstanding is the number of packets created but not retired.
	Outstanding int64
	// Snapshot is the network's diagnostic state at the abort.
	Snapshot string
}

func (e *LivelockError) Error() string {
	return fmt.Sprintf("sim: no delivery progress for %d cycles (cycle %d, last progress %d, %d packets outstanding) — livelock or deadlock; network state:\n%s",
		e.Cycle-e.LastProgress, e.Cycle, e.LastProgress, e.Outstanding, e.Snapshot)
}

// Validate rejects a protocol no run can honour: a negative warm-up,
// sample size or cycle cap, or a negative or non-finite CITarget (a
// negative StallCycles disables the watchdog). Run and RunOn call it.
func (c *Config) Validate() error {
	switch {
	case c.WarmupCycles < 0:
		return fmt.Errorf("sim: WarmupCycles %d is negative", c.WarmupCycles)
	case c.MeasurePackets < 0:
		return fmt.Errorf("sim: MeasurePackets %d is negative", c.MeasurePackets)
	case c.MaxCycles < 0:
		return fmt.Errorf("sim: MaxCycles %d is negative", c.MaxCycles)
	case !(c.CITarget >= 0) || math.IsInf(c.CITarget, 1):
		return fmt.Errorf("sim: CITarget %v; need a finite value >= 0", c.CITarget)
	}
	return nil
}

// Run executes one simulation to completion on a fresh network.
func (r *Runner) Run() (Result, error) {
	if err := r.cfg.Validate(); err != nil {
		return Result{}, err
	}
	net, err := network.New(r.cfg.Net)
	if err != nil {
		return Result{}, err
	}
	defer net.Close()
	return r.run(net)
}

// RunOn is Run on net, reset in place to the Runner's network
// configuration (network.Reset, whose error it returns): same result,
// no construction. The caller keeps net, and closes it.
func (r *Runner) RunOn(net *network.Network) (Result, error) {
	if err := r.cfg.Validate(); err != nil {
		return Result{}, err
	}
	if err := net.Reset(r.cfg.Net); err != nil {
		return Result{}, err
	}
	return r.run(net)
}

// run is the measurement loop over a freshly reset network.
func (r *Runner) run(net *network.Network) (Result, error) {
	cfg := r.cfg
	if cfg.WarmupCycles == 0 {
		cfg.WarmupCycles = 10000
	}
	if cfg.MeasurePackets == 0 {
		cfg.MeasurePackets = 100000
	}
	ncfg := net.Config()
	if cfg.NetHook != nil {
		cfg.NetHook(net)
	}
	stall := cfg.StallCycles
	if stall == 0 {
		stall = drainAllowance(ncfg)
	}

	capacity := net.Capacity()
	offeredFlits := ncfg.InjectionRate * ncfg.MeanFlitsPerPacket()
	offeredFrac := offeredFlits / capacity

	pktPerCycle := ncfg.InjectionRate * float64(net.Nodes())
	var window int64
	if pktPerCycle > 0 {
		window = int64(float64(cfg.MeasurePackets)/pktPerCycle) + 1
	}
	maxCycles := cfg.MaxCycles
	if maxCycles == 0 {
		if pktPerCycle <= 0 {
			return Result{}, fmt.Errorf("sim: zero injection rate; nothing to measure")
		}
		// Time to inject the sample at the offered rate, plus a drain
		// allowance scaled to the topology's diameter and packet size;
		// beyond saturation the cap ends the run.
		maxCycles = cfg.WarmupCycles + 4*window + drainAllowance(ncfg)
	}

	var lat stats.Accumulator
	if cfg.ExactLatency {
		// The sample never outgrows its target (a CI-target stop only
		// shortens it), so the slice is reserved once.
		lat = stats.NewLatency(cfg.MeasurePackets)
	} else {
		lat = stats.NewStream()
	}
	latBatchSize := int64(cfg.MeasurePackets / ciBatches)
	if latBatchSize < 1 {
		latBatchSize = 1
	}
	// Throughput batches are time-based: one observation per slice of
	// the measurement window (each observation enters as a unit batch;
	// the accumulator collapses adjacent slices into longer batches as
	// a capped run measures far past the injection window, keeping the
	// batch count bounded and the interval honest).
	thBatchLen := window / ciBatches
	if thBatchLen < 64 {
		thBatchLen = 64
	}
	var (
		latBatch     = stats.NewBatchMeans(latBatchSize)
		thBatch      = stats.NewBatchMeans(1)
		th           = stats.NewThroughput(net.Nodes())
		turn         stats.Turnaround
		tagged       int
		taggedDone   int
		sampleTarget = cfg.MeasurePackets
		measuring    = false
	)
	if cfg.Probe {
		net.SetProbes(&turn)
	}

	// Watchdog state: createdPkts/donePkts track outstanding work (done
	// includes dropped-packet retirements) and lastProgress the last
	// cycle a flit left the network. All maintained inside the existing
	// callbacks — the network hot path pays nothing for the watchdog.
	var (
		createdPkts  int64
		donePkts     int64
		lastProgress int64 = -1
	)

	rec := cfg.Record
	net.OnPacketCreated = func(p *flit.Packet, now int64) {
		createdPkts++
		if rec != nil {
			rec.Record(now, p.Src, p.Dst, p.Size, p.ID)
		}
		if measuring && tagged < sampleTarget {
			p.Tagged = true
			tagged++
		}
	}
	net.OnFlitEjected = func(f flit.Flit, now int64) {
		lastProgress = now
		th.Eject(now)
	}
	net.OnPacketDone = func(p *flit.Packet, now int64) {
		donePkts++
		lastProgress = now // dropped-packet drains eject no flits but are progress
		if p.Tagged {
			taggedDone++
			// A dropped (unroutable) packet retires the sample slot but
			// never arrived, so it contributes no latency observation.
			if !p.Dropped {
				lat.Add(p.Latency(now))
				latBatch.Add(float64(p.Latency(now)))
			}
		}
	}

	var (
		measureStart int64
		lastFlits    int64
		checkedAt    int
	)
	now := int64(0)
	for ; now < maxCycles; now++ {
		if now == cfg.WarmupCycles {
			measuring = true
			measureStart = now
			th.Open(now)
		}
		if stall > 0 && createdPkts == donePkts {
			// Nothing outstanding: the stall clock starts fresh. Updated
			// before the Step so a packet created this cycle — possibly
			// after a long quiescence fast-forward — measures its stall
			// from here, not from the last delivery before the gap.
			lastProgress = now - 1
		}
		net.Step(now)
		if stall > 0 && createdPkts > donePkts && now-lastProgress > stall {
			return Result{}, &LivelockError{
				Cycle:        now,
				LastProgress: lastProgress,
				Allowance:    stall,
				Outstanding:  createdPkts - donePkts,
				Snapshot:     net.DiagSnapshot(),
			}
		}
		if !measuring {
			// Quiescence fast-forward: with no flit in any buffer or on
			// any wire and every source parked, nothing can happen until
			// the next scheduled injection — jump straight to it. The
			// warm-up boundary caps the jump so measurement opens on its
			// exact cycle.
			if next := net.NextDue(now); next > now+1 {
				if next > cfg.WarmupCycles {
					next = cfg.WarmupCycles
				}
				if next > maxCycles {
					// An explicit MaxCycles below the warm-up bound
					// still ends the run on its exact cycle.
					next = maxCycles
				}
				now = next - 1
			}
			continue
		}
		if (now-measureStart+1)%thBatchLen == 0 {
			f := th.Flits()
			thBatch.Add(float64(f-lastFlits) / float64(net.Nodes()) / float64(thBatchLen))
			lastFlits = f
		}
		if cfg.CITarget > 0 && sampleTarget == cfg.MeasurePackets {
			if b := latBatch.Batches(); b >= minStopBatches && b != checkedAt {
				checkedAt = b
				if mean, half, ok := latBatch.CI(); ok && mean > 0 && half <= cfg.CITarget*mean {
					// Enough precision: stop tagging, drain what is in
					// flight, and report the shortened sample.
					sampleTarget = tagged
				}
			}
		}
		if tagged >= sampleTarget && taggedDone == tagged {
			now++
			break
		}
		if next := net.NextDue(now); next > now+1 {
			// Quiescence fast-forward through the measurement window.
			// The skipped cycles are observationally empty — no flit
			// moves, no packet completes, no latency sample lands — so
			// the only bookkeeping they would have done is the
			// throughput-batch observation at each crossed batch
			// boundary. Replay those verbatim: the first flushes
			// whatever flit delta accrued since the previous boundary,
			// the rest record exact zeros, just as stepping would.
			if next > maxCycles {
				next = maxCycles
			}
			c := now + 1
			if off := (c - measureStart + 1) % thBatchLen; off != 0 {
				c += thBatchLen - off
			}
			for ; c < next; c += thBatchLen {
				f := th.Flits()
				thBatch.Add(float64(f-lastFlits) / float64(net.Nodes()) / float64(thBatchLen))
				lastFlits = f
			}
			now = next - 1
		}
	}
	th.Close(now)

	res := Result{
		OfferedLoad:   offeredFrac,
		AcceptedLoad:  th.FlitsPerNodeCycle() / capacity,
		Cycles:        now,
		Tagged:        tagged,
		TaggedDone:    taggedDone,
		MinTurnaround: turn.Min(),
		Unroutable:    net.Unroutable(),
		DroppedFlits:  net.DroppedFlits(),
	}
	if _, half, ok := thBatch.CI(); ok {
		res.AcceptedCI = half / capacity
	}
	// Past saturation, accepted throughput plateaus below the offered
	// load (source queues grow without bound); tagged packets injected
	// early may still drain, so completion alone is not the criterion.
	res.Saturated = taggedDone < sampleTarget ||
		res.AcceptedLoad < res.OfferedLoad*0.95-0.005
	if lat.Count() > 0 {
		res.Latency = stats.Summary{
			MeanLatency: lat.Mean(),
			P50:         lat.Percentile(0.5),
			P95:         lat.Percentile(0.95),
			MaxLatency:  lat.Max(),
			Packets:     lat.Count(),
			Accepted:    th.FlitsPerNodeCycle(),
		}
		if _, half, ok := latBatch.CI(); ok {
			res.Latency.MeanCI = half
		}
	}
	// Censored counts the tagged packets the cycle cap cut off — the
	// slowest of the sample, so any latency summary alongside a nonzero
	// censored count is a lower bound, not a measurement.
	res.Latency.Censored = tagged - taggedDone
	return res, nil
}

// Run executes one simulation to completion. It is shorthand for
// NewRunner(cfg).Run().
func Run(cfg Config) (Result, error) { return NewRunner(cfg).Run() }

// LoadPoint is one point of a latency-throughput curve.
type LoadPoint struct {
	Load   float64 // offered, fraction of capacity
	Result Result
}

// SweepLoads runs one simulation per offered load (fraction of capacity)
// on a bounded worker pool and returns the points in input order. The
// base config's InjectionRate is overwritten per point. It is a thin
// wrapper over Runner + pool; the experiment harness generalizes the
// same shape to full scenario matrices.
func SweepLoads(base Config, loads []float64) ([]LoadPoint, error) {
	pts := make([]LoadPoint, len(loads))
	errs := make([]error, len(loads))
	pool.Run(len(loads), 0, func(i int) {
		cfg := base
		cfg.Net.InjectionRate = RateForLoad(loads[i], cfg.Net)
		res, err := NewRunner(cfg).Run()
		pts[i] = LoadPoint{Load: loads[i], Result: res}
		errs[i] = err
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return pts, nil
}

// RateForLoad converts a fraction of network capacity into the injection
// rate in packets/node/cycle, using the configured topology's uniform
// capacity. A nil Topo means the default k×k mesh: the same topology
// network.Config.Normalize will construct, so the capacity bound has a
// single source of truth (Cube.UniformCapacity, including its
// injection-bandwidth cap) that cannot drift from the network layer's.
func RateForLoad(frac float64, ncfg network.Config) float64 {
	size := ncfg.MeanFlitsPerPacket()
	if size == 0 {
		size = 5
	}
	topo := ncfg.Topo
	if topo == nil {
		k := ncfg.K
		if k == 0 {
			k = 8
		}
		mesh, err := topology.NewCube(k, 2, false)
		if err != nil {
			// An invalid radix is Normalize's error to report; any
			// finite capacity keeps the conversion well-defined until
			// the simulation rejects the config.
			mesh = topology.NewMesh(8)
		}
		topo = mesh
	}
	return frac * topo.UniformCapacity() / size
}

// IsSaturated reports whether a result should be treated as past
// saturation for knee-finding: the run hit its cycle cap or a
// throughput shortfall (Result.Saturated), measured no packets, or its
// mean latency exceeds latencyCap (the paper's plots clip at 140
// cycles). It is the shared saturation predicate of the grid-sweep
// knee (SaturationLoad) and the harness's adaptive bisection.
func IsSaturated(r Result, latencyCap float64) bool {
	return r.Saturated || r.Latency.Packets == 0 || r.Latency.MeanLatency > latencyCap
}

// SaturationLoad estimates the saturation point from a swept curve: the
// highest offered load whose run completed with mean latency below
// latencyCap (the paper's plots clip at 140 cycles). It returns the last
// load before the curve blows up, or 0 if the first point is already
// saturated.
func SaturationLoad(pts []LoadPoint, latencyCap float64) float64 {
	sat := 0.0
	for _, pt := range pts {
		if IsSaturated(pt.Result, latencyCap) {
			break
		}
		sat = pt.Load
	}
	return sat
}
