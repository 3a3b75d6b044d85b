package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"routersim/internal/pool"
	"routersim/internal/rng"
	"routersim/internal/sim"
	"routersim/internal/traffic"
)

// SearchOptions parameterize the adaptive saturation search.
type SearchOptions struct {
	// Lo and Hi bracket the search in offered-load fractions of
	// capacity. Lo is assumed stable and Hi saturated without probing
	// (0 and 1 when zero: a network cannot beat its bisection
	// capacity). The reported knee is always inside [Lo, Hi].
	Lo, Hi float64
	// Step is the load resolution the search refines to (0 = 0.01).
	// The bisection needs ~log2((Hi-Lo)/Step) probes — 7 at defaults —
	// against a fixed grid's (Hi-Lo)/Step runs for the same resolution.
	Step float64
	// LatencyCap is the mean latency treated as saturated even when
	// the run completes (0 = the paper's 140-cycle plot clip).
	LatencyCap float64
	// MaxProbes bounds the number of simulations (0 = 24, far above
	// what any bracket at a sane Step needs; a safety stop, not a
	// tuning knob).
	MaxProbes int
}

// normalized fills the zero-value defaults.
func (so SearchOptions) normalized() SearchOptions {
	if so.Hi == 0 {
		so.Hi = 1
	}
	if so.Step == 0 {
		so.Step = 0.01
	}
	if so.LatencyCap == 0 {
		so.LatencyCap = 140
	}
	if so.MaxProbes == 0 {
		so.MaxProbes = 24
	}
	return so
}

// Probe is one simulation of a saturation search.
type Probe struct {
	// Load is the probed offered load (fraction of capacity).
	Load float64 `json:"load"`
	// Saturated is the probe's verdict under the search predicate.
	Saturated bool `json:"saturated"`
	// Result is the full simulation outcome.
	Result *sim.Result `json:"result,omitempty"`
}

// SaturationResult is the outcome of one adaptive saturation search.
type SaturationResult struct {
	// Index is the scenario's position in the expanded matrix (0 for a
	// single-scenario search).
	Index int `json:"index"`
	// Scenario is the searched scenario; its Load field is ignored (the
	// search owns the load axis).
	Scenario Scenario `json:"scenario"`
	// Seed is the search's base seed; each probe derives its own.
	Seed uint64 `json:"seed"`
	// Load is the saturation load: the highest probed load that
	// measured stable (0 if the first probe above Lo already
	// saturated). The true knee lies in (Load, Upper].
	Load float64 `json:"saturation_load"`
	// Upper is the lowest probed load found saturated (Hi if every
	// probe was stable). Load and Upper differ by at most Step when
	// the search ran to completion.
	Upper float64 `json:"upper_bound"`
	// Throughput is the accepted load (fraction of capacity) measured
	// at the saturation load — the knee's delivered throughput (0 if no
	// stable probe exists).
	Throughput float64 `json:"throughput"`
	// Probes are the simulations the bisection ran, in probe order.
	Probes []Probe `json:"probes"`
	// Cycles is the total simulated cycles across all probes — the
	// search's cost, directly comparable to a grid sweep's total.
	Cycles int64 `json:"cycles"`
	// Error is the search's failure, if any (per scenario, like
	// JobResult.Error: one bad scenario must not discard a matrix).
	Error string `json:"error,omitempty"`
}

// FindSaturation locates a scenario's saturation point by adaptive
// bisection on offered load, replacing fixed load grids for
// knee-finding. The invariant is the standard bracket: Lo is stable, Hi
// is saturated; each probe runs one simulation at the bracket midpoint
// (snapped to the Step grid) under the run's saturation predicate
// (sim.IsSaturated: cycle-cap censoring, throughput shortfall, or the
// latency cap) and halves the bracket. Each probe derives its own seed
// from opts.Seed, so the search is deterministic end to end.
func FindSaturation(sc Scenario, opts Options, so SearchOptions) (SaturationResult, error) {
	if err := opts.Protocol.validate(); err != nil {
		return SaturationResult{}, err
	}
	if err := sc.check(true); err != nil {
		return SaturationResult{}, fmt.Errorf("harness: %s: %w", sc.Label(), err)
	}
	if err := searchable(sc); err != nil {
		return SaturationResult{}, err
	}
	so = so.normalized()
	if so.Lo < 0 || so.Hi <= so.Lo || so.Step <= 0 {
		return SaturationResult{}, fmt.Errorf("harness: bad search bracket [%v, %v] step %v", so.Lo, so.Hi, so.Step)
	}
	sh := newShelf(1)
	defer sh.close()
	return findSaturation(0, sc, opts, so, sh), nil
}

// findSaturation is the per-scenario search core; scenario validity was
// checked by the caller, so failures land in SaturationResult.Error.
// Each probe is a harness job (executeJob) at index probe, so its seed
// is rng.Derive(opts.Seed, probe), a panic becomes the search's error
// after the retry budget, and the probes, one network shape, run on
// shelved networks.
func findSaturation(index int, sc Scenario, opts Options, so SearchOptions, sh *shelf) SaturationResult {
	sr := SaturationResult{
		Index:    index,
		Scenario: sc.canonical(),
		Seed:     opts.Seed,
		Load:     so.Lo,
		Upper:    so.Hi,
	}
	lo, hi := so.Lo, so.Hi
	for probe := 0; hi-lo > so.Step+1e-9 && probe < so.MaxProbes; probe++ {
		mid := snapLoad((lo+hi)/2, so.Step)
		if mid <= lo || mid >= hi {
			break // bracket tighter than the Step grid can split
		}
		job := sc
		job.Load = mid
		jr := executeJob(probe, job, opts, sh)
		if jr.Error != "" {
			sr.Error = jr.Error
			return sr
		}
		res := jr.Result
		sr.Cycles += res.Cycles
		saturated := sim.IsSaturated(*res, so.LatencyCap)
		sr.Probes = append(sr.Probes, Probe{Load: mid, Saturated: saturated, Result: res})
		if saturated {
			hi = mid
		} else {
			lo = mid
			sr.Throughput = res.AcceptedLoad
		}
	}
	sr.Load, sr.Upper = lo, hi
	return sr
}

// searchable rejects a trace source: the trace dictates its own
// injection rate, so there is no load axis to bisect.
func searchable(sc Scenario) error {
	if spec, err := traffic.ParseSource(sc.Source); err == nil && spec.Kind == "trace" {
		return fmt.Errorf("harness: %s: a saturation search does not apply to trace sources (the trace dictates the injection rate; there is no load axis to bisect)", sc.Label())
	}
	return nil
}

// snapLoad rounds a load onto the Step grid (and to 4 decimals, so
// serialized probe loads stay clean like the sweep CLI's grids).
func snapLoad(load, step float64) float64 {
	snapped := math.Round(load/step) * step
	return math.Round(snapped*10000) / 10000
}

// FindSaturations runs the adaptive saturation search for every
// scenario of the matrix (the Loads axis is ignored: the search owns
// the load axis) on a bounded worker pool. Results come back in
// scenario order; per-scenario failures are recorded, not returned, and
// every scenario derives an independent seed chain from opts.Seed —
// the same determinism contract as Run.
func FindSaturations(m Matrix, opts Options, so SearchOptions) ([]SaturationResult, error) {
	if err := opts.Protocol.validate(); err != nil {
		return nil, err
	}
	m.Loads = []float64{0} // collapse the unused axis to one placeholder
	scenarios := m.Expand()
	if len(scenarios) == 0 {
		return nil, fmt.Errorf("harness: empty matrix")
	}
	for _, sc := range scenarios {
		if err := searchable(sc); err != nil {
			return nil, err
		}
	}
	so = so.normalized()
	if so.Lo < 0 || so.Hi <= so.Lo || so.Step <= 0 {
		return nil, fmt.Errorf("harness: bad search bracket [%v, %v] step %v", so.Lo, so.Hi, so.Step)
	}
	results := make([]SaturationResult, len(scenarios))
	sh := newShelf(opts.Workers)
	defer sh.close()
	pool.Run(len(scenarios), opts.Workers, func(i int) {
		scOpts := opts
		scOpts.Seed = rng.Derive(opts.Seed, uint64(i))
		results[i] = findSaturation(i, scenarios[i], scOpts, so, sh)
	})
	return results, nil
}

// SaturationCSVHeader is the column set of WriteSaturationCSV: the
// index, every axis but the load the search owns, then the seed and the
// knee.
var SaturationCSVHeader = "index," + axisColumns(loadKey) + ",seed," +
	"saturation_load,upper_bound,throughput,probes,cycles,error"

// WriteSaturationCSV serializes saturation-search results as CSV, one
// row per scenario, with the same determinism guarantee as WriteCSV.
func WriteSaturationCSV(w io.Writer, results []SaturationResult) error {
	if _, err := io.WriteString(w, SaturationCSVHeader+"\n"); err != nil {
		return err
	}
	var row []byte
	for i := range results {
		r := &results[i]
		row = csvInt(row[:0], int64(r.Index))
		row = appendAxes(row, &r.Scenario, loadKey)
		row = append(strconv.AppendUint(row, r.Seed, 10), ',')
		row = csvFloat(row, r.Load)
		row = csvFloat(row, r.Upper)
		row = csvFloat(row, r.Throughput)
		row = csvInt(row, int64(len(r.Probes)))
		row = csvInt(row, r.Cycles)
		row = csvString(row, r.Error)
		row[len(row)-1] = '\n'
		if _, err := w.Write(row); err != nil {
			return err
		}
	}
	return nil
}

// WriteSaturationJSON serializes saturation-search results as one JSON
// array (byte-deterministic: same matrix + seed → identical bytes).
func WriteSaturationJSON(w io.Writer, results []SaturationResult) error {
	if len(results) == 0 {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	for i, r := range results {
		sep := "[\n "
		if i > 0 {
			sep = ",\n "
		}
		b, err := json.Marshal(r)
		if err != nil {
			return err
		}
		if _, err := io.WriteString(w, sep); err != nil {
			return err
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n]\n")
	return err
}
