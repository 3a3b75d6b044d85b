// Package stats collects the simulator's measurements: packet latency
// distributions, accepted throughput, and the buffer-turnaround probe
// used to validate the credit-loop timing of Figure 16.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Accumulator is a sink for per-packet latency samples (cycles). Two
// implementations exist: Latency stores every sample for exact
// percentiles (the paper-figure reproduction mode), Stream folds samples
// into a log-binned histogram with O(1) memory for large matrices.
type Accumulator interface {
	// Add records one sample. Samples must be >= 0.
	Add(cycles int64)
	// Count returns the number of samples.
	Count() int
	// Mean returns the average latency, or NaN with no samples.
	Mean() float64
	// Max returns the largest sample.
	Max() int64
	// Percentile returns the q-quantile (0 <= q <= 1) by nearest rank.
	Percentile(q float64) int64
}

// Latency accumulates per-packet latency samples (cycles), storing every
// sample: percentiles are exact. For memory-bounded accumulation over
// large job matrices use Stream instead.
type Latency struct {
	samples []int64
	sum     int64
	max     int64
	sorted  bool
}

// NewLatency returns an empty Latency with room for capacity samples,
// so a run that knows its sample size never regrows the slice.
func NewLatency(capacity int) *Latency {
	return &Latency{samples: make([]int64, 0, capacity)}
}

// Add records one sample.
func (l *Latency) Add(cycles int64) {
	l.samples = append(l.samples, cycles)
	l.sum += cycles
	if cycles > l.max {
		l.max = cycles
	}
	l.sorted = false
}

// Count returns the number of samples.
func (l *Latency) Count() int { return len(l.samples) }

// Mean returns the average latency, or NaN with no samples.
func (l *Latency) Mean() float64 {
	if len(l.samples) == 0 {
		return math.NaN()
	}
	return float64(l.sum) / float64(len(l.samples))
}

// Max returns the largest sample.
func (l *Latency) Max() int64 { return l.max }

// Percentile returns the q-quantile (0 ≤ q ≤ 1) by the standard
// nearest-rank definition: the smallest sample with at least ⌈q·n⌉
// samples at or below it.
func (l *Latency) Percentile(q float64) int64 {
	if len(l.samples) == 0 {
		return 0
	}
	if !l.sorted {
		sort.Slice(l.samples, func(i, j int) bool { return l.samples[i] < l.samples[j] })
		l.sorted = true
	}
	return l.samples[nearestRank(q, len(l.samples))-1]
}

// nearestRank returns the 1-based nearest rank ⌈q·n⌉ clamped to [1, n].
// The epsilon absorbs float dust: 0.95·100 must rank 95, not 96, even
// though float64(0.95)·100 lands a hair above 95.
func nearestRank(q float64, n int) int {
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// Histogram buckets the samples for distribution reports.
func (l *Latency) Histogram(bucketWidth int64) map[int64]int {
	h := make(map[int64]int)
	for _, s := range l.samples {
		h[(s/bucketWidth)*bucketWidth]++
	}
	return h
}

// Throughput measures accepted traffic: flits ejected per node per cycle
// over a measurement window.
type Throughput struct {
	flits  int64
	nodes  int
	start  int64
	end    int64
	opened bool
}

// NewThroughput returns a meter over the given number of nodes.
func NewThroughput(nodes int) *Throughput { return &Throughput{nodes: nodes} }

// Open starts the measurement window at the given cycle.
func (t *Throughput) Open(cycle int64) { t.start, t.opened = cycle, true }

// Eject records one ejected flit at the given cycle (counted only inside
// the window).
func (t *Throughput) Eject(cycle int64) {
	if t.opened && cycle >= t.start {
		t.flits++
		if cycle > t.end {
			t.end = cycle
		}
	}
}

// Flits returns the flits counted inside the window so far.
func (t *Throughput) Flits() int64 { return t.flits }

// Close fixes the end of the window.
func (t *Throughput) Close(cycle int64) {
	if cycle > t.end {
		t.end = cycle
	}
}

// FlitsPerNodeCycle returns accepted throughput in flits/node/cycle.
func (t *Throughput) FlitsPerNodeCycle() float64 {
	cycles := t.end - t.start
	if !t.opened || cycles <= 0 || t.nodes == 0 {
		return 0
	}
	return float64(t.flits) / float64(cycles) / float64(t.nodes)
}

// Turnaround records buffer reuse intervals for one monitored buffer
// slot: the cycles between a credit being freed (flit read out) and the
// next flit occupying the same slot — the buffer turnaround time of
// Figure 16.
type Turnaround struct {
	intervals []int64
}

// Record adds one observed turnaround interval.
func (t *Turnaround) Record(cycles int64) { t.intervals = append(t.intervals, cycles) }

// Min returns the smallest observed turnaround, or 0 with no samples.
// The minimum is the architectural turnaround: larger samples include
// queueing idle time on top of the credit loop.
func (t *Turnaround) Min() int64 {
	if len(t.intervals) == 0 {
		return 0
	}
	m := t.intervals[0]
	for _, v := range t.intervals[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Count returns the number of recorded intervals.
func (t *Turnaround) Count() int { return len(t.intervals) }

// Summary is a compact, printable result view. The json tags keep the
// harness's serialized payloads in one consistent snake_case schema.
type Summary struct {
	MeanLatency float64 `json:"mean_latency"`
	// MeanCI is the 95% batch-means confidence half-width on the mean
	// latency, in cycles (0 when too few batches completed to estimate).
	MeanCI     float64 `json:"mean_ci,omitempty"`
	P50        int64   `json:"p50"`
	P95        int64   `json:"p95"`
	MaxLatency int64   `json:"max_latency"`
	Packets    int     `json:"packets"`
	// Censored counts tagged packets still undrained when the run hit
	// its cycle cap. A censored summary is biased low: the slowest
	// packets are missing from the sample, so the latency columns must
	// be read as a lower bound (renderers show such points as
	// saturated, not as valid latencies).
	Censored int     `json:"censored,omitempty"`
	Accepted float64 `json:"accepted"` // flits/node/cycle
}

// String renders the summary on one line.
func (s Summary) String() string {
	ci := ""
	if s.MeanCI > 0 {
		ci = fmt.Sprintf("±%.1f ", s.MeanCI)
	}
	censored := ""
	if s.Censored > 0 {
		censored = fmt.Sprintf(" censored=%d", s.Censored)
	}
	return fmt.Sprintf("packets=%d latency mean=%.1f %sp50=%d p95=%d max=%d%s accepted=%.4f flits/node/cycle",
		s.Packets, s.MeanLatency, ci, s.P50, s.P95, s.MaxLatency, censored, s.Accepted)
}
