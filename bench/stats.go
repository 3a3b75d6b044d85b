package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between closest ranks; NaN for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// summary is the five-number description printed beside every median.
type summary struct {
	N                        int
	Min, Q1, Median, Q3, Max float64
}

func summarize(vals []float64) summary {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return summary{
		N:      len(s),
		Min:    quantile(s, 0),
		Q1:     quantile(s, 0.25),
		Median: quantile(s, 0.5),
		Q3:     quantile(s, 0.75),
		Max:    quantile(s, 1),
	}
}

func median(vals []float64) float64 { return summarize(vals).Median }

// lateReps lists the indices of samples more than 1.25× the median:
// they are reported, never dropped.
func lateReps(vals []float64) []int {
	med := median(vals)
	var late []int
	for i, v := range vals {
		if v > 1.25*med {
			late = append(late, i)
		}
	}
	return late
}

// timeOp reports the median cost of one op() call in nanoseconds over
// samples batches. The batch size doubles until a batch runs for at
// least batch, so operations of a few nanoseconds are timed over
// thousands of calls and the clock reads stay out of the figure.
func timeOp(samples int, batch time.Duration, op func()) float64 {
	op() // first call pays lazy initialisation; users pay it once per process, not per op
	vals := make([]float64, 0, samples)
	for n := 1; len(vals) < samples; {
		start := time.Now()
		for j := 0; j < n; j++ {
			op()
		}
		if d := time.Since(start); d >= batch {
			vals = append(vals, float64(d.Nanoseconds())/float64(n))
		} else {
			n *= 2
		}
	}
	return median(vals)
}
