package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// its own calls. Spans of one repetition of one workload share Trace.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1: a root
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"` // which job, for spans of one name
	Trace  string `json:"trace"`
	Start  int64  `json:"start_ns"` // since the recorder was made
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the benchmark ends. It is used
// from one goroutine at a time: the harness calls Progress serially and
// every other span is opened by the benchmark's own goroutine.
type recorder struct {
	t0    time.Time
	trace string
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return time.Since(r.t0).Nanoseconds() }

// begin opens a span under parent and returns its id.
func (r *recorder) begin(name string, parent int) int {
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Name: name, Trace: r.trace, Start: r.now()})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) { r.spans[id].End = r.now() }

// add records a span whose interval was measured elsewhere, such as a
// job rebuilt from the harness's progress callback and JobResult.Wall.
func (r *recorder) add(name, label string, parent int, start, end int64) {
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Name: name, Label: label, Trace: r.trace, Start: start, End: end})
}

func (r *recorder) write(path string) error {
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// selfTimes returns, by span name, total duration and total self time in
// nanoseconds. A span's self time is its duration minus the part of its
// interval that its children cover: overlapping children (parallel
// jobs) are counted once, and a child reaching outside its parent is
// clipped, so self time is never negative.
func selfTimes(spans []span) (total, self map[string]int64) {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	total = make(map[string]int64)
	self = make(map[string]int64)
	for _, s := range spans {
		dur := s.End - s.Start
		total[s.Name] += dur
		self[s.Name] += dur - covered(s.Start, s.End, children[s.ID])
	}
	return total, self
}

// covered returns how much of [start, end] the union of kids covers.
func covered(start, end int64, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum int64
	at := start // everything before at is already accounted for
	for _, k := range kids {
		lo, hi := max(k.Start, at), min(k.End, end)
		if hi > lo {
			sum += hi - lo
			at = hi
		}
	}
	return sum
}
