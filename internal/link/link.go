// Package link models the wires between routers: fixed-delay pipelines
// carrying flits downstream and credits upstream. The paper assumes a
// one-cycle flit propagation delay; credit propagation is one cycle
// except in the Figure 18 experiment, where it is four.
package link

import (
	"fmt"
	"math"
	"unsafe"

	"routersim/internal/slab"
)

// NeverDue is the NextDue value of an empty wire.
const NeverDue = int64(math.MaxInt64)

// Wire is a fixed-latency delay line. Items pushed during cycle t become
// deliverable at cycle t+delay. Because the delay is constant, arrivals
// are FIFO-ordered and the implementation is a power-of-two ring of
// pending entries indexed with a mask.
//
// The 48-byte header caches the head entry's due cycle (NeverDue when
// empty), so polling an empty or not-yet-due wire never reads the ring.
//
// A wire has exactly one producer (Push) and one consumer (Pop); the
// parallel network stepper relies on those two never running in the same
// phase, which is what makes a Wire safe without locks.
type Wire[T any] struct {
	due   int64 // buf[head].due, or NeverDue when n == 0
	delay int64
	buf   []entry[T]
	head  int32
	n     int32
}

type entry[T any] struct {
	due int64
	v   T
}

// NewWire returns a wire with the given propagation delay in cycles
// (must be ≥ 1: combinational links would break the simulator's
// registered-stage semantics). Capacity is preallocated from the delay
// and the one-item-per-cycle link bandwidth, so a wire never grows in
// steady state.
func NewWire[T any](delay int) *Wire[T] {
	return NewWireCap[T](delay, 0)
}

// NewWireCap is NewWire with a minimum item capacity for wires whose
// consumer may lag the producer: the active-set scheduler drains a
// sleeping router's (or parked source's) credit wires only at its next
// wake, so those wires are presized to the credit-loop bound (the
// upstream buffer slot count) instead of growing on first sleep.
func NewWireCap[T any](delay, minCapacity int) *Wire[T] {
	w := new(Wire[T])
	w.init(delay, make([]entry[T], ringCap(delay, minCapacity)))
	return w
}

func (w *Wire[T]) init(delay int, ring []entry[T]) {
	w.delay, w.buf = int64(delay), ring
	w.Reset(nil)
}

// Reset empties the wire, handing each in-flight item to drop (when
// non-nil) in FIFO order. The ring, grown or not, is kept.
func (w *Wire[T]) Reset(drop func(v T)) {
	for w.n > 0 {
		if v := w.pop(); drop != nil {
			drop(v)
		}
	}
	w.due = NeverDue
}

// ringCap is the ring size of a wire: at one push per cycle, at most
// delay+1 items are in flight between a push at t and the drain at
// t+delay (inclusive); rounded up to a power of two for the index mask.
func ringCap(delay, minCapacity int) int {
	if delay < 1 {
		panic(fmt.Sprintf("link: wire delay %d; need >= 1 cycle", delay))
	}
	c := 1
	for c < delay+1 || c < minCapacity {
		c <<= 1
	}
	return c
}

// Arena carves wires out of two slabs (see package slab), one of
// headers and one of ring entries, so wires created consecutively lie
// consecutively in memory. It is used in two identical passes: until
// Alloc, Wire only tallies the space asked for and returns nil; Alloc
// allocates exactly that; the same Wire calls in the same order then
// return the wires.
type Arena[T any] struct {
	wires slab.Slab[Wire[T]]
	ring  slab.Slab[entry[T]]
}

// Wire is NewWireCap from the arena (nil on the counting pass).
func (a *Arena[T]) Wire(delay, minCapacity int) *Wire[T] {
	w, ring := a.wires.New(), a.ring.Take(ringCap(delay, minCapacity))
	if w != nil {
		w.init(delay, ring)
	}
	return w
}

// Alloc ends the counting pass (see slab.Slab.Alloc).
func (a *Arena[T]) Alloc(pad bool) {
	a.wires.Alloc(pad)
	a.ring.Alloc(pad)
}

// Bytes returns the bytes Alloc(pad) asks for.
func (a *Arena[T]) Bytes(pad bool) int64 { return a.wires.Bytes(pad) + a.ring.Bytes(pad) }

// Reset is Wire.Reset on every wire the arena has carved.
func (a *Arena[T]) Reset(drop func(v T)) {
	wires := a.wires.Carved()
	for i := range wires {
		wires[i].Reset(drop)
	}
}

// Regrown counts the arena's wires whose ring no longer lies in the
// slab: a push found the ring full and grow replaced it, so the
// capacity the wire was carved with did not bound its backlog.
func (a *Arena[T]) Regrown() int {
	var lo, hi uintptr
	if ring := a.ring.Carved(); len(ring) > 0 {
		lo = uintptr(unsafe.Pointer(&ring[0]))
		hi = lo + uintptr(len(ring))*unsafe.Sizeof(ring[0])
	}
	n := 0
	wires := a.wires.Carved()
	for i := range wires {
		if p := uintptr(unsafe.Pointer(&wires[i].buf[0])); p < lo || p >= hi {
			n++
		}
	}
	return n
}

// Delay returns the propagation delay in cycles.
func (w *Wire[T]) Delay() int { return int(w.delay) }

// NextDue returns the arrival cycle of the oldest in-flight item, or
// NeverDue for an empty wire. The active-set scheduler's quiescence
// check uses it to assert that a wire carrying no scheduled wake really
// holds nothing deliverable.
func (w *Wire[T]) NextDue() int64 { return w.due }

// Len returns the number of items in flight.
func (w *Wire[T]) Len() int { return int(w.n) }

// Push places v on the wire during cycle now; it arrives at now+delay.
// Calls must use nondecreasing now values (the simulator advances cycle
// by cycle), which keeps arrivals FIFO-ordered.
func (w *Wire[T]) Push(now int64, v T) {
	w.put(entry[T]{due: now + w.delay, v: v})
}

// put appends e behind the in-flight items, growing a full ring.
func (w *Wire[T]) put(e entry[T]) {
	if int(w.n) == len(w.buf) {
		w.grow()
	}
	if w.n == 0 {
		w.due = e.due
	}
	w.buf[int(w.head+w.n)&(len(w.buf)-1)] = e
	w.n++
}

// grow doubles the ring (leaving the slab, for an arena wire).
// Preallocation makes this unreachable for bandwidth-1 links whose
// consumer keeps up (flit wires) or whose backlog bound was given as
// the minimum capacity (credit wires under the active-set scheduler);
// it is kept as the safety net for anything else.
func (w *Wire[T]) grow() {
	grown := make([]entry[T], 2*len(w.buf))
	for i := range w.buf {
		grown[i] = w.buf[(int(w.head)+i)&(len(w.buf)-1)]
	}
	w.buf = grown
	w.head = 0
}

// MoveTo appends every in-flight item of w to dst, preserving due
// times, and leaves w empty. It is the boundary-exchange primitive of
// the sharded engine: a shard pushes onto a private outbox wire during
// its window, and the barrier moves the batch onto the receiving
// router's real input wire. The caller guarantees dues are appended in
// nondecreasing order relative to dst's existing tail (the lookahead
// bound: everything already in dst was pushed at least one window
// earlier on the same single-producer link), so FIFO pop order is
// preserved. onItem, when non-nil, observes each moved item's due cycle
// — the barrier uses it to schedule arrival wakes.
func (w *Wire[T]) MoveTo(dst *Wire[T], onItem func(due int64)) {
	for ; w.n > 0; w.n-- {
		e := w.buf[w.head]
		w.buf[w.head] = entry[T]{}
		w.head = (w.head + 1) & int32(len(w.buf)-1)
		dst.put(e)
		if onItem != nil {
			onItem(e.due)
		}
	}
	w.due = NeverDue
}

// Scan calls fn for every in-flight item in FIFO order without
// consuming anything. It is the audit mode's census primitive: the
// invariant checker counts flits and credits still on the wire — due
// or not — without perturbing delivery.
func (w *Wire[T]) Scan(fn func(v T)) {
	for i := 0; i < int(w.n); i++ {
		fn(w.buf[(int(w.head)+i)&(len(w.buf)-1)].v)
	}
}

// Pop removes and returns the oldest item due at or before cycle now.
// It returns ok=false when nothing (more) is due: one compare against
// the cached due covers both "empty" and "not yet". Draining a wire is a
// loop over Pop, which keeps the hot path free of closure calls:
//
//	for v, ok := w.Pop(now); ok; v, ok = w.Pop(now) { ... }
func (w *Wire[T]) Pop(now int64) (v T, ok bool) {
	if w.due > now {
		return v, false
	}
	return w.pop(), true
}

// pop removes a non-empty wire's head entry and refreshes the cached due.
func (w *Wire[T]) pop() T {
	e := &w.buf[w.head]
	v := e.v
	*e = entry[T]{}
	w.head = (w.head + 1) & int32(len(w.buf)-1)
	w.n--
	w.due = NeverDue
	if w.n > 0 {
		w.due = w.buf[w.head].due
	}
	return v
}
