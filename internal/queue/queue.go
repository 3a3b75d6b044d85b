// Package queue implements the fixed-capacity flit FIFOs used as router
// input buffers. Capacity is enforced by credit-based flow control; an
// attempted push into a full queue indicates a credit-accounting bug and
// is reported as an error so the simulator can fail loudly.
package queue

import (
	"errors"

	"routersim/internal/flit"
)

// ErrFull is returned by Push when the FIFO has no free slot; under
// correct credit flow control this never happens.
var ErrFull = errors.New("queue: push into full flit FIFO (credit accounting violated)")

// FIFO is a fixed-capacity ring buffer of flits. The ring is sized to a
// power of two so head/tail wrap with a mask instead of a modulo; the
// logical capacity (credit accounting) stays exactly what was asked for.
// A FIFO is 40 bytes and usable by value: a router embeds one per input
// VC and Inits them all over one shared slab of flits.
type FIFO struct {
	buf  []flit.Flit
	cap  int32
	head int32
	n    int32
}

// NewFIFO returns a FIFO holding at most capacity flits.
func NewFIFO(capacity int) *FIFO {
	q := new(FIFO)
	q.Init(capacity, make([]flit.Flit, RingSize(capacity)))
	return q
}

// RingSize returns the ring length Init needs for a capacity: the next
// power of two.
func RingSize(capacity int) int {
	if capacity < 1 {
		panic("queue: FIFO capacity must be at least 1")
	}
	ring := 1
	for ring < capacity {
		ring <<= 1
	}
	return ring
}

// Init makes q an empty FIFO of the given capacity over ring, which
// must have exactly RingSize(capacity) slots that q alone will use.
func (q *FIFO) Init(capacity int, ring []flit.Flit) {
	if len(ring) != RingSize(capacity) {
		panic("queue: FIFO ring is not RingSize(capacity) long")
	}
	q.buf, q.cap = ring, int32(capacity)
	q.Reset(nil)
}

// Reset empties the FIFO, handing each buffered flit to drop (when
// non-nil), head first.
func (q *FIFO) Reset(drop func(f flit.Flit)) {
	for f, ok := q.Pop(); ok; f, ok = q.Pop() {
		if drop != nil {
			drop(f)
		}
	}
}

// Cap returns the FIFO capacity in flits.
func (q *FIFO) Cap() int { return int(q.cap) }

// Len returns the number of buffered flits.
func (q *FIFO) Len() int { return int(q.n) }

// Empty reports whether no flits are buffered.
func (q *FIFO) Empty() bool { return q.n == 0 }

// Full reports whether every slot is occupied.
func (q *FIFO) Full() bool { return q.n == q.cap }

// Push appends a flit; it returns ErrFull if no slot is free.
func (q *FIFO) Push(f flit.Flit) error {
	if q.n == q.cap {
		return ErrFull
	}
	q.buf[int(q.head+q.n)&(len(q.buf)-1)] = f
	q.n++
	return nil
}

// Peek returns a pointer to the head-of-queue flit without removing it.
// The pointer is invalidated by the next Push or Pop. It returns nil if
// the FIFO is empty.
func (q *FIFO) Peek() *flit.Flit {
	if q.n == 0 {
		return nil
	}
	return &q.buf[q.head]
}

// Pop removes and returns the head-of-queue flit. The boolean is false
// if the FIFO was empty.
func (q *FIFO) Pop() (flit.Flit, bool) {
	if q.n == 0 {
		return flit.Flit{}, false
	}
	f := q.buf[q.head]
	q.buf[q.head] = flit.Flit{}
	q.head = (q.head + 1) & int32(len(q.buf)-1)
	q.n--
	return f, true
}
