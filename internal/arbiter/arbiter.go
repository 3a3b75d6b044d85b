// Package arbiter implements the arbiters used by the router allocators:
// the matrix (least-recently-served) arbiter the paper's gate-level
// model is built on (Figure 10), plus round-robin and fixed-priority
// arbiters for ablation studies.
//
// Requests are presented as a bitmask; Grant returns the winning
// requestor and updates the arbiter's internal priority state, exactly
// as the hardware would on a grant cycle (the priority update is the
// h = 9τ overhead in the delay model).
package arbiter

import (
	"fmt"
	"math/bits"
)

// Arbiter selects one winner among up to N requestors per grant cycle.
type Arbiter interface {
	// Grant arbitrates among the set bits of requests (bit i =
	// requestor i). It returns the winner and true, or (-1, false) when
	// requests is empty. A successful grant updates priority state.
	Grant(requests uint64) (winner int, ok bool)
	// N returns the number of requestor slots.
	N() int
	// Reset restores the arbiter's initial priority state.
	Reset()
}

func checkN(n int) {
	if n < 1 || n > 64 {
		panic(fmt.Sprintf("arbiter: n = %d outside [1, 64]", n))
	}
}

// Matrix is an n:1 matrix arbiter: an upper-triangular matrix of
// priority bits records a strict total order between requestors; the
// winner is the requestor that beats all other requestors, and is then
// demoted to the lowest priority (least-recently-served policy).
//
// The simulator keeps the total order the n² bits encode rather than the
// bits: each requestor's place in it, one byte per requestor (0 is the
// highest priority), eight to a 64-bit word. A grant picks the
// requestor with the lowest place and moves it to the back — everyone
// behind it moves up one place and the winner takes place n-1 — which
// is exactly the matrix update. The rows form survives in
// arbiter_test.go as the reference the places are checked against.
type Matrix struct {
	n      int
	mask   uint64
	places []uint64
}

// NewMatrix returns a matrix arbiter over n requestors, initialized with
// requestor 0 at the highest priority.
func NewMatrix(n int) *Matrix {
	b := NewBank(1, n, nil) // one arbiter's places, initialized
	return &Matrix{n: n, mask: b.mask, places: b.places}
}

func mask(n int) uint64 {
	if n == 64 {
		return ^uint64(0)
	}
	return (uint64(1) << n) - 1
}

// N returns the number of requestor slots.
func (m *Matrix) N() int { return m.n }

// Reset implements Arbiter.
func (m *Matrix) Reset() { initPlaces(m.places, m.n) }

// placeWords is the number of words holding n requestors' places.
func placeWords(n int) int { return (n + 7) / 8 }

// initPlaces writes the initial order into back-to-back arbiters'
// places: requestor i at place i, ahead of every j > i (the
// upper-triangular matrix).
func initPlaces(places []uint64, n int) {
	if len(places) == 0 {
		return
	}
	first := places[:placeWords(n)]
	clear(first)
	for i := 0; i < n; i++ {
		first[i>>3] |= uint64(i) << (8 * (i & 7))
	}
	for k := len(first); k < len(places); k += len(first) {
		copy(places[k:], first)
	}
}

// Grant implements Arbiter.
func (m *Matrix) Grant(requests uint64) (int, bool) {
	return grantPlaces(m.places, m.n, requests&m.mask)
}

const (
	lo8 = 0x0101010101010101 // one in every byte
	hi8 = 0x8080808080808080 // every byte's top bit
)

// grantPlaces is the matrix arbiter's grant cycle over one arbiter's
// places (Matrix and Bank share it): the requestor with the lowest place
// wins and moves to the back, behind everyone it beat.
func grantPlaces(places []uint64, n int, requests uint64) (int, bool) {
	if requests == 0 {
		return -1, false
	}
	win := bits.TrailingZeros64(requests)
	best := place(places, win)
	for rem := requests & (requests - 1); rem != 0; rem &= rem - 1 {
		if i := bits.TrailingZeros64(rem); place(places, i) < best {
			win, best = i, place(places, i)
		}
	}
	// Places are below 64, so (p|0x80) - (best+1) borrows from no other
	// byte and keeps the top bit exactly when p > best: one subtract per
	// word moves everyone behind the winner up a place. The winner's own
	// place is best; it becomes n-1.
	behind := lo8 * (best + 1)
	for j, w := range places {
		places[j] = w - ((w|hi8)-behind)&hi8>>7
	}
	places[win>>3] += (uint64(n-1) - best) << (8 * (win & 7))
	return win, true
}

// place returns requestor i's place.
func place(places []uint64, i int) uint64 { return places[i>>3] >> (8 * (i & 7)) & 0xff }

// Bank is count independent n:1 arbiters addressed by index; the
// allocators hold one per stage, by value. Its matrix arbiters have no
// header each: their places lie back to back in one slice (arbiter k's
// are the w = ⌈n/8⌉ words from k·w), so a grant touches the Bank and w
// adjacent words. A Bank built from a Factory (the ablation policies)
// keeps the factory's arbiters and forwards to them.
type Bank struct {
	n, words int
	mask     uint64
	places   []uint64
	arbs     []Arbiter
}

// NewBank returns count arbiters over n requestors each: matrix
// arbiters when factory is nil, the factory's otherwise.
func NewBank(count, n int, factory Factory) Bank {
	checkN(n)
	b := Bank{n: n, words: placeWords(n), mask: mask(n)}
	if factory != nil {
		b.arbs = make([]Arbiter, count)
		for k := range b.arbs {
			b.arbs[k] = factory(n)
		}
		return b
	}
	b.places = make([]uint64, count*b.words)
	b.Reset()
	return b
}

// Reset returns every arbiter of the bank to its initial priority.
func (b *Bank) Reset() {
	for _, a := range b.arbs {
		a.Reset()
	}
	initPlaces(b.places, b.n)
}

// Grant is Arbiter.Grant on arbiter k of the bank.
func (b *Bank) Grant(k int, requests uint64) (int, bool) {
	if b.arbs != nil {
		return b.arbs[k].Grant(requests)
	}
	return grantPlaces(b.places[k*b.words:(k+1)*b.words], b.n, requests&b.mask)
}

// RoundRobin is a rotating-priority arbiter: after a grant, the slot
// after the winner becomes the highest priority.
type RoundRobin struct {
	n    int
	next int
}

// NewRoundRobin returns a round-robin arbiter over n requestors.
func NewRoundRobin(n int) *RoundRobin {
	checkN(n)
	return &RoundRobin{n: n}
}

// N returns the number of requestor slots.
func (r *RoundRobin) N() int { return r.n }

// Reset implements Arbiter.
func (r *RoundRobin) Reset() { r.next = 0 }

// Grant implements Arbiter.
func (r *RoundRobin) Grant(requests uint64) (int, bool) {
	requests &= mask(r.n)
	if requests == 0 {
		return -1, false
	}
	for k := 0; k < r.n; k++ {
		i := (r.next + k) % r.n
		if requests&(1<<i) != 0 {
			r.next = (i + 1) % r.n
			return i, true
		}
	}
	return -1, false
}

// Fixed is a static-priority arbiter: lower indices always win. It
// exists to demonstrate (in ablation benches) the starvation a
// priority-updating arbiter avoids.
type Fixed struct{ n int }

// NewFixed returns a fixed-priority arbiter over n requestors.
func NewFixed(n int) *Fixed {
	checkN(n)
	return &Fixed{n: n}
}

// N returns the number of requestor slots.
func (f *Fixed) N() int { return f.n }

// Reset implements Arbiter.
func (f *Fixed) Reset() {}

// Grant implements Arbiter.
func (f *Fixed) Grant(requests uint64) (int, bool) {
	requests &= mask(f.n)
	if requests == 0 {
		return -1, false
	}
	for i := 0; i < f.n; i++ {
		if requests&(1<<i) != 0 {
			return i, true
		}
	}
	return -1, false
}

// Factory builds an arbiter of a given size; allocators take a Factory
// so the arbiter policy is swappable.
type Factory func(n int) Arbiter

// MatrixFactory builds matrix arbiters (the paper's design).
func MatrixFactory(n int) Arbiter { return NewMatrix(n) }

// RoundRobinFactory builds round-robin arbiters.
func RoundRobinFactory(n int) Arbiter { return NewRoundRobin(n) }

// FixedFactory builds fixed-priority arbiters.
func FixedFactory(n int) Arbiter { return NewFixed(n) }
