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
type Matrix struct {
	n    int
	mask uint64
	// beats[i] has bit j set when i has priority over j.
	beats []uint64
}

// NewMatrix returns a matrix arbiter over n requestors, initialized with
// requestor 0 at the highest priority.
func NewMatrix(n int) *Matrix {
	b := NewBank(1, n, nil) // one arbiter's rows, in their initial order
	return &Matrix{n: n, mask: b.mask, beats: b.rows}
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
func (m *Matrix) Reset() { initRows(m.beats, m.n, m.mask) }

// initRows writes the initial order into back-to-back n-row priority
// matrices: requestor i beats every j > i (upper triangular).
func initRows(rows []uint64, n int, mask uint64) {
	if len(rows) == 0 {
		return
	}
	for i := range rows[:n] {
		rows[i] = (^uint64(0) << (i + 1)) & mask
	}
	for k := n; k < len(rows); k += n {
		copy(rows[k:k+n], rows[:n])
	}
}

// Grant implements Arbiter.
func (m *Matrix) Grant(requests uint64) (int, bool) {
	return grantRows(m.beats, requests&m.mask)
}

// grantRows is the matrix arbiter's grant cycle over one arbiter's
// priority rows (Matrix and Bank share it): pick the requestor that
// beats every other requestor, then demote it to the lowest priority.
func grantRows(rows []uint64, requests uint64) (int, bool) {
	if requests == 0 {
		return -1, false
	}
	// Walk only the set bits: requestors that did not bid cannot win.
	for rem := requests; rem != 0; rem &= rem - 1 {
		i := bits.TrailingZeros64(rem)
		// i wins if it beats every other requestor.
		others := requests &^ (1 << i)
		if rows[i]&others == others {
			// Everyone now beats the winner; the winner beats no one.
			for j := range rows {
				rows[j] |= 1 << i
			}
			rows[i] = 0
			return i, true
		}
	}
	// Unreachable while the matrix encodes a total order.
	panic("arbiter: matrix order corrupted; no winner among requestors")
}

// Bank is count independent n:1 arbiters addressed by index; the
// allocators hold one per stage, by value. Its matrix arbiters have no
// header each: their priority rows lie back to back in one slice
// (arbiter k's row i is rows[k*n+i]), so a grant touches the Bank and n
// adjacent words. A Bank built from a Factory (the ablation policies)
// keeps the factory's arbiters and forwards to them.
type Bank struct {
	n    int
	mask uint64
	rows []uint64
	arbs []Arbiter
}

// NewBank returns count arbiters over n requestors each: matrix
// arbiters when factory is nil, the factory's otherwise.
func NewBank(count, n int, factory Factory) Bank {
	checkN(n)
	b := Bank{n: n, mask: mask(n)}
	if factory != nil {
		b.arbs = make([]Arbiter, count)
		for k := range b.arbs {
			b.arbs[k] = factory(n)
		}
		return b
	}
	b.rows = make([]uint64, count*n)
	b.Reset()
	return b
}

// Reset returns every arbiter of the bank to its initial priority.
func (b *Bank) Reset() {
	for _, a := range b.arbs {
		a.Reset()
	}
	initRows(b.rows, b.n, b.mask)
}

// Grant is Arbiter.Grant on arbiter k of the bank.
func (b *Bank) Grant(k int, requests uint64) (int, bool) {
	if b.arbs != nil {
		return b.arbs[k].Grant(requests)
	}
	return grantRows(b.rows[k*b.n:(k+1)*b.n], requests&b.mask)
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
