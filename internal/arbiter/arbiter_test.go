package arbiter

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestMatrixGrantIsRequester(t *testing.T) {
	prop := func(nRaw uint8, reqSeq []uint64) bool {
		n := 1 + int(nRaw%16)
		m := NewMatrix(n)
		for _, reqs := range reqSeq {
			reqs &= mask(n)
			w, ok := m.Grant(reqs)
			if reqs == 0 {
				if ok || w != -1 {
					return false
				}
				continue
			}
			if !ok || w < 0 || w >= n || reqs&(1<<w) == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// rows is the matrix arbiter as the paper's hardware holds it, the
// reference the byte-order arbiters are checked against: row i has bit
// j set when requestor i has priority over j.
type rows []uint64

// newRows returns the n×n matrix in its initial, upper-triangular
// state: requestor i beats every j > i.
func newRows(n int) rows {
	m := make(rows, n)
	m.reset()
	return m
}

func (m rows) reset() {
	for i := range m {
		m[i] = (^uint64(0) << (i + 1)) & mask(len(m))
	}
}

// grant picks the requestor that beats every other requestor, then
// demotes it: everyone now beats the winner, the winner beats no one.
func (m rows) grant(requests uint64) (int, bool) {
	requests &= mask(len(m))
	for rem := requests; rem != 0; rem &= rem - 1 {
		i := bits.TrailingZeros64(rem)
		others := requests &^ (1 << i)
		if m[i]&others == others {
			for j := range m {
				m[j] |= 1 << i
			}
			m[i] = 0
			return i, true
		}
	}
	return -1, false
}

func TestMatrixStaysTotalOrder(t *testing.T) {
	// The rows oracle must always encode a strict total order — for
	// i != j exactly one of rows[i][j], rows[j][i] — and the places
	// driven alongside it must be that order: a permutation of 0..n-1
	// in which i is ahead of j exactly when rows[i][j] is set.
	check := func(m *Matrix, ref rows) bool {
		seen := make([]bool, m.n)
		for i := 0; i < m.n; i++ {
			p := place(m.places, i)
			if p >= uint64(m.n) || seen[p] {
				return false
			}
			seen[p] = true
			for j := 0; j < m.n; j++ {
				if i == j {
					continue
				}
				iBj := ref[i]&(1<<j) != 0
				if jBi := ref[j]&(1<<i) != 0; iBj == jBi || iBj != (p < place(m.places, j)) {
					return false
				}
			}
		}
		return true
	}
	prop := func(nRaw uint8, reqSeq []uint64) bool {
		n := 2 + int(nRaw%15)
		m, ref := NewMatrix(n), newRows(n)
		if !check(m, ref) {
			return false
		}
		for _, reqs := range reqSeq {
			m.Grant(reqs & mask(n))
			ref.grant(reqs & mask(n))
			if !check(m, ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMatrixLeastRecentlyServed(t *testing.T) {
	// With all requestors always requesting, the matrix arbiter must
	// serve them round-robin-fairly: in n consecutive grants every
	// requestor wins exactly once.
	for _, n := range []int{2, 3, 5, 8} {
		m := NewMatrix(n)
		all := mask(n)
		for round := 0; round < 4; round++ {
			won := make([]bool, n)
			for k := 0; k < n; k++ {
				w, ok := m.Grant(all)
				if !ok || won[w] {
					t.Fatalf("n=%d round %d: winner %d repeated", n, round, w)
				}
				won[w] = true
			}
		}
	}
}

func TestMatrixWinnerDemoted(t *testing.T) {
	// Requestor 0 starts at the highest priority and wins the first
	// grant; immediately afterwards it must lose any head-to-head.
	for j := 1; j < 4; j++ {
		m := NewMatrix(4)
		w1, _ := m.Grant(0b1111)
		if w1 != 0 {
			t.Fatalf("initial winner %d, want 0 (upper-triangular init)", w1)
		}
		if w, _ := m.Grant(1<<0 | 1<<j); w == 0 {
			t.Fatalf("demoted winner 0 beat requestor %d", j)
		}
	}
}

func TestMatrixNoStarvationUnderContention(t *testing.T) {
	// Every persistent requestor must be served within n grants.
	n := 8
	m := NewMatrix(n)
	reqs := uint64(0b10110101)
	last := make(map[int]int)
	for c := 0; c < 200; c++ {
		w, ok := m.Grant(reqs)
		if !ok {
			t.Fatal("no grant with pending requests")
		}
		if prev, seen := last[w]; seen && c-prev > bits.OnesCount64(reqs) {
			t.Fatalf("requestor %d waited %d grants", w, c-prev)
		}
		last[w] = c
	}
}

func TestRoundRobinRotation(t *testing.T) {
	r := NewRoundRobin(4)
	var got []int
	for i := 0; i < 8; i++ {
		w, ok := r.Grant(0b1111)
		if !ok {
			t.Fatal("no grant")
		}
		got = append(got, w)
	}
	want := []int{0, 1, 2, 3, 0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rotation %v, want %v", got, want)
		}
	}
}

func TestRoundRobinSkipsNonRequestors(t *testing.T) {
	r := NewRoundRobin(4)
	w, ok := r.Grant(0b1000)
	if !ok || w != 3 {
		t.Fatalf("got %d, want 3", w)
	}
	w, ok = r.Grant(0b0101)
	if !ok || w != 0 {
		t.Fatalf("after wrap got %d, want 0", w)
	}
}

func TestFixedPriority(t *testing.T) {
	f := NewFixed(4)
	for i := 0; i < 10; i++ {
		if w, _ := f.Grant(0b1110); w != 1 {
			t.Fatalf("fixed arbiter must always grant lowest index, got %d", w)
		}
	}
}

func TestEmptyRequests(t *testing.T) {
	for _, a := range []Arbiter{NewMatrix(4), NewRoundRobin(4), NewFixed(4)} {
		if w, ok := a.Grant(0); ok || w != -1 {
			t.Errorf("%T: empty request set granted %d", a, w)
		}
	}
}

func TestFactories(t *testing.T) {
	for _, f := range []Factory{MatrixFactory, RoundRobinFactory, FixedFactory} {
		a := f(5)
		if a.N() != 5 {
			t.Errorf("factory produced N=%d, want 5", a.N())
		}
	}
}

func TestRequestsAboveNIgnored(t *testing.T) {
	m := NewMatrix(3)
	// Bits outside the arbiter width must be masked off.
	if w, ok := m.Grant(0b11000); ok || w != -1 {
		t.Fatalf("out-of-range-only requests granted %d", w)
	}
	if w, ok := m.Grant(0b1001); !ok || w != 0 {
		t.Fatalf("got %d, want in-range requestor 0", w)
	}
}
