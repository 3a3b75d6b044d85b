package arbiter

import (
	"math/rand"
	"testing"
)

// bankAgainstRows drives a Bank of count arbiters and count rows
// oracles (arbiter_test.go) with the same stream of calls and reports
// the first grant on which they disagree. A call with reset set resets
// the whole bank and every oracle instead of granting.
func bankAgainstRows(t testing.TB, n, count int, next func() (k int, requests uint64, reset, ok bool)) {
	t.Helper()
	b := NewBank(count, n, nil)
	ref := make([]rows, count)
	for k := range ref {
		ref[k] = newRows(n)
	}
	for call := 0; ; call++ {
		k, reqs, reset, ok := next()
		if !ok {
			return
		}
		if reset {
			b.Reset()
			for _, m := range ref {
				m.reset()
			}
			continue
		}
		gw, gok := b.Grant(k, reqs)
		ww, wok := ref[k].grant(reqs)
		if gw != ww || gok != wok {
			t.Fatalf("n=%d count=%d call %d: Bank.Grant(%d, %#x) = (%d, %v), matrix rows = (%d, %v)",
				n, count, call, k, reqs, gw, gok, ww, wok)
		}
	}
}

// TestBankMatchesMatrices is the differential test of the byte-order
// bank: over seeded random request streams — sparse, dense, empty, one
// requester, with bits above n set, and with Resets interleaved — every
// Bank grant equals the grant of the matrix-rows oracle fed the same
// stream, for every arbiter size 1..64.
func TestBankMatchesMatrices(t *testing.T) {
	for n := 1; n <= 64; n++ {
		for _, count := range []int{1, 7} {
			r := rand.New(rand.NewSource(int64(100*n + count)))
			calls := 2000
			bankAgainstRows(t, n, count, func() (int, uint64, bool, bool) {
				calls--
				reqs := r.Uint64()
				switch r.Intn(4) {
				case 0:
					reqs &= r.Uint64() & r.Uint64() // sparse
				case 1:
					reqs = 1 << r.Intn(n) // one requester, the low-load case
				case 2:
					reqs = 0
				}
				return r.Intn(count), reqs, r.Intn(300) == 0, calls >= 0
			})
		}
	}
}

// TestBankForwardsToFactory: a Bank built from a Factory is the
// factory's arbiters, one per slot, each with its own state.
func TestBankForwardsToFactory(t *testing.T) {
	b := NewBank(3, 4, RoundRobinFactory)
	ref := []Arbiter{NewRoundRobin(4), NewRoundRobin(4), NewRoundRobin(4)}
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		k, reqs := r.Intn(3), r.Uint64()&0xF
		gw, gok := b.Grant(k, reqs)
		ww, wok := ref[k].Grant(reqs)
		if gw != ww || gok != wok {
			t.Fatalf("call %d: Bank.Grant(%d, %#x) = (%d, %v), RoundRobin = (%d, %v)", i, k, reqs, gw, gok, ww, wok)
		}
	}
}

// FuzzBankGrant feeds the same differential check arbitrary sizes and
// request streams: data is consumed nine bytes per call (arbiter index,
// then the request mask); an index byte with its top bit set resets the
// bank and the oracles instead.
func FuzzBankGrant(f *testing.F) {
	f.Add(uint8(5), uint8(3), []byte{0, 0x1f, 0, 0, 0, 0, 0, 0, 0, 2, 0x11, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(64), uint8(1), []byte{0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(uint8(1), uint8(9), []byte{8, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, nRaw, countRaw uint8, data []byte) {
		n, count := 1+int(nRaw%64), 1+int(countRaw%16)
		bankAgainstRows(t, n, count, func() (int, uint64, bool, bool) {
			if len(data) < 9 {
				return 0, 0, false, false
			}
			k := int(data[0]&0x7f) % count
			var reqs uint64
			for i, c := range data[1:9] {
				reqs |= uint64(c) << (8 * i)
			}
			reset := data[0]&0x80 != 0
			data = data[9:]
			return k, reqs, reset, true
		})
	})
}
