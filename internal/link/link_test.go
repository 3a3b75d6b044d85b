package link

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func drain(w *Wire[int], now int64) []int {
	var got []int
	for v, ok := w.Pop(now); ok; v, ok = w.Pop(now) {
		got = append(got, v)
	}
	return got
}

func TestWireDelay(t *testing.T) {
	w := NewWire[int](3)
	w.Push(10, 42)
	for now := int64(10); now < 13; now++ {
		if got := drain(w, now); len(got) != 0 {
			t.Fatalf("cycle %d: early delivery %v", now, got)
		}
	}
	if got := drain(w, 13); len(got) != 1 || got[0] != 42 {
		t.Fatalf("cycle 13: got %v, want [42]", got)
	}
}

func TestWireFIFOOrder(t *testing.T) {
	w := NewWire[int](1)
	for i := 0; i < 10; i++ {
		w.Push(int64(i), i)
	}
	var got []int
	for now := int64(0); now < 12; now++ {
		got = append(got, drain(w, now)...)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order broken: %v", got)
		}
	}
	if len(got) != 10 {
		t.Fatalf("delivered %d, want 10", len(got))
	}
}

func TestWireGrowth(t *testing.T) {
	// Push far more than the initial ring capacity in one cycle.
	w := NewWire[int](2)
	for i := 0; i < 1000; i++ {
		w.Push(5, i)
	}
	if w.Len() != 1000 {
		t.Fatalf("in flight %d, want 1000", w.Len())
	}
	got := drain(w, 7)
	if len(got) != 1000 {
		t.Fatalf("delivered %d, want 1000", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("growth broke FIFO order at %d: %d", i, v)
		}
	}
}

func TestWirePropertyConservation(t *testing.T) {
	// Everything pushed is delivered exactly once, at push time + delay.
	// Pushes must be at nondecreasing cycles (simulator invariant).
	prop := func(pushCycles []uint8, delayRaw uint8) bool {
		delay := 1 + int(delayRaw%5)
		w := NewWire[int](delay)
		sort.Slice(pushCycles, func(i, j int) bool { return pushCycles[i] < pushCycles[j] })
		type ev struct{ due int64 }
		var evs []ev
		for i, c := range pushCycles {
			w.Push(int64(c), i)
			evs = append(evs, ev{due: int64(c) + int64(delay)})
		}
		delivered := 0
		for now := int64(0); now <= 300; now++ {
			for v, ok := w.Pop(now); ok; v, ok = w.Pop(now) {
				if evs[v].due > now {
					t.Errorf("item %d delivered at %d before due %d", v, now, evs[v].due)
				}
				delivered++
			}
		}
		return delivered == len(pushCycles) && w.Len() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWireValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-delay wire must panic")
		}
	}()
	NewWire[int](0)
}

func TestWireNextDue(t *testing.T) {
	w := NewWire[int](3)
	if w.NextDue() != NeverDue {
		t.Fatalf("empty wire NextDue = %d, want NeverDue", w.NextDue())
	}
	w.Push(10, 1)
	w.Push(11, 2)
	if w.NextDue() != 13 {
		t.Fatalf("NextDue = %d, want 13 (oldest push + delay)", w.NextDue())
	}
	if _, ok := w.Pop(12); ok {
		t.Fatal("popped before due")
	}
	if v, ok := w.Pop(13); !ok || v != 1 {
		t.Fatalf("Pop(13) = %v %v, want 1 true", v, ok)
	}
	if w.NextDue() != 14 {
		t.Fatalf("NextDue after pop = %d, want 14", w.NextDue())
	}
	w.Pop(14)
	if w.NextDue() != NeverDue {
		t.Fatalf("drained wire NextDue = %d, want NeverDue", w.NextDue())
	}
}

// wireModel is the reference a Wire is checked against: a plain slice
// of (due, value) pairs in push order.
type wireModel struct {
	delay int64
	items []entry[int]
}

func (m *wireModel) nextDue() int64 {
	if len(m.items) == 0 {
		return NeverDue
	}
	return m.items[0].due
}

func (m *wireModel) pop(now int64) (int, bool) {
	if len(m.items) == 0 || m.items[0].due > now {
		return 0, false
	}
	v := m.items[0].v
	m.items = m.items[1:]
	return v, true
}

// checkWire asserts the header-resident due invariant and the length
// against the model.
func checkWire(t *testing.T, step int, what string, w *Wire[int], m *wireModel) {
	t.Helper()
	if w.NextDue() != m.nextDue() || w.Len() != len(m.items) {
		t.Fatalf("step %d after %s: NextDue %d Len %d, model %d / %d",
			step, what, w.NextDue(), w.Len(), m.nextDue(), len(m.items))
	}
}

// TestWireMatchesSliceModel is the property test of the cached head
// due: after any sequence of Push, Pop and MoveTo — through ring
// wrap-around, forced grows, and moves into empty, non-empty and full
// wires — NextDue is the head entry's due (NeverDue when empty) and Pop
// yields exactly what a slice model yields. Wires come from NewWireCap
// and from an Arena, which must behave the same.
func TestWireMatchesSliceModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		delay := 1 + r.Intn(4)
		var arena Arena[int]
		newWire := func() *Wire[int] { return NewWireCap[int](delay, 0) }
		if seed%2 == 0 {
			for i := 0; i < 2; i++ {
				arena.Wire(delay, 0)
			}
			arena.Alloc()
			newWire = func() *Wire[int] { return arena.Wire(delay, 0) }
		}
		// src plays the sharded engine's outbox, dst the inbox: MoveTo
		// appends src to dst, so pushes keep dues monotone across both.
		src, dst := newWire(), newWire()
		ms, md := &wireModel{delay: int64(delay)}, &wireModel{delay: int64(delay)}
		now, next := int64(0), 0
		for step := 0; step < 3000; step++ {
			switch op := r.Intn(10); {
			case op < 4: // push a burst (bursts past the ring force grow)
				for burst := 1 + r.Intn(1+3*r.Intn(4)); burst > 0; burst-- {
					w, m := src, ms
					if r.Intn(3) == 0 && len(ms.items) == 0 {
						w, m = dst, md // direct pushes keep dst non-empty, sometimes full
					}
					w.Push(now, next)
					m.items = append(m.items, entry[int]{due: now + m.delay, v: next})
					next++
				}
				checkWire(t, step, "push", src, ms)
				checkWire(t, step, "push", dst, md)
			case op < 7: // drain dst at now, item by item
				for {
					got, ok := dst.Pop(now)
					want, wok := md.pop(now)
					if got != want || ok != wok {
						t.Fatalf("seed %d step %d: Pop(%d) = (%d, %v), model (%d, %v)", seed, step, now, got, ok, want, wok)
					}
					checkWire(t, step, "pop", dst, md)
					if !ok {
						break
					}
				}
			case op < 9: // barrier: move the outbox onto the inbox
				var dues, want []int64
				for _, e := range ms.items {
					want = append(want, e.due)
				}
				src.MoveTo(dst, func(due int64) { dues = append(dues, due) })
				md.items = append(md.items, ms.items...)
				ms.items = nil
				if len(dues) != len(want) {
					t.Fatalf("seed %d step %d: MoveTo reported %d dues, want %d", seed, step, len(dues), len(want))
				}
				for i := range dues {
					if dues[i] != want[i] {
						t.Fatalf("seed %d step %d: MoveTo due %d = %d, want %d", seed, step, i, dues[i], want[i])
					}
				}
				checkWire(t, step, "MoveTo (src)", src, ms)
				checkWire(t, step, "MoveTo (dst)", dst, md)
			default:
				now += int64(1 + r.Intn(3))
			}
		}
	}
}

// TestWireMoveToFullAndGrow pins the two MoveTo edge cases by name: the
// destination ring exactly full (the move must grow it) and the
// destination non-empty (its cached due must stay its own head's).
func TestWireMoveToFullAndGrow(t *testing.T) {
	src, dst := NewWire[int](1), NewWire[int](1) // rings of 2
	dst.Push(0, 100)
	dst.Push(0, 101) // dst full, head due 1
	src.Push(5, 200)
	src.Push(5, 201)
	src.MoveTo(dst, nil)
	if src.Len() != 0 || src.NextDue() != NeverDue {
		t.Fatalf("src after MoveTo: Len %d NextDue %d", src.Len(), src.NextDue())
	}
	if dst.Len() != 4 || dst.NextDue() != 1 {
		t.Fatalf("dst after MoveTo: Len %d NextDue %d, want 4 / 1", dst.Len(), dst.NextDue())
	}
	if got := drain(dst, 1); len(got) != 2 || got[0] != 100 || got[1] != 101 {
		t.Fatalf("cycle 1: got %v, want [100 101]", got)
	}
	if dst.NextDue() != 6 {
		t.Fatalf("NextDue after draining the old items = %d, want 6", dst.NextDue())
	}
	if got := drain(dst, 6); len(got) != 2 || got[0] != 200 || got[1] != 201 || dst.NextDue() != NeverDue {
		t.Fatalf("cycle 6: got %v NextDue %d", got, dst.NextDue())
	}
}

// TestArenaWiresAreAdjacentAndExact: an arena's wires are consecutive
// elements of one header slab, their rings consecutive runs of one
// entry slab sized exactly, and a wire that outgrows its run leaves the
// slab without disturbing its neighbours — the one wire Regrown counts.
func TestArenaWiresAreAdjacentAndExact(t *testing.T) {
	var a Arena[int]
	sizes := [][2]int{{1, 0}, {1, 9}, {3, 0}}
	for _, s := range sizes {
		if a.Wire(s[0], s[1]) != nil {
			t.Fatal("counting pass returned a wire")
		}
	}
	a.Alloc()
	var ws []*Wire[int]
	for _, s := range sizes {
		ws = append(ws, a.Wire(s[0], s[1]))
	}
	if len(a.ring) != 2+16+4 {
		t.Fatalf("ring slab has %d entries, want 22", len(a.ring))
	}
	for i, w := range ws {
		if w != &a.wires[i] {
			t.Fatalf("wire %d is not header %d of the slab", i, i)
		}
	}
	for i := 0; i < 2; i++ { // fill wire 0's two-entry run
		ws[0].Push(0, i)
	}
	if n := a.Regrown(); n != 0 {
		t.Fatalf("Regrown = %d with every ring at most full, want 0", n)
	}
	for i := 2; i < 5; i++ { // outgrow it
		ws[0].Push(0, i)
	}
	ws[1].Push(0, 77)
	ws[2].Push(0, 88)
	if n := a.Regrown(); n != 1 {
		t.Fatalf("Regrown = %d after wire 0 outgrew its run, want 1", n)
	}
	if got := drain(ws[0], 1); len(got) != 5 {
		t.Fatalf("grown wire delivered %v", got)
	}
	if got := drain(ws[1], 1); len(got) != 1 || got[0] != 77 {
		t.Fatalf("neighbour wire 1 delivered %v", got)
	}
	if got := drain(ws[2], 3); len(got) != 1 || got[0] != 88 {
		t.Fatalf("neighbour wire 2 delivered %v", got)
	}
}
