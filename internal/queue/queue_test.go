package queue

import (
	"math/rand"
	"testing"
	"testing/quick"

	"routersim/internal/flit"
)

func mkFlit(seq int) flit.Flit {
	return flit.Flit{Seq: int32(seq), Kind: flit.Body}
}

func TestFIFOOrder(t *testing.T) {
	q := NewFIFO(4)
	for i := 0; i < 4; i++ {
		if err := q.Push(mkFlit(i)); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	for i := 0; i < 4; i++ {
		f, ok := q.Pop()
		if !ok || int(f.Seq) != i {
			t.Fatalf("pop %d: got %v ok=%v", i, f.Seq, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from empty succeeded")
	}
}

func TestFIFOFull(t *testing.T) {
	q := NewFIFO(2)
	q.Push(mkFlit(0))
	q.Push(mkFlit(1))
	if err := q.Push(mkFlit(2)); err != ErrFull {
		t.Fatalf("expected ErrFull, got %v", err)
	}
	if !q.Full() || q.Len() != 2 {
		t.Fatal("full state wrong")
	}
}

func TestFIFOWraparound(t *testing.T) {
	q := NewFIFO(3)
	seq := 0
	// Interleave pushes and pops to exercise ring wrap.
	for round := 0; round < 50; round++ {
		for q.Len() < q.Cap() {
			if err := q.Push(mkFlit(seq)); err != nil {
				t.Fatal(err)
			}
			seq++
		}
		f, _ := q.Pop()
		g, _ := q.Pop()
		if g.Seq != f.Seq+1 {
			t.Fatalf("order broken across wrap: %d then %d", f.Seq, g.Seq)
		}
	}
}

func TestFIFOPeek(t *testing.T) {
	q := NewFIFO(2)
	if q.Peek() != nil {
		t.Fatal("peek on empty should be nil")
	}
	q.Push(mkFlit(7))
	p := q.Peek()
	if p == nil || p.Seq != 7 {
		t.Fatalf("peek = %+v, want seq 7", p)
	}
	if q.Len() != 1 {
		t.Fatal("peek must not consume")
	}
	// Peek returns a pointer into the buffer: mutation is visible (used
	// by the router for in-place guard updates).
	p.Seq = 9
	f, _ := q.Pop()
	if f.Seq != 9 {
		t.Fatal("peek pointer not aliased to storage")
	}
}

func TestFIFOPropertyFIFOOrder(t *testing.T) {
	prop := func(ops []bool, capRaw uint8) bool {
		capacity := 1 + int(capRaw%8)
		q := NewFIFO(capacity)
		next, expect := 0, 0
		for _, push := range ops {
			if push {
				if q.Full() {
					continue
				}
				if err := q.Push(mkFlit(next)); err != nil {
					return false
				}
				next++
			} else {
				if q.Empty() {
					continue
				}
				f, ok := q.Pop()
				if !ok || int(f.Seq) != expect {
					return false
				}
				expect++
			}
			if q.Len() != next-expect {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNewFIFOValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity 0 must panic")
		}
	}()
	NewFIFO(0)
}

// TestFIFOInitSharedSlab: FIFOs Init'ed over adjacent runs of one slab
// (how a router lays out its input VCs) never touch each other's slots,
// including at ring wrap-around and for capacities below the ring size:
// every flit a FIFO pops is one it pushed, in order, and after the run
// each slot of the slab is empty or holds a flit of the FIFO owning it.
func TestFIFOInitSharedSlab(t *testing.T) {
	for _, capacity := range []int{1, 3, 4, 5} {
		ring := RingSize(capacity)
		slab := make([]flit.Flit, 3*ring)
		var qs [3]FIFO
		for i := range qs {
			qs[i].Init(capacity, slab[i*ring:(i+1)*ring:(i+1)*ring])
		}
		r := rand.New(rand.NewSource(int64(capacity)))
		var next, expect [3]int
		for step := 0; step < 5000; step++ {
			i := r.Intn(3)
			q := &qs[i]
			if r.Intn(2) == 0 {
				err := q.Push(mkFlit(10000*(i+1) + next[i]))
				if full := next[i]-expect[i] == capacity; (err != nil) != full {
					t.Fatalf("cap %d fifo %d: push error %v with %d buffered", capacity, i, err, next[i]-expect[i])
				}
				if err == nil {
					next[i]++
				}
			} else if f, ok := q.Pop(); ok {
				if int(f.Seq) != 10000*(i+1)+expect[i] {
					t.Fatalf("cap %d fifo %d: popped seq %d, want %d", capacity, i, f.Seq, 10000*(i+1)+expect[i])
				}
				expect[i]++
			} else if next[i] != expect[i] {
				t.Fatalf("cap %d fifo %d: empty pop with %d buffered", capacity, i, next[i]-expect[i])
			}
			if q.Len() != next[i]-expect[i] || q.Cap() != capacity {
				t.Fatalf("cap %d fifo %d: Len %d Cap %d", capacity, i, q.Len(), q.Cap())
			}
		}
		for slot, f := range slab {
			if owner := slot / ring; f != (flit.Flit{}) && int(f.Seq)/10000 != owner+1 {
				t.Fatalf("cap %d: slot %d (fifo %d's) holds flit %d", capacity, slot, owner, f.Seq)
			}
		}
	}
}
