package flit

import "testing"

func TestNewPacketFlits(t *testing.T) {
	p := &Packet{ID: 1, Src: 0, Dst: 5, Size: 5}
	fl := NewPacketFlits(p)
	if len(fl) != 5 {
		t.Fatalf("%d flits, want 5", len(fl))
	}
	if fl[0].Kind != Head || !fl[0].Kind.IsHead() {
		t.Error("first flit must be head")
	}
	for i := 1; i < 4; i++ {
		if fl[i].Kind != Body {
			t.Errorf("flit %d is %v, want body", i, fl[i].Kind)
		}
	}
	if fl[4].Kind != Tail || !fl[4].Kind.IsTail() {
		t.Error("last flit must be tail")
	}
	for i, f := range fl {
		if int(f.Seq) != i || f.Pkt != p {
			t.Errorf("flit %d: seq=%d pkt=%p", i, f.Seq, f.Pkt)
		}
	}
}

func TestSingleFlitPacket(t *testing.T) {
	fl := NewPacketFlits(&Packet{Size: 1})
	if len(fl) != 1 || fl[0].Kind != HeadTail {
		t.Fatalf("single-flit packet: %v", fl)
	}
	if !fl[0].Kind.IsHead() || !fl[0].Kind.IsTail() {
		t.Error("headtail must be both head and tail")
	}
}

func TestTwoFlitPacket(t *testing.T) {
	// The paper's running example: one head flit and one tail flit.
	fl := NewPacketFlits(&Packet{Size: 2})
	if fl[0].Kind != Head || fl[1].Kind != Tail {
		t.Fatalf("two-flit packet kinds: %v %v", fl[0].Kind, fl[1].Kind)
	}
}

func TestPacketCompletion(t *testing.T) {
	p := &Packet{Size: 3, CreatedAt: 100}
	if p.Done() {
		t.Fatal("new packet already done")
	}
	p.Ejected = 3
	if !p.Done() || p.Latency(142) != 42 {
		t.Fatalf("done=%v latency=%d", p.Done(), p.Latency(142))
	}
}

// TestFlitMatchesAppend: Flit(seq) builds the flit AppendPacketFlits
// puts at position seq, kind included, for every packet shape.
func TestFlitMatchesAppend(t *testing.T) {
	for _, size := range []int{1, 2, 5} {
		p := &Packet{Size: size}
		fl := AppendPacketFlits(nil, p)
		for seq := range size {
			if f := p.Flit(seq); f != fl[seq] {
				t.Errorf("size %d: Flit(%d) = %+v, want %+v", size, seq, f, fl[seq])
			}
		}
	}
}

// TestQueue: FIFO order over interleaved pushes and pops, the count, an
// empty pop, and a popped packet leaving with its link cleared.
func TestQueue(t *testing.T) {
	var q Queue
	if q.Pop() != nil || q.Len() != 0 {
		t.Fatal("the zero queue is not empty")
	}
	pkts := make([]Packet, 6)
	for i := range pkts {
		pkts[i].ID = int64(i)
	}
	next := 0 // the packet the next pop must return
	pop := func() {
		t.Helper()
		p := q.Pop()
		if p != &pkts[next] {
			t.Fatalf("pop %d returned %v", next, p)
		}
		if p.next != nil {
			t.Fatalf("packet %d left the queue still linked", next)
		}
		next++
	}
	q.Push(&pkts[0])
	q.Push(&pkts[1])
	pop()
	q.Push(&pkts[2])
	pop()
	pop() // empties the queue: head and tail both go
	if q.Len() != 0 || q.Pop() != nil {
		t.Fatalf("queue holds %d after every packet left", q.Len())
	}
	for i := 3; i < 6; i++ {
		q.Push(&pkts[i])
	}
	if q.Len() != 3 {
		t.Fatalf("Len %d, want 3", q.Len())
	}
	for next < 6 {
		pop()
	}
	if q.Pop() != nil || q.Len() != 0 {
		t.Fatal("pop on an empty queue returned a packet")
	}
}

func TestTypeStrings(t *testing.T) {
	for _, k := range []Type{Head, Body, Tail, HeadTail} {
		if k.String() == "" {
			t.Errorf("empty string for %d", k)
		}
	}
}
