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
	p.EjectedAt = 142
	if !p.Done() || p.Latency() != 42 {
		t.Fatalf("done=%v latency=%d", p.Done(), p.Latency())
	}
}

func TestTypeStrings(t *testing.T) {
	for _, k := range []Type{Head, Body, Tail, HeadTail} {
		if k.String() == "" {
			t.Errorf("empty string for %d", k)
		}
	}
}
