// Package flit defines the packet and flit representation used by the
// cycle-accurate router simulator. A packet is broken into flits: a head
// flit carrying the destination, zero or more body flits, and a tail
// flit that releases the resources the head acquired (Section 3.1 of the
// paper). The paper's simulations use 5-flit packets.
package flit

import "fmt"

// Type classifies a flit within its packet.
type Type uint8

const (
	// Head is the first flit of a multi-flit packet; it performs
	// routing, VC allocation, and acquires the switch.
	Head Type = iota
	// Body is a middle flit; it inherits the resources of its head.
	Body
	// Tail is the last flit; on departure it releases the packet's
	// input VC, output VC (or held wormhole port).
	Tail
	// HeadTail is the only flit of a single-flit packet.
	HeadTail
)

func (t Type) String() string {
	switch t {
	case Head:
		return "head"
	case Body:
		return "body"
	case Tail:
		return "tail"
	case HeadTail:
		return "headtail"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// IsHead reports whether the flit opens a packet.
func (t Type) IsHead() bool { return t == Head || t == HeadTail }

// IsTail reports whether the flit closes a packet.
func (t Type) IsTail() bool { return t == Tail || t == HeadTail }

// Packet is the unit of routing. Flits reference their packet; per-packet
// bookkeeping (creation time, ejection progress) lives here. It is 56
// bytes, and its one pointer is the link of the Queue that holds it
// while it waits, so a waiting packet costs nothing beyond itself.
type Packet struct {
	ID   int64
	Src  int // source node
	Dst  int // destination node
	Size int // number of flits

	// CreatedAt is the cycle the packet was generated at the source
	// (before source queueing); the paper measures latency from this
	// point to last-flit ejection.
	CreatedAt int64
	// next links the packet into the Queue that holds it, if any.
	next *Packet
	// Ejected counts the flits delivered at the destination so far.
	Ejected int32

	// Tagged marks packets in the measurement sample space.
	Tagged bool
	// Dropped marks a packet the routing stage declared unroutable (its
	// destination is unreachable on the live graph after faults). Its
	// flits drain through the nearest ejection port and are counted as
	// dropped, not delivered.
	Dropped bool
	// EscapeOnly pins the packet to table (escape-layer) routing for the
	// rest of its life. The adaptive policy sets it when a fault leaves
	// no live productive candidate: from then on every hop follows the
	// rerouted tables, whose strictly shortest live paths bound the
	// remaining hop count and rule out livelock.
	EscapeOnly bool
}

// Done reports whether every flit of the packet has been ejected.
func (p *Packet) Done() bool { return int(p.Ejected) >= p.Size }

// Latency returns the packet latency in cycles (creation to last-flit
// ejection, including source queueing) of a packet whose last flit was
// ejected at cycle now.
func (p *Packet) Latency(now int64) int64 { return now - p.CreatedAt }

// Flit is the unit of flow control and buffer allocation. It is 24
// bytes: every wire ring entry and buffer slot holds one by value.
type Flit struct {
	Pkt  *Packet
	Seq  int32 // position within the packet, 0-based
	Kind Type
	// VC is the virtual-channel id field of the flit on its current
	// link. The switch traversal stage rewrites it to the allocated
	// output VC as the flit leaves each router (Section 3.1).
	VC int8
	// EnqueuedAt is the cycle the flit was written into its current
	// input buffer; a flit may not be considered by allocation in its
	// arrival cycle (registered pipeline stages).
	EnqueuedAt int64
}

// NewPacketFlits breaks a packet into its flits with correct types.
func NewPacketFlits(p *Packet) []Flit {
	return AppendPacketFlits(nil, p)
}

// AppendPacketFlits appends the flits of a packet to dst and returns the
// extended slice.
func AppendPacketFlits(dst []Flit, p *Packet) []Flit {
	for i := 0; i < p.Size; i++ {
		dst = append(dst, p.Flit(i))
	}
	return dst
}

// Flit returns flit seq of the packet, typed by its position, so a
// source can stream a packet's flits without storing them.
func (p *Packet) Flit(seq int) Flit {
	k := Body
	switch {
	case p.Size == 1:
		k = HeadTail
	case seq == 0:
		k = Head
	case seq == p.Size-1:
		k = Tail
	}
	return Flit{Pkt: p, Seq: int32(seq), Kind: k}
}

// Reset clears a packet for reuse from a pool, preserving nothing.
func (p *Packet) Reset() { *p = Packet{} }

// Queue is a FIFO of packets linked through the packets themselves: it
// holds no storage of its own and never grows, and a packet is in at
// most one Queue at a time. The zero Queue is empty.
type Queue struct {
	head, tail *Packet
	n          int
}

// Len returns the number of packets in the queue.
func (q *Queue) Len() int { return q.n }

// Push appends p, which must be in no queue, to the tail.
func (q *Queue) Push(p *Packet) {
	if q.tail == nil {
		q.head = p
	} else {
		q.tail.next = p
	}
	q.tail = p
	q.n++
}

// Pop removes and returns the head packet with its link cleared, or nil
// when the queue is empty.
func (q *Queue) Pop() *Packet {
	p := q.head
	if p == nil {
		return nil
	}
	q.head, p.next = p.next, nil
	if q.head == nil {
		q.tail = nil
	}
	q.n--
	return p
}
