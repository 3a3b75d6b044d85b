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
// bytes and holds no pointers, so packets can be carved from pointer-free
// chunks the collector does not scan.
type Packet struct {
	ID   int64
	Src  int // source node
	Dst  int // destination node
	Size int // number of flits

	// CreatedAt is the cycle the packet was generated at the source
	// (before source queueing); the paper measures latency from this
	// point to last-flit ejection.
	CreatedAt int64
	// EjectedAt records the cycle the final flit was ejected, and
	// Ejected counts the flits delivered at the destination so far.
	EjectedAt int64
	Ejected   int32

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
// ejection, including source queueing). Only valid once Done.
func (p *Packet) Latency() int64 { return p.EjectedAt - p.CreatedAt }

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
// extended slice. Passing a reused buffer (dst[:0]) keeps packetization
// allocation-free in steady state — the traffic sources lean on this.
func AppendPacketFlits(dst []Flit, p *Packet) []Flit {
	for i := 0; i < p.Size; i++ {
		k := Body
		switch {
		case p.Size == 1:
			k = HeadTail
		case i == 0:
			k = Head
		case i == p.Size-1:
			k = Tail
		}
		dst = append(dst, Flit{Pkt: p, Seq: int32(i), Kind: k})
	}
	return dst
}

// Reset clears a packet for reuse from a pool, preserving nothing.
func (p *Packet) Reset() { *p = Packet{} }
