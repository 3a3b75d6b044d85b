package network

import (
	"routersim/internal/flit"
	"routersim/internal/link"
	"routersim/internal/rng"
	"routersim/internal/router"
	"routersim/internal/traffic"
)

// source is a constant-rate traffic source with an infinite source
// queue, feeding the router's local input port over an injection channel
// with credit-based flow control. It acts as the upstream end of that
// channel: it tracks credits and VC busy state for the router's local
// input VCs, assigns queued packets to free VCs, and injects at most one
// flit per cycle (the injection channel has one flit of bandwidth, like
// every other physical channel).
type source struct {
	net  *Network
	node int
	inj  traffic.Injector
	rng  rng.RNG
	// constRate is inj when the source is the paper's constant-rate one.
	constRate traffic.ConstantRate
	// sh is the owning shard: packets come from its pool and creation
	// events are buffered for the serial replay, which assigns the
	// global packet ID (see shard.go).
	sh *shard

	// adv, when non-nil, lets the injector consume its idle gap in one
	// batch (ConstantRate, MMPP, Batch, trace replay). The active-set
	// scheduler uses it to park an idle source until precisely its next
	// generation cycle; an injector without it (Bernoulli draws its RNG
	// every cycle) keeps the source on the active list permanently, so
	// its random stream — and every figure metric derived from it — is
	// untouched.
	adv interface{ AdvanceToInjection() int64 }
	// cnt, when non-nil, reports how many packets the injection reached
	// by AdvanceToInjection carries (batch releases, trace cycles with
	// several packets). Absent, a pre-consumed injection is one packet.
	cnt interface{ PendingCount() int }
	// draw, when non-nil, dictates each generated packet's destination
	// and size (trace replay) instead of the pattern + size draws.
	draw interface{ NextPacket() (dst, size int) }
	// tickedTo is the last cycle whose injector Tick has been applied;
	// while parked it runs ahead of the simulation clock (the gap's
	// ticks were consumed at park time, replaying the full-scan
	// engine's exact accumulator sequence), and pendingAt holds the
	// cycle of the pre-consumed injection (-1 when none) with pendingN
	// packets due there.
	tickedTo  int64
	pendingAt int64
	pendingN  int

	flitOut  *link.Wire[flit.Flit]
	creditIn *link.Wire[router.Credit]
	bufPerVC int // the router's local input buffer depth per VC
	credits  []int
	busy     []bool // VC assigned to an in-flight packet stream
	inFlight int    // number of busy VCs (skip the injection scan at 0)
	rrNext   int    // round-robin pointer over VCs for injection bandwidth
	streams  []stream

	// queue is an unbounded power-of-two ring of waiting packets.
	queue []*flit.Packet
	qhead int
	qlen  int
}

// stream is an in-progress packet being streamed onto one VC. The flit
// buffer is reused across packets, so steady-state packetization does
// not allocate.
type stream struct {
	flits []flit.Flit
	next  int
}

// source carves node's source from the shard's slabs (nil on the
// counting pass); build wires flitOut/creditIn and reset arms it.
func (s *shardSlabs) source(net *Network, node int, vcs, bufPerVC int) *source {
	src := s.sources.New()
	credits, busy, streams := s.srcCredits.Take(vcs), s.busy.Take(vcs), s.streams.Take(vcs)
	queue := s.queues.Take(8)
	if src == nil {
		return nil
	}
	*src = source{
		net: net, node: node, bufPerVC: bufPerVC,
		credits: credits, busy: busy, streams: streams, queue: queue,
	}
	return src
}

// reset arms the source with a fresh injector (its RNG stream is set
// already): full credits, no VC busy, an empty queue (its ring kept).
// Each packet the source still holds, queued or mid-stream, is handed
// to drop.
func (s *source) reset(inj traffic.Injector, drop func(p *flit.Packet)) {
	for s.qlen > 0 {
		drop(s.popQueue())
	}
	for vc := range s.busy {
		if s.busy[vc] {
			drop(s.streams[vc].flits[0].Pkt)
		}
		s.busy[vc], s.streams[vc].next, s.credits[vc] = false, 0, s.bufPerVC
	}
	s.inFlight, s.rrNext = 0, 0
	s.inj = inj
	s.tickedTo, s.pendingAt, s.pendingN = -1, -1, 0
	s.adv, _ = inj.(interface{ AdvanceToInjection() int64 })
	s.cnt, _ = inj.(interface{ PendingCount() int })
	s.draw, _ = inj.(interface{ NextPacket() (dst, size int) })
}

func (s *source) queueLen() int { return s.qlen }

// pushQueue appends a packet to the source queue, doubling the ring when
// full (source queues are unbounded, per the paper's infinite-queue
// model).
func (s *source) pushQueue(p *flit.Packet) {
	if s.qlen == len(s.queue) {
		grown := make([]*flit.Packet, 2*len(s.queue))
		mask := len(s.queue) - 1
		for i := 0; i < s.qlen; i++ {
			grown[i] = s.queue[(s.qhead+i)&mask]
		}
		s.queue = grown
		s.qhead = 0
	}
	s.queue[(s.qhead+s.qlen)&(len(s.queue)-1)] = p
	s.qlen++
}

// popQueue removes and returns the head-of-queue packet; the queue must
// be non-empty.
func (s *source) popQueue() *flit.Packet {
	p := s.queue[s.qhead]
	s.queue[s.qhead] = nil
	s.qhead = (s.qhead + 1) & (len(s.queue) - 1)
	s.qlen--
	return p
}

// step advances the source one cycle: receive returned credits, apply
// injector ticks (catching up, in one batch, any cycles skipped while
// the source was parked by the active-set scheduler), bind queued
// packets to free VCs, and inject one flit.
func (s *source) step(now int64) {
	for c, ok := s.creditIn.Pop(now); ok; c, ok = s.creditIn.Pop(now) {
		s.credits[c.VC]++
	}

	if s.pendingAt >= 0 {
		// Parked: the idle gap's ticks were consumed at park time and
		// the scheduler wakes the source on exactly the injection
		// cycle; any other cycle means the scheduler lost the wake.
		if s.pendingAt != now {
			panic("network: parked source stepped off its injection cycle")
		}
		s.pendingAt = -1
		for i := s.pendingN; i > 0; i-- {
			s.generate(now)
		}
		s.pendingN = 0
	} else {
		for t := s.tickedTo + 1; t <= now; t++ {
			for i := s.inj.Tick(); i > 0; i-- {
				if t != now {
					panic("network: source tick applied to a past cycle")
				}
				s.generate(now)
			}
		}
		s.tickedTo = now
	}

	// Bind head-of-queue packets to free virtual channels. A packet
	// holds its VC until its tail is injected (the source performs the
	// VC allocation of the injection channel). The scan exits as soon as
	// the queue drains, and is skipped entirely when it is empty.
	for vc := 0; vc < len(s.busy) && s.qlen > 0; vc++ {
		if s.busy[vc] {
			continue
		}
		p := s.popQueue()
		s.busy[vc] = true
		s.inFlight++
		st := &s.streams[vc]
		st.flits = flit.AppendPacketFlits(st.flits[:0], p)
		st.next = 0
	}

	// Inject at most one flit this cycle, round-robin over VCs with a
	// pending flit and a credit. Nothing in flight means nothing to
	// scan.
	if s.inFlight == 0 {
		return
	}
	v := len(s.busy)
	for k := 0; k < v; k++ {
		vc := (s.rrNext + k) % v
		if !s.busy[vc] || s.credits[vc] <= 0 {
			continue
		}
		st := &s.streams[vc]
		f := st.flits[st.next]
		f.VC = int8(vc)
		s.flitOut.Push(now, f)
		// The injection channel has the node's own link delay, and the
		// source and its router share a shard.
		sc := s.sh.sc
		sc.wake(int32(s.node), sc.delay[s.node])
		s.credits[vc]--
		// Flit-conservation census (audit.go): count at the push, the
		// moment the flit enters the network's wires, on the source's own
		// shard to keep the increment race-free.
		s.sh.injected++
		st.next++
		if st.next == len(st.flits) {
			s.busy[vc] = false
			s.inFlight--
			st.next = 0
		}
		s.rrNext = (vc + 1) % v
		return
	}
}

// park consumes the injector's idle gap in one AdvanceToInjection call
// and returns the wake cycle of the next injection, or -1 if the source
// never injects again. It must only be called on an idle source (empty
// queue, nothing in flight) whose ticks are applied through the current
// cycle; the injector ends in exactly the state per-cycle stepping
// would leave it in, only early. The call does not walk the gap cycle
// by cycle (a constant-rate injector jumps its accumulator binade by
// binade), so a long gap costs no more to park than a short one.
func (s *source) park() int64 {
	k := s.adv.AdvanceToInjection()
	if k < 1 {
		return -1
	}
	s.tickedTo += k
	s.pendingAt = s.tickedTo
	s.pendingN = 1
	if s.cnt != nil {
		s.pendingN = s.cnt.PendingCount()
	}
	return s.pendingAt
}

// generate creates one packet (from the shard's pool), appends it to
// the source queue, and buffers its creation for the replay. Trace
// replay dictates the destination and size; live workloads draw the
// destination from the pattern and, when a size distribution is
// configured, the size from the source's RNG stream.
func (s *source) generate(now int64) {
	var dst, size int
	if s.draw != nil {
		dst, size = s.draw.NextPacket()
	} else {
		dst = s.net.cfg.Pattern.Dest(s.node, s.net.Nodes(), &s.rng)
		if s.net.cfg.Sizes != nil {
			size = s.net.cfg.Sizes.Sample(&s.rng)
		} else {
			size = s.net.cfg.PacketSize
		}
	}
	sh := s.sh
	p := sh.allocPacket()
	p.Src = s.node
	p.Dst = dst
	p.Size = size
	p.CreatedAt = now
	sh.creates = append(sh.creates, createEvent{t: now, p: p})
	s.pushQueue(p)
}
