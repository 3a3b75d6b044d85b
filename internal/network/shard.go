package network

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"routersim/internal/flit"
	"routersim/internal/link"
	"routersim/internal/pool"
	"routersim/internal/router"
)

// This file implements the network's one engine, the shard round: the
// network is split into contiguous node ranges (shards) that step many
// cycles independently — one goroutine each — between barriers, instead
// of synchronizing every cycle like the two-phase parallel stepper.
//
// Config.Shards 0 or 1 is one shard that covers every node. It has no
// boundary and no dependency edge, so its rounds skip the horizon
// computation, the barrier and the idle jump (advanceShards): it steps
// straight through the cycle Step asked for, on the calling goroutine
// (no shard gang), and never runs ahead of the network's callers.
//
// Each directed shard pair (a→b) with at least one boundary link gets
// its own conservative lookahead bound B(a→b) = min over those links of
//
//	delay(link)                    for flit links driven in a, and
//	CreditDelay + creditLag(rcvr)  for credit wires popped in b
//
// because a flit pushed at cycle t arrives at t+delay, and a credit
// pushed at t is popped at t+CreditDelay+creditLag (the receiving
// router drains its credit wires creditLag cycles late — the
// credit-processing pipeline, router.CreditLag). Shard b may therefore
// run ahead of shard a's clock by up to B(a→b) cycles: every cycle
// u < t_a + B(a→b) only consumes items a pushed strictly before t_a,
// which earlier barriers already moved over. PERF.md § PR 8 states the
// full safety argument.
//
// Stepping is round-based with per-shard clocks instead of one global
// window: shard s has completed every cycle < s.now, and each round
// computes its horizon
//
//	h_s = min( s.now + L,  min over incoming deps d of (d.on.now + d.bound) )
//
// from a snapshot of the clocks, steps [s.now, h_s) in parallel, then
// one barrier moves every non-empty boundary outbox and advances the
// clocks to their horizons. The global floor L = min over all pairs of
// B keeps the no-incoming-lag case moving; the shard at the minimum
// clock always satisfies every dep with at least +L, so each round
// advances the global completion point by at least L ≥ 1 cycles —
// heterogeneous delay overrides shrink only the pair windows they
// actually constrain, not everyone's.
//
// Boundary wires are split in two so no wire is ever touched by two
// shards: the driving router pushes onto a shard-local outbox, and the
// barrier moves the accumulated entries — dues intact, FIFO order
// intact — onto the receiving router's inbox and wakes the receiver in
// its own shard's wake wheel at each flit's exact arrival cycle. A
// moved flit was pushed at t ∈ [t_a, h_a) and is due at t+d, and the
// receiver's clock can lag the sender's horizon by at most B(b→a), so
// due − b.clock ≤ maxPairBound + maxDelay: the wake wheels are sized to
// that bound (buildShards), so an absolute-due wake never aliases
// another slot. Dues stay monotone per link across rounds (push cycles
// only grow), so the inbox stays due-ordered.
//
// Observable effects are replayed serially so every shard count is
// byte-identical to one shard. During its window each shard only
// buffers its ejections (with a packet-done flag captured at the
// ejection cycle, before later window cycles advance the count) and
// its packet creations; Step(now) then replays the buffered events of
// cycle `now` across shards. Shards are ascending node ranges
// (partitionNodes), so concatenating their buffers in shard order is
// already global node order. Packet IDs are assigned at replay — the
// only global counter — so creation order, IDs, and every derived
// measurement are the same for any shard count.

// ejectEvent is one buffered flit ejection. done is whether this flit
// completed its packet, captured at ejection time (the packet's
// running count keeps advancing through the rest of the window).
type ejectEvent struct {
	t    int64
	f    flit.Flit
	done bool
}

// createEvent is one buffered packet creation, awaiting its serial
// replay (which assigns the global packet ID).
type createEvent struct {
	t int64
	p *flit.Packet
}

// flitXfer is one boundary flit link: the driving shard pushes onto
// out during the window; the barrier moves the entries onto in (the
// wire the receiving router reads) and wakes the receiver per entry.
type flitXfer struct {
	out, in *link.Wire[flit.Flit]
	dst     int32
	wake    func(due int64)
}

// creditXfer is one boundary credit link (reverse direction). Credits
// never wake anyone — see the scheduler invariant in sched.go.
type creditXfer struct {
	out, in *link.Wire[router.Credit]
}

// shardDep is one incoming dependency edge of a shard: the shard may
// not step cycle u unless u < on.now + bound.
type shardDep struct {
	on    *shard
	bound int64
}

// shard is one node range of the sharded engine: its own scheduler,
// clock, event buffers, packet pool, and (optionally) worker gang.
type shard struct {
	net *Network
	idx int
	sc  *scheduler

	// now is the shard's clock: every cycle < now is complete. horizon
	// is this round's step target, computed from the clock snapshot
	// before the shards run (see runRound).
	now     int64
	horizon int64
	// deps are the incoming dependency bounds, one per neighbouring
	// shard that drives flits or returns credits into this one.
	deps []shardDep

	// gang and the phase closures parallelize deliver/compute inside
	// the shard when StepWorkers > 1 (each shard owns its gang; Gang.Run
	// is not reentrant but distinct gangs are independent).
	gang      *pool.Gang
	parNow    int64
	deliverFn func(i int)
	computeFn func(i int)

	// Buffered window events, appended in (cycle, node) order; the
	// cursors track serial replay. run compacts the unreplayed tail to
	// the front of each buffer before appending more, so the slices
	// stop growing once the warmup high-water mark is reached.
	ejects  []ejectEvent
	ejCur   int
	creates []createEvent
	crCur   int

	// pktFree is the shard-local packet pool, linked through the pooled
	// packets. Sources allocate from their own shard's pool during the
	// window; the serial replay frees a finished packet back to its
	// source's shard, so pools stay balanced under asymmetric traffic.
	pktFree flit.Queue
	// pktChunk is the uncarved rest of the chunk new packets come from
	// when the pool is empty (see allocPacket).
	pktChunk []flit.Packet

	// injected/drained are this shard's flit-conservation counters
	// (audit.go): flits its sources pushed onto injection wires and
	// flits its routers ejected. Kept per shard so the window-time
	// increments are race-free; the auditor sums them at barriers.
	injected int64
	drained  int64
}

// pktsPerChunk is how many packets one chunk holds: 73 × 56 bytes fill
// the 4,096-byte heap size class, one allocation. A packet's one pointer
// is its queue link, so the collector scans one word per packet.
const pktsPerChunk = 73

// allocPacket takes a packet from the shard's pool, or carves a new one
// from its current chunk.
func (sh *shard) allocPacket() *flit.Packet {
	if p := sh.pktFree.Pop(); p != nil {
		return p
	}
	if len(sh.pktChunk) == 0 {
		sh.pktChunk = make([]flit.Packet, pktsPerChunk)
	}
	p := &sh.pktChunk[0]
	sh.pktChunk = sh.pktChunk[1:]
	return p
}

// partitionNodes returns the shards+1 cut points of the balanced
// contiguous split: shard i owns the node range [cuts[i], cuts[i+1]),
// cuts[i] = i·nodes/shards, so sizes are within ±1 and every range is
// non-empty when shards <= nodes. On the paper's k-ary 2-cubes these
// slabs are the minimum cut (PERF.md, "Shards are node ranges").
func partitionNodes(nodes, shards int) []int32 {
	cuts := make([]int32, shards+1)
	for i := range cuts {
		cuts[i] = int32(i * nodes / shards)
	}
	return cuts
}

// shardOf returns the index of the range of cuts that holds node id.
func shardOf(cuts []int32, id int) int32 {
	return int32(sort.Search(len(cuts)-1, func(i int) bool { return int(cuts[i+1]) > id }))
}

// buildShards finishes engine construction once routers, wires, and
// sources exist: per-shard schedulers over the shared tables, the
// dependency bounds collected during wiring, boundary wake closures,
// gangs, and the global lookahead floor. Shard i owns the node range
// [cuts[i], cuts[i+1]). The shards start at no cycle; Reset arms them.
func (n *Network) buildShards(cuts []int32, depBound map[[2]int32]int64) {
	// The wake wheels must absorb barrier transfers landing up to
	// maxPairBound+maxDelay cycles ahead of a lagging receiver's clock;
	// rounding to a power of two keeps the slot computation an AND.
	maxDelay := int64(n.cfg.FlitDelay)
	for _, d := range n.delayAt {
		if d > maxDelay {
			maxDelay = d
		}
	}
	n.lookahead = int64(math.MaxInt64)
	maxBound := int64(0)
	for _, b := range depBound {
		if b < n.lookahead {
			n.lookahead = b
		}
		if b > maxBound {
			maxBound = b
		}
	}
	if len(depBound) == 0 {
		// No dependency edge: one shard, which never runs ahead.
		n.lookahead = 1
	}
	wheel := int64(1)
	for wheel < maxBound+maxDelay {
		wheel <<= 1
	}
	tab := n.buildSchedTables(wheel)

	n.shards = make([]*shard, len(cuts)-1)
	for i := range n.shards {
		sh := &shard{net: n, idx: i}
		sh.sc = newScheduler(n, tab, cuts[i], cuts[i+1])
		if n.cfg.StepWorkers > 1 {
			sh.gang = pool.NewGang(n.cfg.StepWorkers)
			sh.deliverFn = func(i int) { n.routers[sh.sc.active[i]].Deliver(sh.parNow) }
			sh.computeFn = func(i int) { n.routers[sh.sc.active[i]].Compute(sh.parNow) }
		}
		n.shards[i] = sh
	}
	// Dependency edges, sorted by source shard for a deterministic
	// horizon computation order.
	keys := make([][2]int32, 0, len(depBound))
	for k := range depBound {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i][0] < keys[j][0] || (keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1])
	})
	for _, k := range keys {
		on, waiter := k[0], k[1]
		n.shards[waiter].deps = append(n.shards[waiter].deps, shardDep{on: n.shards[on], bound: depBound[k]})
	}

	for id := range n.sources {
		n.sources[id].sh = n.shards[shardOf(cuts, id)]
	}
	for i := range n.flitXfers {
		x := &n.flitXfers[i]
		sc := n.shards[shardOf(cuts, int(x.dst))].sc
		dst := x.dst
		x.wake = func(due int64) { sc.wakeAt(dst, due) }
	}
	if len(n.shards) > 1 {
		n.shardGang = pool.NewGang(len(n.shards))
		n.shardRunFn = func(i int) {
			sh := n.shards[i]
			sh.run(sh.now, sh.horizon)
		}
	}
}

// reset rewinds the shard to cycle 0: clock, empty event buffers and
// worklists, zeroed audit counters. The packet pool is kept; the
// network has already reclaimed every packet the buffers referenced.
func (sh *shard) reset() {
	sh.now, sh.horizon, sh.parNow = 0, 0, 0
	sh.ejects, sh.ejCur = sh.ejects[:0], 0
	sh.creates, sh.crCur = sh.creates[:0], 0
	sh.injected, sh.drained = 0, 0
	sh.sc.reset(sh.net)
}

// Lookahead returns the engine's global window floor in cycles: the
// minimum dependency bound over every directed shard pair — each round
// advances the slowest shard by at least this much — or 1 on a
// one-shard network. Individual pairs may tolerate more; see
// PairLookahead.
func (n *Network) Lookahead() int64 { return n.lookahead }

// PairLookahead returns how many cycles shard `to` may run ahead of
// shard `from`'s clock — the minimum bound over the boundary links
// from `from` into `to` (flit links driven in `from`, credit wires of
// links driven in `to`) — or 0 when no such boundary exists. Exposed
// for tests of the per-pair heterogeneous lookahead rule.
func (n *Network) PairLookahead(from, to int) int64 {
	for _, d := range n.shards[to].deps {
		if d.on.idx == from {
			return d.bound
		}
	}
	return 0
}

// minShardClock is the global completion point: every cycle strictly
// below it is complete in every shard.
func (n *Network) minShardClock() int64 {
	m := n.shards[0].now
	for _, sh := range n.shards[1:] {
		if sh.now < m {
			m = sh.now
		}
	}
	return m
}

// advanceShards runs rounds until cycle now is complete everywhere.
// When every shard is quiescent (no worklist entries, no pending
// wakes) the clocks jump straight to the earliest parked injection (or
// past now), skipping the empty rounds; NextDue guarantees the run
// loop never steps past buffered events, and stepping a quiescent
// shard is a no-op regardless of them.
//
// One shard needs none of that: with no barrier partner its window
// runs straight through now (run skips quiescent spans itself), cut
// only at an unapplied fault cycle, and its state is converged after
// every window, so it audits as soon as its clock passes the deadline
// instead of clamping its window to it.
func (n *Network) advanceShards(now int64) {
	if len(n.shards) == 1 {
		sh := n.shards[0]
		for sh.now <= now {
			if n.faults != nil {
				n.applyFaults(sh.now)
			}
			end := min(now+1, n.faults.nextFaultCycle())
			sh.run(sh.now, end)
			sh.now = end
		}
		if n.auditEvery > 0 && now >= n.auditNextAt {
			n.runAudit(now)
			n.auditNextAt = now + n.auditEvery
		}
		return
	}
	idle := true
	for _, sh := range n.shards {
		if sh.sc.busy() {
			idle = false
			break
		}
	}
	if idle {
		jump := now + 1
		for _, sh := range n.shards {
			if h := sh.sc.srcHeap; len(h) > 0 && h[0].at < jump {
				jump = h[0].at
			}
		}
		if n.faults != nil {
			// The skipped span is quiescent — no routing decisions — so
			// fault cycles inside it apply now (cycle by cycle, see
			// applyFaults), keeping the clocks-never-pass-an-unapplied-
			// fault invariant without running empty rounds.
			n.applyFaults(jump)
		}
		for _, sh := range n.shards {
			if sh.now < jump {
				sh.now = jump
			}
		}
		// A quiescence jump may overshoot the audit deadline; the skipped
		// span had no events, so skip the (trivially clean) audit and
		// move the deadline past the jump — a stale deadline would pin
		// every future horizon below the clocks.
		if n.auditEvery > 0 {
			if mc := n.minShardClock(); mc >= n.auditNextAt {
				n.auditNextAt = mc + n.auditEvery
			}
		}
	}
	for n.minShardClock() <= now {
		n.runRound()
	}
}

// runRound is one barrier round: horizons from the clock snapshot, all
// shards step their windows in parallel, then the barrier moves every
// non-empty boundary outbox and the clocks advance.
func (n *Network) runRound() {
	// Fault application is a barrier-only mutation: horizons below are
	// clamped to the next unapplied fault cycle, so no shard ever steps
	// a cycle whose routing decisions should already see the fault.
	// When the slowest clock reaches that cycle, every clock equals it
	// (the clamp pinned them there), and the tables rewrite here, with
	// no shard running.
	if n.faults != nil {
		n.applyFaults(n.minShardClock())
	}
	nextFault := n.faults.nextFaultCycle()
	for _, sh := range n.shards {
		h := sh.now + n.lookahead
		for _, d := range sh.deps {
			if t := d.on.now + d.bound; t < h {
				h = t
			}
		}
		if h > nextFault {
			h = nextFault
		}
		// The audit deadline pins horizons the same way a fault cycle
		// does: no shard steps past it, so when the slowest clock reaches
		// it every clock equals it, the barrier below has flushed the
		// boundary outboxes, and the auditor sees one consistent global
		// state. auditNextAt is MaxInt64 when auditing is off.
		if h > n.auditNextAt {
			h = n.auditNextAt
		}
		sh.horizon = h
	}
	if n.shardGang == nil || n.probed {
		// One shard runs on the calling goroutine; so do a probed
		// network's shards, whose routers share one probe accumulator.
		for _, sh := range n.shards {
			sh.run(sh.now, sh.horizon)
		}
	} else {
		n.shardGang.Run(len(n.shards), n.shardRunFn)
	}
	// The barrier: move boundary pushes to the receiving wires in
	// construction order (receiving node, shard by shard, then port) —
	// a fixed serial order, though immaterial across distinct wires
	// and preserved within each (single producer, monotone dues).
	// Empty outboxes — the common case once traffic localizes — skip
	// the move entirely.
	for i := range n.flitXfers {
		x := &n.flitXfers[i]
		if x.out.Len() > 0 {
			x.out.MoveTo(x.in, x.wake)
		}
	}
	for i := range n.creditXfers {
		x := &n.creditXfers[i]
		if x.out.Len() > 0 {
			x.out.MoveTo(x.in, nil)
		}
	}
	for _, sh := range n.shards {
		if sh.horizon > sh.now {
			sh.now = sh.horizon
		}
	}
	// Clocks never pass the audit deadline (the horizon clamp), so
	// reaching it means every clock equals it: audit the converged
	// barrier state, then release the pin.
	if n.auditEvery > 0 {
		if mc := n.minShardClock(); mc >= n.auditNextAt {
			n.runAudit(mc - 1)
			n.auditNextAt = mc + n.auditEvery
		}
	}
}

// run steps one shard through the window [start, end): the active-set
// worklists drive each cycle, ejections are buffered for the replay,
// cross-shard pushes are left for the barrier, and shard-local
// quiescent gaps are skipped to the next parked injection.
func (sh *shard) run(start, end int64) {
	if end <= start {
		return
	}
	sh.compact()
	sc := sh.sc
	for t := start; t < end; t++ {
		if sc.carryCount == 0 && sc.wakeCount == 0 && sc.srcCount == 0 {
			// Shard-locally quiescent: nothing can happen before the
			// earliest parked injection (pending wakes cover every
			// in-flight arrival, including barrier transfers).
			if len(sc.srcHeap) == 0 {
				return
			}
			if at := sc.srcHeap[0].at; at > t {
				if at >= end {
					return
				}
				t = at
			}
		}
		sc.buildActive(t)
		if sh.gang != nil && !sh.net.probed {
			sh.parNow = t
			sh.gang.Run(len(sc.active), sh.deliverFn)
			sh.gang.Run(len(sc.active), sh.computeFn)
			for _, id := range sc.active {
				sh.finishRouter(int(id), t)
			}
		} else {
			for _, id := range sc.active {
				sh.net.routers[id].Step(t)
				sh.finishRouter(int(id), t)
			}
		}
		sc.stepSources(sh.net, t)
	}
}

// compact moves the unreplayed buffered events to the front of their
// slices, reclaiming the replayed prefix without reallocating.
func (sh *shard) compact() {
	if sh.ejCur > 0 {
		k := copy(sh.ejects, sh.ejects[sh.ejCur:])
		sh.ejects = sh.ejects[:k]
		sh.ejCur = 0
	}
	if sh.crCur > 0 {
		k := copy(sh.creates, sh.creates[sh.crCur:])
		sh.creates = sh.creates[:k]
		sh.crCur = 0
	}
}

// finishRouter completes one stepped router's cycle inside a window:
// ejections are buffered with their done flag, in-shard pushes wake the
// downstream router, cross-shard pushes stay in their boundary outbox
// for the barrier to deliver and wake, and the router carries itself to
// the next cycle if it still has router-local work.
func (sh *shard) finishRouter(id int, now int64) {
	sc := sh.sc
	r := sh.net.routers[id]
	if ejected := r.Ejected(); len(ejected) > 0 {
		for _, f := range ejected {
			// Only a packet a fault left unroutable may drain away from
			// its destination (fireEject counts it as dropped).
			if f.Pkt.Dst != id && !f.Pkt.Dropped {
				panic(fmt.Sprintf("network: flit of packet %d→%d ejected at node %d", f.Pkt.Src, f.Pkt.Dst, id))
			}
			sh.ejects = append(sh.ejects, ejectEvent{t: now, f: f, done: f.Pkt.Done()})
			sh.drained++ // counted at ejection, not replay: the flit left the wires here
		}
		r.ClearEjected()
	}
	for m := r.TakeFlitPushes(); m != 0; m &= m - 1 {
		port := bits.TrailingZeros64(m)
		if dst := sc.outDst[id*sc.ports+port]; dst >= 0 && sc.owns(dst) {
			sc.wake(dst, sc.delay[id])
		}
	}
	if !r.ComputeIdle() {
		sc.carry(int32(id))
	}
}

// fireEject replays one buffered ejection on the network callbacks,
// returning a finished packet to its source shard's pool.
func (n *Network) fireEject(e *ejectEvent, now int64) {
	if e.f.Pkt.Dropped {
		// Unroutable drain: a fault severed the destination, so the
		// packet drained through the ejection port of the router that
		// found it unroutable. Its flits are counted, not delivered —
		// OnFlitEjected stays silent so throughput excludes them — and
		// completion still fires OnPacketDone so the measurement layer
		// can retire tagged packets.
		n.droppedFlits++
		if !e.done {
			return
		}
		n.unroutable++
	} else if n.OnFlitEjected != nil {
		n.OnFlitEjected(e.f, now)
	}
	if e.done {
		p := e.f.Pkt
		if n.OnPacketDone != nil {
			n.OnPacketDone(p, now)
		}
		n.reclaim(p)
	}
}

// fireCreate replays one buffered packet creation, assigning the
// global packet ID.
func (n *Network) fireCreate(e *createEvent, now int64) {
	e.p.ID = n.nextPacketID
	n.nextPacketID++
	if cb := n.OnPacketCreated; cb != nil {
		cb(e.p, now)
	}
}

// replay fires cycle now's buffered events on the network's callbacks
// in one fixed per-cycle order: every ejection, then every creation,
// each shard's buffer in turn. Shards are ascending node ranges and
// each buffers a cycle's events in ascending node order, so the
// concatenation is one shard's exact callback sequence.
func (n *Network) replay(now int64) {
	for _, sh := range n.shards {
		for sh.ejCur < len(sh.ejects) {
			e := &sh.ejects[sh.ejCur]
			if e.t != now {
				if e.t < now {
					panic("network: sharded ejection missed its replay cycle")
				}
				break
			}
			sh.ejCur++
			n.fireEject(e, now)
		}
	}
	for _, sh := range n.shards {
		for sh.crCur < len(sh.creates) {
			e := &sh.creates[sh.crCur]
			if e.t != now {
				if e.t < now {
					panic("network: sharded creation missed its replay cycle")
				}
				break
			}
			sh.crCur++
			n.fireCreate(e, now)
		}
	}
}

// NextDue returns the earliest future cycle at which stepping the
// network can have any observable effect: the earliest unreplayed
// buffered event, else the earliest busy shard's next-unexecuted cycle
// (pending wakes cover barrier-transferred boundary flits), else the
// earliest parked injection across shards, or math.MaxInt64 if no
// source will ever inject again. The sim run loop uses it to
// fast-forward over quiescent spans. It must be called after Step(now).
// A one-shard network that is busy answers now+1, as does every
// full-scan network (its sources never leave the worklist).
func (n *Network) NextDue(now int64) int64 {
	due := int64(math.MaxInt64)
	for _, sh := range n.shards {
		if sh.ejCur < len(sh.ejects) && sh.ejects[sh.ejCur].t < due {
			due = sh.ejects[sh.ejCur].t
		}
		if sh.crCur < len(sh.creates) && sh.creates[sh.crCur].t < due {
			due = sh.creates[sh.crCur].t
		}
		if sh.sc.busy() {
			if sh.now < due {
				due = sh.now
			}
		} else if h := sh.sc.srcHeap; len(h) > 0 && h[0].at < due {
			due = h[0].at
		}
	}
	if due <= now {
		return now + 1
	}
	return due
}
