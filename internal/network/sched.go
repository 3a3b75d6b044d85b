package network

import (
	"math/bits"

	"routersim/internal/router"
)

// This file implements the active-set scheduler: each shard's worklists
// (shard.go), which make a stepped cycle cost O(in-flight work) instead
// of O(nodes).
//
// Routers are stepped only while they can possibly act. The invariant
// is maintained by two wake rules:
//
//  1. arrival wakes — whoever pushes a flit onto a router's input wire
//     at cycle t schedules that router for cycle t+delay, the exact
//     cycle the flit becomes deliverable. Pending wakes live in a wheel
//     of node bitmaps indexed by due-cycle mod the wheel size.
//  2. self-sustain — a router that finishes a step with router-local
//     work left (occupied input VCs or latched switch grants, i.e.
//     !ComputeIdle) carries itself onto the next cycle's bitmap.
//
// Credits deliberately do NOT wake anyone: a credit only replenishes a
// counter that is read when the receiving side has an occupied VC — and
// a router (or source) with an occupied VC is already on the active
// list by rule 2, so it drains its credit wires on time; an idle one
// drains them at its next arrival wake, before its next Compute. That
// is why skipping a sleeping router is invisible: its Deliver would pop
// nothing that matters yet and its Compute is a no-op (the allocators
// are pure on empty request sets).
//
// The worklists are bitmaps, one bit per node: a wake is a single
// or-into-word, duplicates coalesce for free, and materializing the
// cycle's list walks set bits in ascending node order, which pins the
// ejection-callback order and therefore every derived measurement.
//
// Sources have their own list: a source stays active while its queue or
// an in-flight packet stream needs per-cycle attention, and otherwise
// parks in a min-heap keyed by its exact next injection cycle
// (traffic.ConstantRate exposes it; Bernoulli draws its RNG every cycle
// and therefore never parks, keeping its random stream untouched). A
// woken source applies the skipped injector ticks in one batch —
// replaying the identical floating-point accumulator sequence — so the
// injection schedule is bit-identical to per-cycle stepping.
//
// When the carry bitmap, the wake wheel, and the source worklist agree
// that nothing can happen before cycle T, NextDue reports T and the sim
// run loop fast-forwards straight to it (quiescence fast-forward).
//
// Config.FullScan is the reference policy of the same scheduler: the
// router list is every non-Idle router, read from the routers
// themselves, and every source stays on the source list every cycle, so
// nothing parks and NextDue answers now+1. The wake bookkeeping still
// runs but is cleared unread.
//
// A scheduler covers one shard's node range [base, base+count) and
// keeps its bitmaps range-local: bit = id - base. The read-only link
// tables are shared through schedTables. A one-shard network is the
// base=0, count=nodes case.

// schedTables holds the read-only link structure every scheduler range
// of a network shares: built once at network.New, safe for concurrent
// reads from any shard.
type schedTables struct {
	// outDst maps (router*ports + port) to the downstream router id on
	// that output port, -1 for the ejection port and unconnected edges.
	outDst []int32
	ports  int
	// delay[id] is the propagation delay of every link driven by router
	// id. wheelSize is a power of two of at least maxPairBound+maxDelay,
	// because barrier-transferred arrivals can land that far ahead of a
	// lagging shard's clock (shard.go) — of at least the largest delay on
	// a one-shard network — and every wake wheel is sized to it.
	// wheelMask is wheelSize-1: the slot computation runs on every flit
	// push, and an AND is far cheaper than an int64 division.
	delay     []int64
	wheelSize int64
	wheelMask int64
}

// buildSchedTables precomputes the shared downstream and delay tables
// for wake wheels of wheelSize slots (a power of two).
func (n *Network) buildSchedTables(wheelSize int64) *schedTables {
	nodes := n.topo.Nodes()
	ports := n.cfg.Router.Ports
	tab := &schedTables{
		outDst:    make([]int32, nodes*ports),
		ports:     ports,
		delay:     n.delayAt,
		wheelSize: wheelSize,
		wheelMask: wheelSize - 1,
	}
	if tab.delay == nil {
		tab.delay = make([]int64, nodes)
		for i := range tab.delay {
			tab.delay[i] = int64(n.cfg.FlitDelay)
		}
	}
	for i := range tab.outDst {
		tab.outDst[i] = -1
	}
	for id := 0; id < nodes; id++ {
		for port := 1; port < ports; port++ {
			if next, _, ok := n.topo.Neighbor(id, port); ok {
				tab.outDst[id*ports+port] = int32(next)
			}
		}
	}
	return tab
}

// scheduler holds the active-set worklists of one node range.
type scheduler struct {
	base  int32 // first node of the range
	count int   // nodes covered
	words int   // ceil(count / 64)

	// scan is the full-scan policy's router list (Config.FullScan; the
	// network's routers, indexed by id), nil under the wake worklists.
	scan []*router.Router

	// The shared link tables (schedTables) the per-push wake path
	// (finishRouter) reads, copied at construction; the slice headers
	// alias the tables' read-only backing arrays.
	outDst    []int32
	delay     []int64
	ports     int
	wheelMask int64

	// active is this cycle's materialized router worklist, ascending by
	// id; carryBits accumulates next cycle's self-sustained routers
	// during the walk (carryCount tracks how many).
	active     []int32
	carryBits  []uint64
	carryCount int

	// wheelBits[due mod wheelSize] holds the routers with an arrival
	// due at cycle `due`; wheelCount counts per slot, wakeCount across
	// slots. A wake issued during cycle t for a link of delay d is due
	// at exactly t+d; every delay is >= 1 and <= wheelSize, so a due
	// slot is never drained before its cycle. Boundary arrivals injected
	// at a shard barrier land at most wheelSize-1 cycles ahead for the
	// same reason, so the absolute-due wakeAt is equally safe.
	wheelBits  [][]uint64
	wheelCount []int
	wakeCount  int
	now        int64 // cycle being stepped (set by buildActive)

	// Source worklist: srcBits/srcCount carry the busy sources;
	// srcActive is the materialized per-cycle list; srcHeap parks idle
	// sources by (next injection cycle, id).
	srcBits   []uint64
	srcCount  int
	srcActive []int32
	srcHeap   []srcWake
}

// srcWake parks one idle source until its next injection cycle.
type srcWake struct {
	at int64
	id int32
}

func wakeLess(a, b srcWake) bool {
	return a.at < b.at || (a.at == b.at && a.id < b.id)
}

// newScheduler builds the scheduler of a freshly wired network over
// the node range [lo, hi). The worklists start empty; reset fills them.
func newScheduler(n *Network, tab *schedTables, lo, hi int32) *scheduler {
	count := int(hi - lo)
	words := (count + 63) / 64
	sc := &scheduler{
		base:       lo,
		count:      count,
		words:      words,
		outDst:     tab.outDst,
		delay:      tab.delay,
		ports:      tab.ports,
		wheelMask:  tab.wheelMask,
		carryBits:  make([]uint64, words),
		wheelBits:  make([][]uint64, tab.wheelSize),
		wheelCount: make([]int, tab.wheelSize),
		srcBits:    make([]uint64, words),
	}
	if n.cfg.FullScan {
		sc.scan = n.routers
	}
	for i := range sc.wheelBits {
		sc.wheelBits[i] = make([]uint64, words)
	}
	return sc
}

// reset empties every worklist and the wake wheel, then seeds the
// source worklist from the (already reset) sources: every source in
// the set is either parked at its first injection cycle or, if its
// injector has no exact schedule (or the full-scan policy is on),
// active from cycle 0.
func (sc *scheduler) reset(n *Network) {
	sc.now, sc.carryCount, sc.wakeCount, sc.srcCount = 0, 0, 0, 0
	sc.active, sc.srcActive, sc.srcHeap = sc.active[:0], sc.srcActive[:0], sc.srcHeap[:0]
	for _, slot := range sc.wheelBits {
		clear(slot)
	}
	clear(sc.wheelCount)
	clear(sc.carryBits)
	clear(sc.srcBits)
	for li := 0; li < sc.count; li++ {
		id := sc.base + int32(li)
		s := n.sources[id]
		if s.adv == nil || sc.scan != nil {
			sc.srcBits[li>>6] |= 1 << (uint(li) & 63)
			sc.srcCount++
			continue
		}
		// The first Tick lands on cycle 0, so consuming k ticks puts
		// the first injection at cycle k-1. A parked-forever answer
		// means the injector never fires (zero rate): the source is
		// never stepped — exactly the full-scan behaviour, where its
		// per-cycle Tick is a no-op.
		if at := s.park(); at >= 0 {
			sc.heapPush(srcWake{at: at, id: id})
		}
	}
}

// owns reports whether node id lies in this scheduler's range.
func (sc *scheduler) owns(id int32) bool {
	return id >= sc.base && id < sc.base+int32(sc.count)
}

// busy reports whether any worklist entry or pending wake exists — the
// per-range quiescence check.
func (sc *scheduler) busy() bool {
	return sc.carryCount > 0 || sc.wakeCount > 0 || sc.srcCount > 0
}

// wakeAt schedules router id (which must be in range) to be stepped at
// the absolute cycle due. Duplicate wakes for the same (router, cycle)
// coalesce. due must be in (sc.now, sc.now+wheelSize] — guaranteed for
// arrival wakes (delay ∈ [1, wheelSize]) and for barrier-transferred
// boundary arrivals (pushed at most wheelSize-1 cycles before their
// due, at or after the receiving shard's current cycle).
func (sc *scheduler) wakeAt(id int32, due int64) {
	si := due & sc.wheelMask
	slot := sc.wheelBits[si]
	li := id - sc.base
	w, b := int(li)>>6, uint64(1)<<(uint(li)&63)
	if slot[w]&b == 0 {
		slot[w] |= b
		sc.wheelCount[si]++
		sc.wakeCount++
	}
}

// wake schedules router id to be stepped at cycle now+d — the arrival
// cycle of a flit pushed this cycle on a link of delay d.
func (sc *scheduler) wake(id int32, d int64) { sc.wakeAt(id, sc.now+d) }

// carry marks router id (owned) self-sustained onto the next cycle.
// Callers run once per listed router, so the bit is always freshly set.
func (sc *scheduler) carry(id int32) {
	li := id - sc.base
	sc.carryBits[li>>6] |= 1 << (uint(li) & 63)
	sc.carryCount++
}

// buildActive assembles this cycle's router worklist: the carried-over
// routers or-merged with the wheel slot due now, walked in ascending
// node order — or, under the full-scan policy, every non-Idle router.
func (sc *scheduler) buildActive(now int64) {
	sc.now = now
	slot := now & sc.wheelMask
	wb := sc.wheelBits[slot]
	sc.active = sc.active[:0]
	if sc.scan != nil {
		clear(sc.carryBits)
		clear(wb)
		for id, r := range sc.scan {
			if !r.Idle() {
				sc.active = append(sc.active, int32(id))
			}
		}
	} else {
		for w := 0; w < sc.words; w++ {
			m := sc.carryBits[w] | wb[w]
			sc.carryBits[w] = 0
			wb[w] = 0
			base := sc.base + int32(w<<6)
			for ; m != 0; m &= m - 1 {
				sc.active = append(sc.active, base+int32(bits.TrailingZeros64(m)))
			}
		}
	}
	sc.carryCount = 0
	sc.wakeCount -= sc.wheelCount[slot]
	sc.wheelCount[slot] = 0
}

// ActiveRouters returns how many routers the last stepped cycle of a
// one-shard network visited (0 on sharded networks, whose shards step
// ahead in windows).
func (n *Network) ActiveRouters() int {
	if len(n.shards) > 1 {
		return 0
	}
	return len(n.shards[0].sc.active)
}

// stepSources steps the sources that can act this cycle — the
// carried-over busy sources plus the parked sources whose injection is
// due now — in node order. A source that goes idle parks at its exact
// next injection cycle; under the full-scan policy none ever parks.
func (sc *scheduler) stepSources(n *Network, now int64) {
	for len(sc.srcHeap) > 0 && sc.srcHeap[0].at <= now {
		w := sc.heapPop()
		if w.at < now {
			// The run loop never skips past the heap minimum, so a
			// stale wake means the scheduler lost an injection cycle.
			panic("network: parked source woke past its injection cycle")
		}
		li := w.id - sc.base
		sc.srcBits[li>>6] |= 1 << (uint(li) & 63)
		sc.srcCount++
	}
	if sc.srcCount == 0 {
		return
	}

	sc.srcActive = sc.srcActive[:0]
	for w := 0; w < sc.words; w++ {
		m := sc.srcBits[w]
		sc.srcBits[w] = 0
		base := sc.base + int32(w<<6)
		for ; m != 0; m &= m - 1 {
			sc.srcActive = append(sc.srcActive, base+int32(bits.TrailingZeros64(m)))
		}
	}
	sc.srcCount = 0

	for _, id := range sc.srcActive {
		s := n.sources[id]
		s.step(now)
		if sc.scan != nil || s.adv == nil || s.queue.Len() > 0 || s.inFlight > 0 {
			li := id - sc.base
			sc.srcBits[li>>6] |= 1 << (uint(li) & 63)
			sc.srcCount++
			continue
		}
		if at := s.park(); at >= 0 {
			sc.heapPush(srcWake{at: at, id: id})
		}
		// Parked forever (zero rate): the source never injects again;
		// leave it off every list.
	}
}

// heapPush / heapPop implement a plain slice min-heap over srcWake
// ordered by (cycle, id) — the id tiebreak makes equal-cycle pops come
// out in node order, which keeps source stepping deterministic.
func (sc *scheduler) heapPush(w srcWake) {
	h := append(sc.srcHeap, w)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !wakeLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	sc.srcHeap = h
}

func (sc *scheduler) heapPop() srcWake {
	h := sc.srcHeap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && wakeLess(h[l], h[min]) {
			min = l
		}
		if r < len(h) && wakeLess(h[r], h[min]) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	sc.srcHeap = h
	return top
}
