// Package pool provides a bounded worker pool for running n independent
// jobs indexed 0..n-1. Jobs write their results into caller-owned slices
// by index, so the output is deterministic regardless of the worker
// count or goroutine scheduling.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Run invokes fn(i) once for every i in [0, n), using at most workers
// concurrent goroutines (workers <= 0 means GOMAXPROCS). It returns when
// every invocation has finished. fn must be safe to call concurrently
// for distinct indices.
func Run(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Gang runs many small parallel phases on a fixed set of parties — the
// barrier under the network's sharded engine, which dispatches one
// phase per round, and under its parallel stepper, two per simulated
// cycle. A gang of w is the goroutine that calls Run plus w−1 helpers
// started by NewGang. Indices are claimed from a shared atomic counter
// in runs of consecutive indices, so which party runs which index is
// scheduling-dependent; callers must make fn(i) write only state owned
// by index i, which is exactly the discipline that keeps the engines
// deterministic.
//
// A phase costs a few cache-line transfers, not goroutine hand-offs.
// Run publishes the phase by bumping an epoch, claims indices itself
// alongside the helpers, and then waits for every helper to check out.
// Between phases a helper polls the epoch for a bounded budget (with a
// runtime.Gosched now and then), and only then parks on its own wake
// channel; Run wakes just the helpers that parked. The caller waits for
// the helpers the same way: it spins, then parks until the last helper
// to check out wakes it. Parties spin only while the parties of every
// open gang fit on the Ps (GOMAXPROCS at NewGang). Past that — a gang
// larger than GOMAXPROCS, or two sharded jobs of a sweep side by side —
// the party one waits for may have no P, and spinning would only delay
// it, so they park at once.
type Gang struct {
	// epoch counts published phases (and Close). Spinning helpers poll
	// it, so it has a line of its own.
	epoch atomic.Uint64
	_     [56]byte
	// pending counts the helpers that have not checked out of the
	// current phase, plus callerParked once the caller has parked on
	// callerWake; the caller polls it.
	pending atomic.Int64
	_       [56]byte
	// next is the index-claim counter every party writes.
	next atomic.Int64
	_    [56]byte

	workers int
	procs   int64 // GOMAXPROCS at NewGang
	// n and fn are the current phase, written by Run before it bumps
	// epoch and read by helpers after they see the bump.
	n       int
	fn      func(i int)
	helpers []gangHelper
	closed  atomic.Bool
	// callerWake carries the one wake-up a parked caller is owed, sent
	// by the helper whose check-out leaves pending at callerParked.
	callerWake chan struct{}
	_          [56]byte
}

// callerParked is the flag the caller adds to pending when it parks.
// It shares the word with the count so that the check-out that ends
// the phase, and only that one, sees it, in the same atomic step: a
// separate flag, read after the decrement, can be read a phase late and
// wake the caller out of the next phase early.
const callerParked = 1 << 32

// gangHelper is one helper's parking slot, a cache line of its own.
type gangHelper struct {
	// asleep is set while the helper is parked (or about to park) on
	// wake. Whoever clears it with a compare-and-swap owes the helper
	// one send on wake, which therefore never blocks (capacity 1).
	asleep atomic.Bool
	wake   chan struct{}
	_      [48]byte
}

// gangSpin is the number of epoch (or pending) polls a party makes
// before it parks, with a runtime.Gosched every gangYieldEvery polls;
// 1<<14 polls take about 80 µs on a 2-vCPU Xeon guest. A round of the
// sharded engine on a busy mesh is tens of microseconds, and the serial
// work between two rounds (boundary exchange, replay, the run loop) a
// few, so the budget covers either wait several times over, and an idle
// gang burns well under a millisecond before it parks.
const (
	gangSpin       = 1 << 14
	gangYieldEvery = 64
)

// parties counts the parties, callers and helpers, of every open gang.
var parties atomic.Int64

// spin returns the number of polls a party of g makes before it parks:
// gangSpin, or 0 while the open gangs' parties outnumber the Ps, because
// then the party it waits for may have no P, and spinning only delays it.
func (g *Gang) spin() int {
	if parties.Load() > g.procs {
		return 0
	}
	return gangSpin
}

// yieldSometimes gives the P away on every gangYieldEvery-th poll of a
// spin, so a spinning party delays any other goroutine by little.
func yieldSometimes(polls int) {
	if polls%gangYieldEvery == gangYieldEvery-1 {
		runtime.Gosched()
	}
}

// NewGang starts a gang of the given size (<= 0 means GOMAXPROCS): the
// caller of Run plus workers−1 helper goroutines. Close must be called
// to release the helpers.
func NewGang(workers int) *Gang {
	procs := runtime.GOMAXPROCS(0)
	if workers <= 0 {
		workers = procs
	}
	g := &Gang{workers: workers, procs: int64(procs), callerWake: make(chan struct{}, 1)}
	parties.Add(int64(workers))
	g.helpers = make([]gangHelper, workers-1)
	for i := range g.helpers {
		h := &g.helpers[i]
		h.wake = make(chan struct{}, 1)
		go g.help(h)
	}
	return g
}

// Workers returns the gang size, the caller of Run included.
func (g *Gang) Workers() int { return g.workers }

// Run invokes fn(i) once for every i in [0, n) on the calling goroutine
// and the gang's helpers, and returns when all invocations have
// finished. It must not be called concurrently with itself.
func (g *Gang) Run(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if len(g.helpers) == 0 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	g.n, g.fn = n, fn
	g.next.Store(0)
	g.pending.Store(int64(len(g.helpers)))
	g.epoch.Add(1)
	g.wakeSleepers()
	g.work()
	spin := g.spin()
	for polls := 0; ; polls++ {
		p := g.pending.Load()
		if p == 0 {
			break
		}
		if polls < spin {
			yieldSometimes(polls)
			continue
		}
		if g.pending.CompareAndSwap(p, p|callerParked) {
			<-g.callerWake
			break
		}
	}
	g.fn = nil
}

// work claims and runs indices of the current phase until none is left.
// A claim takes a run of about n/(4·workers) consecutive indices, so
// each party works through neighbours (the parallel stepper's routers,
// whose state shares cache lines) rather than interleaving with another
// party index by index, while four runs a party leave room to balance
// indices of uneven cost.
func (g *Gang) work() {
	run := max(1, g.n/(4*g.workers))
	for {
		hi := int(g.next.Add(int64(run)))
		if hi-run >= g.n {
			return
		}
		for i := hi - run; i < min(hi, g.n); i++ {
			g.fn(i)
		}
	}
}

// wakeSleepers sends the one owed wake-up to every parked helper.
func (g *Gang) wakeSleepers() {
	for i := range g.helpers {
		if h := &g.helpers[i]; h.asleep.Load() && h.asleep.CompareAndSwap(true, false) {
			h.wake <- struct{}{}
		}
	}
}

// help is a helper's loop: wait for the next epoch, spinning and then
// parked, run the phase's indices, check out.
func (g *Gang) help(h *gangHelper) {
	var seen uint64 // the epoch at NewGang; Run may bump it before this runs
	for {
		spin := g.spin()
		for polls := 0; g.epoch.Load() == seen; polls++ {
			if polls < spin {
				yieldSometimes(polls)
				continue
			}
			// Set asleep, then re-check the epoch: Run bumps the epoch,
			// then reads asleep, so one of the two sees the other.
			h.asleep.Store(true)
			if g.epoch.Load() != seen && h.asleep.CompareAndSwap(true, false) {
				break
			}
			<-h.wake
		}
		seen = g.epoch.Load()
		if g.closed.Load() {
			return
		}
		g.work()
		if g.pending.Add(-1) == callerParked {
			g.callerWake <- struct{}{}
		}
	}
}

// Close terminates the gang's helpers, spinning or parked. The gang must
// not be used after.
func (g *Gang) Close() {
	if !g.closed.CompareAndSwap(false, true) {
		return
	}
	parties.Add(-int64(g.workers))
	g.epoch.Add(1)
	g.wakeSleepers()
}
