package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

func TestRunCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		const n = 100
		var counts [n]atomic.Int32
		Run(n, workers, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestRunZeroJobs(t *testing.T) {
	called := false
	Run(0, 4, func(i int) { called = true })
	if called {
		t.Error("fn called with n=0")
	}
}

func TestGangCoversEveryIndexOncePerPhase(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		g := NewGang(workers)
		const n, phases = 37, 50
		var counts [n]atomic.Int32
		for ph := 0; ph < phases; ph++ {
			g.Run(n, func(i int) { counts[i].Add(1) })
		}
		g.Close()
		for i := range counts {
			if c := counts[i].Load(); c != phases {
				t.Fatalf("workers=%d: index %d ran %d times over %d phases", workers, i, c, phases)
			}
		}
	}
}

func TestGangPhaseIsBarrier(t *testing.T) {
	// Everything written in phase k must be visible to phase k+1.
	g := NewGang(4)
	defer g.Close()
	const n = 64
	vals := make([]int, n)
	out := make([]int, n)
	g.Run(n, func(i int) { vals[i] = i * i })
	g.Run(n, func(i int) { out[i] = vals[i] + vals[(i+1)%n] })
	for i := 0; i < n; i++ {
		want := i*i + ((i+1)%n)*((i+1)%n)
		if out[i] != want {
			t.Fatalf("index %d = %d after two phases, want %d", i, out[i], want)
		}
	}
}

func TestGangZeroJobs(t *testing.T) {
	g := NewGang(2)
	defer g.Close()
	called := false
	g.Run(0, func(i int) { called = true })
	if called {
		t.Error("fn called with n=0")
	}
}

func TestRunBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int32
	Run(64, workers, func(i int) {
		if cur := inFlight.Add(1); cur > peak.Load() {
			peak.Store(cur)
		}
		for j := 0; j < 1000; j++ {
			_ = j * j
		}
		inFlight.Add(-1)
	})
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent jobs, limit %d", p, workers)
	}
}

// runPhases runs phases phases of n indices on g and checks that every
// index ran exactly once per phase.
func runPhases(t *testing.T, g *Gang, n, phases int, between func()) {
	t.Helper()
	counts := make([]atomic.Int32, n)
	for ph := 0; ph < phases; ph++ {
		between()
		g.Run(n, func(i int) { counts[i].Add(1) })
	}
	for i := range counts {
		if c := counts[i].Load(); c != int32(phases) {
			t.Fatalf("index %d ran %d times over %d phases", i, c, phases)
		}
	}
}

// waitAsleep waits until every helper of g has parked, past its spin
// budget.
func waitAsleep(t *testing.T, g *Gang) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for i := range g.helpers {
		for !g.helpers[i].asleep.Load() {
			if time.Now().After(deadline) {
				t.Fatalf("helper %d still spinning after 5 s", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// waitGoroutines waits until the goroutine count is back to baseline.
func waitGoroutines(t *testing.T, baseline int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("%s: %d goroutines after Close, baseline %d", what, n, baseline)
	}
}

// TestGangParkAndWake: helpers that parked between phases, past their
// spin budget, are woken by the next Run, and every index still runs
// once per phase.
func TestGangParkAndWake(t *testing.T) {
	g := NewGang(3)
	defer g.Close()
	runPhases(t, g, 17, 20, func() { waitAsleep(t, g) })
}

// TestGangLargerThanGOMAXPROCS: a gang with more parties than Ps does
// not spin (a spinning party would hold the P the one it waits for
// needs), and still runs every index once per phase.
func TestGangLargerThanGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g := NewGang(4)
	defer g.Close()
	if g.spin() != 0 {
		t.Errorf("a gang of 4 on 1 P spins %d polls, want 0", g.spin())
	}
	runPhases(t, g, 9, 200, func() {})
}

// TestGangCloseReleasesHelpers: Close ends every helper, whether it is
// parked or still spinning after a phase.
func TestGangCloseReleasesHelpers(t *testing.T) {
	// Two Ps at least, so a gang of 2 spins.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	noop := func(int) {}

	baseline := runtime.NumGoroutine()
	g := NewGang(4)
	g.Run(8, noop)
	waitAsleep(t, g)
	g.Close()
	waitGoroutines(t, baseline, "parked helpers")

	baseline = runtime.NumGoroutine()
	g = NewGang(2)
	if g.spin() == 0 {
		t.Fatal("a gang of 2 on 2 Ps does not spin")
	}
	g.Run(8, noop)
	g.Close()
	waitGoroutines(t, baseline, "spinning helpers")
}

// TestGangsSideBySide: gangs run phases from several goroutines at once,
// more parties than Ps, so every party spins, parks and wakes in turn;
// no Run returns before each of its indices has run exactly once.
func TestGangsSideBySide(t *testing.T) {
	var wg sync.WaitGroup
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := NewGang(2 + k%3)
			defer g.Close()
			counts := make([]atomic.Int32, 2*g.Workers()-1)
			for ph := int32(1); ph <= 2000; ph++ {
				g.Run(len(counts), func(i int) { counts[i].Add(1) })
				for i := range counts {
					if c := counts[i].Load(); c != ph {
						t.Errorf("gang of %d, phase %d: index %d ran %d times when Run returned", g.Workers(), ph, i, c)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestGangRunAllocatesNothing: a phase is published through the gang's
// own fields, so dispatching one allocates nothing.
func TestGangRunAllocatesNothing(t *testing.T) {
	g := NewGang(2)
	defer g.Close()
	var sum [2]atomic.Int64
	fn := func(i int) { sum[i].Add(1) }
	if allocs := testing.AllocsPerRun(1000, func() { g.Run(2, fn) }); allocs != 0 {
		t.Errorf("Gang.Run allocates %.2f times per phase, want 0", allocs)
	}
}

// TestGangCountersOwnTheirLines: the epoch the helpers poll, the
// pending count the caller polls and the claim counter every party
// writes sit on separate 64-byte lines.
func TestGangCountersOwnTheirLines(t *testing.T) {
	var g Gang
	offs := []uintptr{unsafe.Offsetof(g.epoch), unsafe.Offsetof(g.pending), unsafe.Offsetof(g.next), unsafe.Offsetof(g.workers)}
	for i := 1; i < len(offs); i++ {
		if offs[i]-offs[i-1] < 64 {
			t.Errorf("gang fields at offsets %d and %d share a 64-byte line", offs[i-1], offs[i])
		}
	}
	if sz := unsafe.Sizeof(g); sz%64 != 0 {
		t.Errorf("Gang is %d bytes, not a multiple of 64", sz)
	}
	if sz := unsafe.Sizeof(gangHelper{}); sz != 64 {
		t.Errorf("gangHelper is %d bytes, want 64", sz)
	}
}

// gangWork is a phase index's result slot, a cache line of its own.
type gangWork struct {
	x uint64
	_ [56]byte
}

var gangOut [2]gangWork

// work10us is about 10 µs of arithmetic on a 2020s server core.
func work10us(i int) {
	x := uint64(i) + 1
	for j := 0; j < 4000; j++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	gangOut[i].x = x
}

// BenchmarkGangRound is one phase of two indices of about 10 µs each on
// a gang of 2: ns/op less BenchmarkGangRoundWork's is the barrier's cost
// per round, β in PERF.md's speedup model.
func BenchmarkGangRound(b *testing.B) {
	g := NewGang(2)
	defer g.Close()
	for i := 0; i < b.N; i++ {
		g.Run(2, work10us)
	}
}

// BenchmarkGangRoundWork is one index's work alone, on one goroutine.
func BenchmarkGangRoundWork(b *testing.B) {
	for i := 0; i < b.N; i++ {
		work10us(0)
	}
}
