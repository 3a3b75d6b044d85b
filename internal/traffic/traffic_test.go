package traffic

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"routersim/internal/rng"
)

func TestUniformExcludesSelfAndCoversAll(t *testing.T) {
	r := rng.New(3)
	u := Uniform{}
	const n = 16
	counts := make([]int, n)
	const draws = 64000
	for i := 0; i < draws; i++ {
		d := u.Dest(5, n, r)
		if d == 5 {
			t.Fatal("uniform pattern returned self")
		}
		if d < 0 || d >= n {
			t.Fatalf("destination %d out of range", d)
		}
		counts[d]++
	}
	want := draws / (n - 1)
	for d, c := range counts {
		if d == 5 {
			continue
		}
		if math.Abs(float64(c-want)) > 0.15*float64(want) {
			t.Errorf("destination %d drawn %d times, want ≈%d", d, c, want)
		}
	}
}

func TestTranspose(t *testing.T) {
	p := Transpose{}
	// node (x,y)=(3,5) = 5*8+3 = 43 -> (5,3) = 3*8+5 = 29
	if d := p.Dest(43, 64, nil); d != 29 {
		t.Fatalf("transpose(43) = %d, want 29", d)
	}
	// On a 16-node network (ring, hypercube, or 4x4 mesh alike) the
	// pattern swaps 2-bit halves: 9 = 0b1001 -> 0b0110 = 6.
	if d := p.Dest(9, 16, nil); d != 6 {
		t.Fatalf("transpose(9) on 16 nodes = %d, want 6", d)
	}
}

func TestBitComplement(t *testing.T) {
	if d := (BitComplement{}).Dest(0, 64, nil); d != 63 {
		t.Fatalf("bit-complement(0) = %d, want 63", d)
	}
	if d := (BitComplement{}).Dest(63, 64, nil); d != 0 {
		t.Fatalf("bit-complement(63) = %d, want 0", d)
	}
}

func TestBitReversal(t *testing.T) {
	// 64 nodes = 6 bits: 0b000001 -> 0b100000 = 32.
	if d := (BitReversal{}).Dest(1, 64, nil); d != 32 {
		t.Fatalf("bit-reversal(1) = %d, want 32", d)
	}
	if d := (BitReversal{}).Dest(0, 64, nil); d != 0 {
		t.Fatalf("bit-reversal(0) = %d, want 0", d)
	}
}

func TestHotspotFraction(t *testing.T) {
	r := rng.New(4)
	h := Hotspot{Node: 7, Frac: 0.3}
	hot := 0
	const draws = 50000
	for i := 0; i < draws; i++ {
		if h.Dest(2, 64, r) == 7 {
			hot++
		}
	}
	frac := float64(hot) / draws
	// Hot traffic = 0.3 plus the uniform share that happens to hit 7.
	wantMin, wantMax := 0.3, 0.32
	if frac < wantMin || frac > wantMax {
		t.Errorf("hotspot fraction %v, want in [%v,%v]", frac, wantMin, wantMax)
	}
}

func TestConstantRateExactness(t *testing.T) {
	// Over many cycles, a constant-rate source must emit exactly
	// floor(rate · cycles) ± 1 packets, deterministically.
	for _, rate := range []float64{0.01, 0.05, 0.125, 0.33, 0.5, 1.0} {
		inj := NewConstantRate(rate, 0)
		const cycles = 10000
		total := 0
		for i := 0; i < cycles; i++ {
			n := inj.Tick()
			if n < 0 || n > 1 {
				t.Fatalf("rate %v: Tick returned %d", rate, n)
			}
			total += n
		}
		want := rate * cycles
		if math.Abs(float64(total)-want) > 1.0 {
			t.Errorf("rate %v: %d packets over %d cycles, want ≈%.0f", rate, total, cycles, want)
		}
	}
}

func TestConstantRateSpacing(t *testing.T) {
	// At rate 0.25 the interarrival time must be exactly 4 cycles.
	inj := NewConstantRate(0.25, 0)
	var gaps []int
	last := -1
	for c := 0; c < 100; c++ {
		if inj.Tick() == 1 {
			if last >= 0 {
				gaps = append(gaps, c-last)
			}
			last = c
		}
	}
	for _, g := range gaps {
		if g != 4 {
			t.Fatalf("interarrival gaps %v, want all 4", gaps)
		}
	}
}

func TestConstantRatePhaseShifts(t *testing.T) {
	a := NewConstantRate(0.2, 0)
	b := NewConstantRate(0.2, 0.99)
	// Different phases must emit on different cycles (decorrelation).
	firstA, firstB := -1, -1
	for c := 0; c < 20; c++ {
		if firstA < 0 && a.Tick() == 1 {
			firstA = c
		}
		if firstB < 0 && b.Tick() == 1 {
			firstB = c
		}
	}
	if firstA == firstB {
		t.Errorf("phases did not shift first emission (both at %d)", firstA)
	}
}

func TestBernoulliRate(t *testing.T) {
	inj := NewBernoulli(0.3, rng.New(5))
	total := 0
	const cycles = 100000
	for i := 0; i < cycles; i++ {
		total += inj.Tick()
	}
	if got := float64(total) / cycles; math.Abs(got-0.3) > 0.01 {
		t.Errorf("bernoulli rate %v, want ≈0.3", got)
	}
}

// TestPermutationPatterns: every deterministic pattern must be a
// bijection over the n nodes — each destination hit exactly once — or
// the pattern would concentrate load the analyses don't model.
func TestPermutationPatterns(t *testing.T) {
	cases := []struct {
		name string
		p    Pattern
		n    int
	}{
		{"transpose 64", Transpose{}, 64},
		{"transpose 16", Transpose{}, 16},
		{"bit-reversal 64", BitReversal{}, 64},
		{"bit-reversal 16", BitReversal{}, 16},
		{"bit-complement 64", BitComplement{}, 64},
		{"bit-complement 16", BitComplement{}, 16},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			hit := make([]bool, c.n)
			for src := 0; src < c.n; src++ {
				d := c.p.Dest(src, c.n, nil)
				if d < 0 || d >= c.n {
					t.Fatalf("Dest(%d) = %d out of range [0,%d)", src, d, c.n)
				}
				if hit[d] {
					t.Fatalf("destination %d hit twice: not a permutation", d)
				}
				hit[d] = true
			}
		})
	}
}

// TestUniformNeverSelf: Uniform.Dest must exclude the source for every
// source node, not just one.
func TestUniformNeverSelf(t *testing.T) {
	r := rng.New(11)
	u := Uniform{}
	for _, n := range []int{2, 3, 16, 64} {
		for src := 0; src < n; src++ {
			for i := 0; i < 50; i++ {
				if d := u.Dest(src, n, r); d == src {
					t.Fatalf("n=%d: uniform returned src %d", n, src)
				}
			}
		}
	}
	// Degenerate single-node network: self is the only option.
	if d := u.Dest(0, 1, r); d != 0 {
		t.Errorf("n=1: Dest = %d, want 0", d)
	}
}

// TestHotspotEmpiricalFraction: the hot node must receive ≈ Frac of
// traffic (plus the uniform share), for several fractions.
func TestHotspotEmpiricalFraction(t *testing.T) {
	const n, draws = 64, 40000
	for _, frac := range []float64{0.05, 0.2, 0.5} {
		r := rng.New(9)
		h := Hotspot{Node: 5, Frac: frac}
		hot := 0
		for i := 0; i < draws; i++ {
			if h.Dest(12, n, r) == 5 {
				hot++
			}
		}
		got := float64(hot) / draws
		// Hot traffic is frac plus (1-frac)/(n-1) uniform spillover.
		want := frac + (1-frac)/float64(n-1)
		if math.Abs(got-want) > 0.015 {
			t.Errorf("frac %v: hot share %.3f, want ≈%.3f", frac, got, want)
		}
	}
}

func TestNewPatternSpecs(t *testing.T) {
	good := []struct {
		spec  string
		nodes int
		want  string
	}{
		{"uniform", 64, "uniform"},
		{"transpose", 64, "transpose"},
		{"transpose", 16, "transpose"}, // 16-node ring or hypercube alike
		{"bit-reversal", 64, "bit-reversal"},
		{"bitrev", 16, "bit-reversal"},
		{"bit-reversal", 32, "bit-reversal"}, // any power of two, square or not
		{"bit-complement", 36, "bit-complement"},
		{"hotspot", 64, "hotspot(0,0.10)"},
		{"hotspot:3:0.25", 64, "hotspot(3,0.25)"},
	}
	for _, c := range good {
		p, err := New(c.spec, c.nodes)
		if err != nil {
			t.Errorf("New(%q, %d): %v", c.spec, c.nodes, err)
			continue
		}
		if p.Name() != c.want {
			t.Errorf("New(%q, %d).Name() = %q, want %q", c.spec, c.nodes, p.Name(), c.want)
		}
	}
	bad := []struct {
		spec  string
		nodes int
	}{
		{"nonsense", 64},
		{"bit-reversal", 36}, // not a power of two
		{"transpose", 36},    // not a power of two
		{"transpose", 32},    // odd bit count: no equal halves to swap
		{"hotspot:99999:0.1", 64},
		{"hotspot:0:1.5", 64},
		{"hotspot:zero:0.1", 64},
		{"hotspot:0", 64},
		{"transpose:4", 64}, // only hotspot takes parameters
		{"uniform:0.5", 64},
	}
	for _, c := range bad {
		if _, err := New(c.spec, c.nodes); err == nil {
			t.Errorf("New(%q, %d) should fail", c.spec, c.nodes)
		}
	}
	// Error messages must name the valid specs.
	_, err := New("nonsense", 64)
	if err == nil || !strings.Contains(err.Error(), "bit-reversal") {
		t.Errorf("unknown-pattern error should list valid specs, got %v", err)
	}
}

func TestPatternNames(t *testing.T) {
	pats := []Pattern{Uniform{}, Transpose{}, BitComplement{}, BitReversal{}, Hotspot{Node: 1, Frac: 0.1}}
	seen := map[string]bool{}
	for _, p := range pats {
		name := p.Name()
		if name == "" || seen[name] {
			t.Errorf("bad or duplicate pattern name %q", name)
		}
		seen[name] = true
	}
}

func TestConstantRateNextInjection(t *testing.T) {
	// NextInjection must be a pure peek that names exactly the Tick that
	// fires next: k-1 zero ticks, then a one — for any rate and phase.
	for _, rate := range []float64{0.001, 0.01, 0.125, 0.33, 0.5, 1.0} {
		for _, phase := range []float64{0, 0.25, 0.9} {
			inj := NewConstantRate(rate, phase)
			for round := 0; round < 20; round++ {
				k := inj.NextInjection()
				if k < 1 {
					t.Fatalf("rate %v phase %v: NextInjection = %d, want >= 1", rate, phase, k)
				}
				for i := int64(1); i < k; i++ {
					if got := inj.Tick(); got != 0 {
						t.Fatalf("rate %v phase %v: tick %d/%d returned %d, want 0", rate, phase, i, k, got)
					}
				}
				if got := inj.Tick(); got != 1 {
					t.Fatalf("rate %v phase %v: tick %d returned %d, want 1", rate, phase, k, got)
				}
			}
		}
	}
	if got := NewConstantRate(0, 0).NextInjection(); got != -1 {
		t.Fatalf("zero-rate NextInjection = %d, want -1", got)
	}
}

// tickToInjection is the oracle for AdvanceToInjection: it calls Tick
// until it fires and returns the number of calls, or -1 — with the
// ticks consumed — once budget calls have passed without an injection.
func tickToInjection(c *ConstantRate, budget int64) int64 {
	for k := int64(1); k <= budget; k++ {
		if c.Tick() != 0 {
			return k
		}
	}
	return -1
}

// checkAdvanceAgainstTick advances two copies of the same injector
// state, one with AdvanceToInjection and one tick by tick, through
// rounds injections and requires the same tick counts and the same
// accumulator bits after each. It stops early, without failing, when
// the oracle needs more than budget ticks for one injection.
func checkAdvanceAgainstTick(t *testing.T, rate, acc float64, rounds int, budget int64) {
	t.Helper()
	adv := &ConstantRate{rate: rate, acc: acc}
	ref := &ConstantRate{rate: rate, acc: acc}
	for round := 0; round < rounds; round++ {
		want := tickToInjection(ref, budget)
		if want < 0 {
			return
		}
		got := adv.AdvanceToInjection()
		if got != want || math.Float64bits(adv.acc) != math.Float64bits(ref.acc) {
			t.Fatalf("rate %v (%#x) acc %v (%#x) round %d: AdvanceToInjection = %d leaving acc %#x, ticking took %d leaving acc %#x",
				rate, math.Float64bits(rate), acc, math.Float64bits(acc), round,
				got, math.Float64bits(adv.acc), want, math.Float64bits(ref.acc))
		}
	}
}

func TestConstantRateAdvanceToInjection(t *testing.T) {
	// The jump must leave the injector exactly where per-cycle ticking
	// does: same tick count and same accumulator bits, injection after
	// injection, on both sides of the strideShift gate.
	for _, rate := range []float64{0.00002, 0.001, 0.00125, 0.01, 0.04, 0.125, 0.33, 0.5, 1.0, 1.5} {
		for _, phase := range []float64{0, 0.4, 0.999} {
			checkAdvanceAgainstTick(t, rate, phase, 8, 1<<20)
		}
	}
	// A rate above 1 injects every tick and lets the accumulator grow
	// past 1, where no tick may be skipped however large acc/rate is.
	checkAdvanceAgainstTick(t, 1.5, 100, 8, 4)
	if got := NewConstantRate(0, 0).AdvanceToInjection(); got != -1 {
		t.Fatalf("zero-rate AdvanceToInjection = %d, want -1", got)
	}
}

func TestConstantRateAdvanceAdversarial(t *testing.T) {
	// Inputs chosen against the binade jump's case analysis, part one:
	// power-of-two and few-bit rates (every add is exact until the
	// accumulator's ulp outgrows the rate's lowest bit) from
	// accumulators at zero, in the subnormals and one ulp below a
	// binade edge, which exercise the fall-through to real adds and the
	// edge crossing.
	below := func(x float64) float64 { return math.Nextafter(x, 0) }
	accs := []float64{
		0, 5e-324, 1e-310, // zero and subnormals
		0.25, below(0.25), below(below(0.25)), // binade edge, odd and even mantissas below it
		0.5, below(0.5), 0.5 + 0x1p-53, 0.5 + 0x1p-52, // lowest mantissas of the top binade
		below(1), below(below(1)), 0.75, 0.3, 1.0 / 3,
	}
	var rates []float64
	for e := 1; e <= 30; e++ {
		p := math.Ldexp(1, -e)
		rates = append(rates, p) // one mantissa bit
		if e <= 16 {
			rates = append(rates, 1.5*p, 1.25*p, 1.75*p) // two and three mantissa bits
		}
	}
	for _, rate := range rates {
		if testing.Short() && rate < 0x1p-16 {
			continue
		}
		// Accumulators a few hundred ticks short of 1 keep the oracle
		// cheap at any rate; the full list needs ~1/rate ticks each, so
		// it stops at 2^-22.
		near := 1 - 300*rate
		try := []float64{near, below(near), below(below(near)), below(1)}
		if rate >= 0x1p-22 {
			try = append(try, accs...)
		}
		for _, acc := range try {
			checkAdvanceAgainstTick(t, rate, acc, 5, 1<<23)
		}
	}
	// Part two, exact ties: the rate's lowest set bit is half the
	// accumulator's ulp, so every add is decided by round-half-even and
	// the first one by the parity of the starting mantissa. That takes
	// a rate ~2^-53 of the accumulator, which ticking can only follow
	// to an injection from a few ulps below 1 (u = 2^-53 there). The
	// non-tie neighbours pin the round-down and round-up branches at
	// the same scale.
	const u = 0x1p-53
	for _, ulps := range []float64{1.5, 2.5, 3.5, 4.5, 7.5, 1, 2, 3, 1.25, 1.75, 2.25, 2.75} {
		// The rate's own neighbours miss the tie by its last bit.
		for _, rate := range []float64{ulps * u, math.Nextafter(ulps*u, 1), math.Nextafter(ulps*u, 0)} {
			for m := 1; m <= 64; m++ {
				checkAdvanceAgainstTick(t, rate, 1-float64(m)*u, 1, 128)
			}
		}
	}
	// A rate of exactly half an ulp: an odd mantissa moves once, to the
	// even neighbour, and then stalls; an even one stalls at once.
	for _, tc := range []struct{ acc, after float64 }{
		{0.5 + 0x1p-53, 0.5 + 0x1p-52},
		{0.5 + 0x1p-52, 0.5 + 0x1p-52},
	} {
		inj := &ConstantRate{rate: 0x1p-54, acc: tc.acc}
		if got := inj.AdvanceToInjection(); got != -1 {
			t.Fatalf("tie stall from %#x: AdvanceToInjection = %d, want -1", math.Float64bits(tc.acc), got)
		}
		if inj.acc != tc.after {
			t.Fatalf("tie stall from %#x: acc = %#x, want %#x", math.Float64bits(tc.acc), math.Float64bits(inj.acc), math.Float64bits(tc.after))
		}
	}
}

func TestConstantRateAdvanceRandom(t *testing.T) {
	// Seeded random sweep over the range simulations use: rates
	// log-uniform in [2^-17, 1) with full 52-bit mantissas or, every
	// other draw, only the top 4 mantissa bits; accumulators uniform in
	// [0, 1).
	pairs := 4000
	if testing.Short() {
		pairs = 400
	}
	r := rng.New(12)
	for i := 0; i < pairs; i++ {
		rate := math.Ldexp(1+r.Float64(), -1-r.Intn(17))
		if i%2 == 1 {
			rate = math.Float64frombits(math.Float64bits(rate) &^ (1<<48 - 1))
		}
		checkAdvanceAgainstTick(t, rate, r.Float64(), 5, 1<<20)
	}
}

func TestNewConstantRateRejectsBadRate(t *testing.T) {
	for _, rate := range []float64{-0.1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewConstantRate(%v) did not panic", rate)
				}
			}()
			NewConstantRate(rate, 0)
		}()
	}
}

// FuzzConstantRateAdvance: for any rate and accumulator bit patterns
// the injector can hold, the jump agrees with ticking — in tick count
// and accumulator bits — whenever ticking reaches the injection within
// the budget, and always terminates.
func FuzzConstantRateAdvance(f *testing.F) {
	for _, seed := range [][2]float64{
		{0.00002, 0}, {0.00125, 0.7}, {0.04, 0.039}, {0.5, 0.25}, {1, 0}, {1.5, 100},
		{0x1p-20, 0.5 + 0x1p-53}, {0x1.8p-12, 0x1.fffffffffffffp-2}, {5e-324, 0}, {1e-310, 1e-320},
		{1e-18, 0.5},
	} {
		f.Add(math.Float64bits(seed[0]), math.Float64bits(seed[1]))
	}
	f.Fuzz(func(t *testing.T, rateBits, accBits uint64) {
		rate, acc := math.Float64frombits(rateBits), math.Float64frombits(accBits)
		if !(rate > 0) || math.IsInf(rate, 0) || !(acc >= 0) || math.IsInf(acc, 0) {
			t.Skip() // NewConstantRate and Tick never produce these
		}
		checkAdvanceAgainstTick(t, rate, acc, 3, 1<<16)
		// Past the oracle's budget the jump must still return.
		(&ConstantRate{rate: rate, acc: acc}).AdvanceToInjection()
	})
}

// advanceSink keeps the benchmarked call from being optimized away.
var advanceSink int64

// BenchmarkConstantRateAdvance measures one AdvanceToInjection call —
// one parked source's idle gap — at both ends of the rate range: 0.5
// and 0.04 stay in the plain add loop, 0.005 and 0.00002 take the
// binade jump.
func BenchmarkConstantRateAdvance(b *testing.B) {
	for _, rate := range []float64{0.5, 0.04, 0.005, 0.00002} {
		b.Run(strconv.FormatFloat(rate, 'f', -1, 64), func(b *testing.B) {
			inj := NewConstantRate(rate, 0.4)
			for i := 0; i < b.N; i++ {
				advanceSink += inj.AdvanceToInjection()
			}
		})
	}
}

func TestConstantRateStalledAccumulator(t *testing.T) {
	// A rate below the accumulator's float resolution makes every
	// further Tick a no-op; the peek and the advance must both report
	// "never" instead of spinning forever.
	inj := NewConstantRate(1e-18, 0.5)
	if got := inj.NextInjection(); got != -1 {
		t.Fatalf("stalled NextInjection = %d, want -1", got)
	}
	if got := inj.AdvanceToInjection(); got != -1 {
		t.Fatalf("stalled AdvanceToInjection = %d, want -1", got)
	}
	// A stall reached only after progress: rate = 2^-60 advances a
	// small accumulator until ulp(acc)/2 passes the rate, at acc = 2^-7
	// after about 2^53 ticks. Ticking cannot follow that, but the jump
	// gets there in a few dozen steps and must report "never" with the
	// accumulator at the stall point, where one more Tick is a no-op.
	inj = &ConstantRate{rate: 0x1p-60, acc: 0x1p-40}
	if got := inj.AdvanceToInjection(); got != -1 {
		t.Fatalf("AdvanceToInjection = %d, want -1 (stalled)", got)
	}
	if inj.acc != 0x1p-7 {
		t.Fatalf("stalled at acc = %v (%#x), want 2^-7", inj.acc, math.Float64bits(inj.acc))
	}
	if before := inj.acc; inj.Tick() != 0 || inj.acc != before {
		t.Fatalf("Tick moved a stalled accumulator: %#x -> %#x", math.Float64bits(before), math.Float64bits(inj.acc))
	}
}
