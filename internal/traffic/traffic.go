// Package traffic generates the workloads of the paper's evaluation:
// uniformly distributed traffic to random destinations injected by
// constant-rate sources (Section 5), plus the standard synthetic
// patterns (transpose, bit-complement, bit-reversal, hotspot) as
// extensions for sensitivity studies.
package traffic

import (
	"fmt"
	"math"
	"math/bits"

	"routersim/internal/rng"
)

// Pattern chooses a destination for each generated packet.
type Pattern interface {
	// Dest returns the destination node for a packet created at src in
	// a network of n nodes. Implementations must return a value in
	// [0, n) different from src when possible.
	Dest(src, n int, r *rng.RNG) int
	// Name identifies the pattern in reports.
	Name() string
}

// Uniform sends each packet to a destination drawn uniformly from all
// other nodes — the paper's workload, chosen because flow control is
// relatively invariant to traffic pattern (footnote 13).
type Uniform struct{}

// Name implements Pattern.
func (Uniform) Name() string { return "uniform" }

// Dest implements Pattern.
func (Uniform) Dest(src, n int, r *rng.RNG) int {
	if n < 2 {
		return src
	}
	d := r.Intn(n - 1)
	if d >= src {
		d++
	}
	return d
}

// Transpose swaps the two halves of the node index's bits — on a k×k
// network with power-of-two k this is the matrix transpose
// (x, y) → (y, x). It is defined for any node count that is an even
// power of two (so the index splits into two equal halves), which lets
// the same pattern run on meshes, tori, rings, and hypercubes alike.
type Transpose struct{}

// Name implements Pattern.
func (Transpose) Name() string { return "transpose" }

// Dest implements Pattern.
func (Transpose) Dest(src, n int, r *rng.RNG) int {
	half := (bits.Len(uint(n)) - 1) / 2
	lo := src & ((1 << half) - 1)
	return lo<<half | src>>half
}

// BitComplement sends node i to node (n-1)-i.
type BitComplement struct{}

// Name implements Pattern.
func (BitComplement) Name() string { return "bit-complement" }

// Dest implements Pattern.
func (BitComplement) Dest(src, n int, r *rng.RNG) int { return n - 1 - src }

// BitReversal sends node i to the bit-reversal of i (n must be a power
// of two).
type BitReversal struct{}

// Name implements Pattern.
func (BitReversal) Name() string { return "bit-reversal" }

// Dest implements Pattern.
func (BitReversal) Dest(src, n int, r *rng.RNG) int {
	width := bits.Len(uint(n)) - 1
	return int(bits.Reverse(uint(src)) >> (bits.UintSize - width))
}

// Hotspot sends a fraction of traffic to one hot node and the rest
// uniformly.
type Hotspot struct {
	Node int
	// Frac is the probability a packet targets Node.
	Frac float64
}

// Name implements Pattern.
func (h Hotspot) Name() string { return fmt.Sprintf("hotspot(%d,%.2f)", h.Node, h.Frac) }

// Dest implements Pattern.
func (h Hotspot) Dest(src, n int, r *rng.RNG) int {
	if src != h.Node && r.Float64() < h.Frac {
		return h.Node
	}
	return Uniform{}.Dest(src, n, r)
}

// Injector decides how many packets a source creates each cycle.
type Injector interface {
	// Tick advances one cycle and returns the number of packets to
	// create (0 or 1 for the paper's processes).
	Tick() int
}

// ConstantRate is the paper's "constant rate source": a deterministic
// token-accumulator process generating a packet every 1/rate cycles. A
// random initial phase decorrelates the sources so all nodes do not
// inject on the same cycle.
type ConstantRate struct {
	rate float64
	acc  float64
}

// NewConstantRate returns a constant-rate injector at rate packets per
// cycle with initial phase in [0, 1) (fraction of the interarrival
// interval already elapsed). A negative or non-finite rate is a caller
// bug (network.Config.Normalize rejects both) and panics.
func NewConstantRate(rate, phase float64) *ConstantRate {
	c := new(ConstantRate)
	c.Init(rate, phase)
	return c
}

// Init makes c, in place, the injector NewConstantRate(rate, phase)
// returns.
func (c *ConstantRate) Init(rate, phase float64) {
	if !(rate >= 0) || math.IsInf(rate, 0) {
		panic(fmt.Sprintf("traffic: injection rate %v is negative or not finite", rate))
	}
	if phase < 0 || phase >= 1 {
		phase = 0
	}
	*c = ConstantRate{rate: rate, acc: phase}
}

// Tick implements Injector.
func (c *ConstantRate) Tick() int {
	c.acc += c.rate
	if c.acc >= 1 {
		c.acc--
		return 1
	}
	return 0
}

// NextInjection returns the number of future Tick calls until Tick next
// returns nonzero (>= 1), or -1 if it never will (zero rate, or an
// accumulator stalled below 1). It does not advance the injector: it
// runs AdvanceToInjection on a copy.
func (c *ConstantRate) NextInjection() int64 {
	peek := *c
	return peek.AdvanceToInjection()
}

// strideShift gates skipBinade: it runs once acc >= rate<<strideShift,
// where a binade holds 2^(strideShift-1) ticks or more. Below that the
// per-tick adds are cheaper than one jump (measured: 5 beats 4 and 6
// at rates 0.04 and 0.005), so rates above 2^-strideShift never leave
// the plain add-compare loop.
const strideShift = 5

// AdvanceToInjection runs Tick until it returns nonzero and reports the
// number of ticks consumed (>= 1; the last one is the injection), or -1
// if the injector can never fire: zero rate, or an accumulator stalled
// below 1 because rate < ulp(acc)/2 (the ticks up to the stall stay
// consumed; a permanently parked source's state is never observed
// again). The accumulator ends with exactly the bits per-cycle ticking
// leaves, so a caller that parks the source and wakes it after that
// many cycles observes a bit-identical injection schedule. This is what
// lets the network's active-set scheduler skip idle constant-rate
// sources entirely.
//
// The cost is O(binades between rate and 1), not O(1/rate): skipBinade
// applies all the ticks that stay inside acc's binade at once, and only
// the add that crosses each binade edge, and the injecting one, are
// executed for real, with the hardware's own rounding.
func (c *ConstantRate) AdvanceToInjection() int64 {
	if c.rate <= 0 {
		return -1
	}
	acc, rate := c.acc, c.rate
	jumpAt := rate * (1 << strideShift)
	var k int64
	for {
		if acc >= jumpAt && acc < 1 {
			var n int64
			acc, n = skipBinade(acc, rate)
			k += n
		}
		next := acc + rate
		if next == acc {
			c.acc = acc
			return -1
		}
		acc = next
		k++
		if acc >= 1 {
			c.acc = acc - 1
			return k
		}
	}
}

// skipBinade applies to acc every Tick addition that provably stays
// inside acc's binade and returns the new accumulator and the number of
// ticks applied (possibly 0). It requires 0 < rate <= acc < 1.
//
// Inside a binade every float64 is a multiple of u = ulp(acc). With
// acc = M*u and rate = q*u + r (0 <= r < u), round-to-nearest-even
// makes fl(acc+rate) = (M+d)*u with the same d for every M, as long as
// the sum stays below the binade's top: d = q when r < u/2, q+1 when
// r > u/2, and on an exact tie whichever of the two is even, once M is
// even (a tie step always leaves M even, so an odd M is left to one
// real add). A float64's bit pattern is linear in M within a binade, so
// n such ticks are one integer add of n*d to the bits, with nothing to
// round.
func skipBinade(acc, rate float64) (float64, int64) {
	const mant = 1<<52 - 1
	ab, rb := math.Float64bits(acc), math.Float64bits(rate)
	rm := rb & mant
	if rb > mant {
		rm |= 1 << 52 // normal: restore the implicit leading bit
	}
	// s = log2(ulp(acc)/ulp(rate)) >= 0; subnormals have exponent
	// field 0 but the ulp of field 1.
	s := max(ab>>52, 1) - max(rb>>52, 1)
	if s > 53 {
		return acc, 0 // rate < u/2: stalled, which the caller's real add detects
	}
	d := rm >> s
	switch r2, u := rm&(1<<s-1)<<1, uint64(1)<<s; {
	case r2 > u:
		d++
	case r2 == u:
		if ab&1 != 0 {
			return acc, 0
		}
		d += d & 1
	}
	if d == 0 {
		return acc, 0
	}
	n := (mant - ab&mant) / d
	return math.Float64frombits(ab + n*d), int64(n)
}

// Bernoulli injects a packet each cycle with independent probability p.
type Bernoulli struct {
	p float64
	r *rng.RNG
}

// NewBernoulli returns a Bernoulli injection process.
func NewBernoulli(p float64, r *rng.RNG) *Bernoulli {
	return &Bernoulli{p: p, r: r}
}

// Tick implements Injector.
func (b *Bernoulli) Tick() int {
	if b.r.Float64() < b.p {
		return 1
	}
	return 0
}
