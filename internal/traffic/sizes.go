package traffic

import (
	"fmt"

	"routersim/internal/rng"
)

// Sizer draws per-packet sizes (in flits) for a flow. A nil Sizer means
// every packet uses the network's fixed global packet size; a non-nil
// one is sampled once per generated packet, from the source's own RNG
// stream, right after the destination draw.
type Sizer interface {
	// Sample returns the next packet's size in flits (>= 1).
	Sample(r *rng.RNG) int
	// Mean returns the distribution's mean size in flits — the value
	// the measurement layer uses to convert packet rates to flit loads.
	Mean() float64
	// Name identifies the distribution in reports.
	Name() string
}

// MaxPacketSize bounds a packet's length in flits. A source holds the
// flits of the packet it is injecting (24 bytes each) and numbers them
// with an int32 Flit.Seq; 4,096 keeps both small.
const MaxPacketSize = 1 << 12

// FixedSize is the degenerate distribution: every packet is N flits.
// Sample draws nothing, so "fixed:N" is schedule-identical to the plain
// global packet size.
type FixedSize struct{ N int }

// Sample implements Sizer.
func (f FixedSize) Sample(r *rng.RNG) int { return f.N }

// Mean implements Sizer.
func (f FixedSize) Mean() float64 { return float64(f.N) }

// Name implements Sizer.
func (f FixedSize) Name() string { return fmt.Sprintf("fixed:%d", f.N) }

// UniformSize draws sizes uniformly from [Min, Max] flits.
type UniformSize struct{ Min, Max int }

// Sample implements Sizer.
func (u UniformSize) Sample(r *rng.RNG) int { return u.Min + r.Intn(u.Max-u.Min+1) }

// Mean implements Sizer.
func (u UniformSize) Mean() float64 { return float64(u.Min+u.Max) / 2 }

// Name implements Sizer.
func (u UniformSize) Name() string { return fmt.Sprintf("uniform:min=%d,max=%d", u.Min, u.Max) }

// BimodalSize is the classic NoC workload mix: short control packets
// (Small flits) with probability 1-P, long data packets (Large flits)
// with probability P.
type BimodalSize struct {
	Small, Large int
	P            float64 // probability of a Large packet
}

// Sample implements Sizer.
func (b BimodalSize) Sample(r *rng.RNG) int {
	if r.Float64() < b.P {
		return b.Large
	}
	return b.Small
}

// Mean implements Sizer.
func (b BimodalSize) Mean() float64 {
	return float64(b.Small)*(1-b.P) + float64(b.Large)*b.P
}

// Name implements Sizer.
func (b BimodalSize) Name() string {
	return fmt.Sprintf("bimodal:small=%d,large=%d,p=%v", b.Small, b.Large, b.P)
}

// validSizeSpecs renders the accepted size-spec forms for error
// messages.
func validSizeSpecs() string {
	return "fixed:N, uniform:min=A,max=B, bimodal:small=S,large=L,p=P"
}

// checkLargest refuses a distribution whose largest size exceeds
// MaxPacketSize.
func checkLargest(s Sizer, largest int) (Sizer, error) {
	if largest > MaxPacketSize {
		return nil, fmt.Errorf("traffic: sizes: %s has packets of %d flits; at most %d", s.Name(), largest, MaxPacketSize)
	}
	return s, nil
}

// ParseSizes resolves a packet-size distribution spec:
//
//	""                              no distribution (fixed global packet size)
//	fixed:N                         every packet N flits
//	uniform:min=A,max=B             uniform over [A, B] flits
//	bimodal:small=S,large=L,p=P     S flits with prob 1-P, L flits with prob P
//
// An empty spec returns a nil Sizer. Unknown names, malformed or
// missing parameters, sizes < 1 flit and sizes > MaxPacketSize are
// errors.
func ParseSizes(spec string) (Sizer, error) {
	if spec == "" {
		return nil, nil
	}
	name, args, _ := cutSpec(spec)
	switch name {
	case "fixed":
		n, err := parseIntArg("sizes: fixed", args)
		if err != nil {
			return nil, err
		}
		if n < 1 {
			return nil, fmt.Errorf("traffic: sizes: fixed size %d flits; need >= 1", n)
		}
		return checkLargest(FixedSize{N: n}, n)
	case "uniform":
		kv, err := parseKVArgs("sizes: uniform", args, []string{"min", "max"}, []string{"min", "max"})
		if err != nil {
			return nil, err
		}
		min, err := kvInt("sizes: uniform", kv, "min")
		if err != nil {
			return nil, err
		}
		max, err := kvInt("sizes: uniform", kv, "max")
		if err != nil {
			return nil, err
		}
		if min < 1 || max < min {
			return nil, fmt.Errorf("traffic: sizes: uniform wants 1 <= min <= max, got min=%d max=%d", min, max)
		}
		return checkLargest(UniformSize{Min: min, Max: max}, max)
	case "bimodal":
		kv, err := parseKVArgs("sizes: bimodal", args, []string{"small", "large", "p"}, []string{"small", "large", "p"})
		if err != nil {
			return nil, err
		}
		small, err := kvInt("sizes: bimodal", kv, "small")
		if err != nil {
			return nil, err
		}
		large, err := kvInt("sizes: bimodal", kv, "large")
		if err != nil {
			return nil, err
		}
		p, err := kvFloat("sizes: bimodal", kv, "p")
		if err != nil {
			return nil, err
		}
		if small < 1 || large < small {
			return nil, fmt.Errorf("traffic: sizes: bimodal wants 1 <= small <= large, got small=%d large=%d", small, large)
		}
		if p < 0 || p > 1 {
			return nil, fmt.Errorf("traffic: sizes: bimodal probability %v outside [0,1]", p)
		}
		return checkLargest(BimodalSize{Small: small, Large: large, P: p}, large)
	default:
		return nil, fmt.Errorf("traffic: unknown size distribution %q (valid specs: %s)", spec, validSizeSpecs())
	}
}
