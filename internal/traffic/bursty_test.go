package traffic

import (
	"math"
	"strings"
	"testing"

	"routersim/internal/rng"
)

// tickSchedule runs inj per-cycle for cycles ticks and returns the
// (cycle, count) pairs of every nonzero return.
func tickSchedule(inj Injector, cycles int64) (at []int64, counts []int) {
	for t := int64(0); t < cycles; t++ {
		if n := inj.Tick(); n > 0 {
			at = append(at, t)
			counts = append(counts, n)
		}
	}
	return at, counts
}

// TestMMPPAdvanceMatchesTick: AdvanceToInjection must enumerate exactly
// the injection cycles per-cycle ticking produces — same cycles, same
// RNG draw sequence — for a spread of burst shapes. This is the parking
// contract the active-set scheduler relies on.
func TestMMPPAdvanceMatchesTick(t *testing.T) {
	cases := []struct {
		rate, on, off float64
	}{
		{0.02, 50, 150},
		{0.1, 10, 30},
		{0.25, 100, 100},
		{0.5, 1, 1}, // mean dwell 1: state flips every cycle
	}
	for _, tc := range cases {
		ticked, err := NewMMPP(tc.rate, tc.on, tc.off, rng.New(42))
		if err != nil {
			t.Fatal(err)
		}
		advanced, err := NewMMPP(tc.rate, tc.on, tc.off, rng.New(42))
		if err != nil {
			t.Fatal(err)
		}
		const cycles = 20000
		at, counts := tickSchedule(ticked, cycles)
		if len(at) == 0 {
			t.Fatalf("rate=%v on=%v off=%v: no injections in %d cycles", tc.rate, tc.on, tc.off, cycles)
		}
		for _, n := range counts {
			if n != 1 {
				t.Fatalf("MMPP Tick returned %d, want 1", n)
			}
		}
		cursor := int64(-1)
		for i, want := range at {
			k := advanced.AdvanceToInjection()
			if k < 1 {
				t.Fatalf("rate=%v on=%v off=%v: AdvanceToInjection ended after %d of %d injections",
					tc.rate, tc.on, tc.off, i, len(at))
			}
			cursor += k
			if cursor != want {
				t.Fatalf("rate=%v on=%v off=%v: injection %d at cycle %d via advance, %d via tick",
					tc.rate, tc.on, tc.off, i, cursor, want)
			}
		}
	}
}

// TestBatchAdvanceMatchesTick: the batch process's advance path must
// reproduce per-cycle ticking's release cycles, and every release must
// carry the whole batch (Tick count and PendingCount agree).
func TestBatchAdvanceMatchesTick(t *testing.T) {
	for _, size := range []int{1, 4, 16} {
		ticked, err := NewBatch(0.05, size, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		advanced, err := NewBatch(0.05, size, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		const cycles = 20000
		at, counts := tickSchedule(ticked, cycles)
		if len(at) == 0 {
			t.Fatalf("size=%d: no releases in %d cycles", size, cycles)
		}
		for _, n := range counts {
			if n != size {
				t.Fatalf("size=%d: Tick returned %d at a release", size, n)
			}
		}
		if advanced.PendingCount() != size {
			t.Fatalf("PendingCount = %d, want %d", advanced.PendingCount(), size)
		}
		cursor := int64(-1)
		for i, want := range at {
			k := advanced.AdvanceToInjection()
			if k < 1 {
				t.Fatalf("size=%d: AdvanceToInjection ended after %d of %d releases", size, i, len(at))
			}
			cursor += k
			if cursor != want {
				t.Fatalf("size=%d: release %d at cycle %d via advance, %d via tick", size, i, cursor, want)
			}
		}
	}
}

// TestBurstyZeroRate: zero-rate bursty injectors never fire and park
// forever, exactly like the zero-rate constant source.
func TestBurstyZeroRate(t *testing.T) {
	m, err := NewMMPP(0, 10, 30, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBatch(0, 4, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if m.Tick() != 0 || b.Tick() != 0 {
			t.Fatal("zero-rate injector fired")
		}
	}
	if m.AdvanceToInjection() != -1 {
		t.Fatal("zero-rate MMPP did not park forever")
	}
	if b.AdvanceToInjection() != -1 {
		t.Fatal("zero-rate batch did not park forever")
	}
}

// TestMMPPMeanRate is the statistical sanity gate: over a pinned seed,
// the empirical MMPP rate must sit within a batch-means confidence
// interval of the configured rate. Batches are far longer than the
// burst timescale (on+off), so batch rates are close to independent and
// the interval is honest about burst-induced variance.
func TestMMPPMeanRate(t *testing.T) {
	const (
		rate     = 0.02
		batches  = 100
		batchLen = 10000
	)
	m, err := NewMMPP(rate, 50, 150, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	var sum, sumSq float64
	for b := 0; b < batches; b++ {
		count := 0
		for i := 0; i < batchLen; i++ {
			count += m.Tick()
		}
		r := float64(count) / batchLen
		sum += r
		sumSq += r * r
	}
	mean := sum / batches
	variance := (sumSq - sum*sum/batches) / (batches - 1)
	sem := math.Sqrt(variance / batches)
	if diff := math.Abs(mean - rate); diff > 4*sem+1e-9 {
		t.Fatalf("empirical rate %.5f vs configured %.5f: off by %.5f (> 4 sem = %.5f)", mean, rate, diff, 4*sem)
	}
}

// TestBatchMeanRate: same gate for the batch process (mean packets per
// cycle equals the configured rate, not rate × size).
func TestBatchMeanRate(t *testing.T) {
	const (
		rate     = 0.08
		size     = 8
		batches  = 100
		batchLen = 10000
	)
	b, err := NewBatch(rate, size, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	var sum, sumSq float64
	for i := 0; i < batches; i++ {
		count := 0
		for c := 0; c < batchLen; c++ {
			count += b.Tick()
		}
		r := float64(count) / batchLen
		sum += r
		sumSq += r * r
	}
	mean := sum / batches
	variance := (sumSq - sum*sum/batches) / (batches - 1)
	sem := math.Sqrt(variance / batches)
	if diff := math.Abs(mean - rate); diff > 4*sem+1e-9 {
		t.Fatalf("empirical rate %.5f vs configured %.5f: off by %.5f (> 4 sem = %.5f)", mean, rate, diff, 4*sem)
	}
}

// TestBurstyInfeasibleRates: loads the burst shape cannot deliver are
// construction errors, never silent clamps.
func TestBurstyInfeasibleRates(t *testing.T) {
	// ON-state probability 0.9*(10+90)/10 = 9 > 1.
	if _, err := NewMMPP(0.9, 10, 90, rng.New(1)); err == nil {
		t.Fatal("MMPP accepted an undeliverable rate")
	}
	// Release probability 3/2 > 1.
	if _, err := NewBatch(3, 2, rng.New(1)); err == nil {
		t.Fatal("Batch accepted an undeliverable rate")
	}
	if _, err := NewMMPP(0.1, 0.5, 30, rng.New(1)); err == nil {
		t.Fatal("MMPP accepted a sub-cycle dwell time")
	}
	if _, err := NewBatch(0.1, 0, rng.New(1)); err == nil {
		t.Fatal("Batch accepted size 0")
	}
}

// TestSizerDistributions checks each size distribution's support and
// mean.
func TestSizerDistributions(t *testing.T) {
	r := rng.New(3)
	f := FixedSize{N: 5}
	if f.Sample(r) != 5 || f.Mean() != 5 {
		t.Fatal("FixedSize broken")
	}
	u := UniformSize{Min: 2, Max: 9}
	if u.Mean() != 5.5 {
		t.Fatalf("UniformSize mean %v, want 5.5", u.Mean())
	}
	seen := make(map[int]bool)
	for i := 0; i < 5000; i++ {
		s := u.Sample(r)
		if s < 2 || s > 9 {
			t.Fatalf("uniform sample %d outside [2,9]", s)
		}
		seen[s] = true
	}
	if len(seen) != 8 {
		t.Fatalf("uniform support covered %d of 8 values", len(seen))
	}
	b := BimodalSize{Small: 1, Large: 9, P: 0.25}
	if got, want := b.Mean(), 1*0.75+9*0.25; math.Abs(got-want) > 1e-12 {
		t.Fatalf("BimodalSize mean %v, want %v", got, want)
	}
	large := 0
	const n = 20000
	for i := 0; i < n; i++ {
		switch b.Sample(r) {
		case 9:
			large++
		case 1:
		default:
			t.Fatal("bimodal sample outside support")
		}
	}
	if frac := float64(large) / n; math.Abs(frac-0.25) > 0.02 {
		t.Fatalf("bimodal large fraction %.3f, want ~0.25", frac)
	}
}

// TestParseSource covers the accepted forms and every rejection path of
// the source grammar; error messages must point at the valid specs or
// the offending parameter.
func TestParseSource(t *testing.T) {
	good := []struct {
		spec string
		want SourceSpec
	}{
		{"", SourceSpec{Kind: "const"}},
		{"const", SourceSpec{Kind: "const"}},
		{"bernoulli", SourceSpec{Kind: "bernoulli"}},
		{"mmpp:on=40,off=160", SourceSpec{Kind: "mmpp", On: 40, Off: 160}},
		{"mmpp:off=160,on=40", SourceSpec{Kind: "mmpp", On: 40, Off: 160}},
		{"batch:size=8", SourceSpec{Kind: "batch", BatchSize: 8}},
		{"trace:file=foo/bar.trace", SourceSpec{Kind: "trace", File: "foo/bar.trace"}},
	}
	for _, tc := range good {
		got, err := ParseSource(tc.spec)
		if err != nil {
			t.Fatalf("ParseSource(%q): %v", tc.spec, err)
		}
		if got != tc.want {
			t.Fatalf("ParseSource(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}

	bad := []struct {
		spec    string
		errLike string
	}{
		{"poisson", "unknown source"},
		{"const:x=1", "takes no parameters"},
		{"bernoulli:p=0.5", "takes no parameters"},
		{"mmpp", "missing required parameter \"on\""},
		{"mmpp:on=40", "missing required parameter \"off\""},
		{"mmpp:on=40,off=160,on=40", "duplicate parameter"},
		{"mmpp:on=40,off=160,burst=3", "unknown parameter"},
		{"mmpp:on=x,off=160", "parameter on"},
		{"mmpp:on", "KEY=VALUE"},
		{"mmpp:on=0.2,off=160", ">= 1 cycle"},
		{"batch", "missing required parameter \"size\""},
		{"batch:size=0", "need >= 1"},
		{"batch:size=two", "parameter size"},
		{"trace", "missing required parameter \"file\""},
		{"trace:file=", "non-empty file path"},
	}
	for _, tc := range bad {
		_, err := ParseSource(tc.spec)
		if err == nil {
			t.Fatalf("ParseSource(%q): want error containing %q, got nil", tc.spec, tc.errLike)
		}
		if !strings.Contains(err.Error(), tc.errLike) {
			t.Fatalf("ParseSource(%q): error %q does not mention %q", tc.spec, err, tc.errLike)
		}
	}
}

// TestParseSizes covers the size-distribution grammar the same way.
func TestParseSizes(t *testing.T) {
	if s, err := ParseSizes(""); err != nil || s != nil {
		t.Fatalf("ParseSizes(\"\") = %v, %v; want nil, nil", s, err)
	}
	good := []struct {
		spec string
		want Sizer
	}{
		{"fixed:7", FixedSize{N: 7}},
		{"uniform:min=1,max=9", UniformSize{Min: 1, Max: 9}},
		{"bimodal:small=1,large=9,p=0.1", BimodalSize{Small: 1, Large: 9, P: 0.1}},
	}
	for _, tc := range good {
		got, err := ParseSizes(tc.spec)
		if err != nil {
			t.Fatalf("ParseSizes(%q): %v", tc.spec, err)
		}
		if got != tc.want {
			t.Fatalf("ParseSizes(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}

	bad := []struct {
		spec    string
		errLike string
	}{
		{"pareto:a=2", "unknown size distribution"},
		{"fixed:0", "need >= 1"},
		{"fixed:x", "fixed"},
		{"uniform:min=3", "missing required parameter \"max\""},
		{"uniform:min=5,max=2", "1 <= min <= max"},
		{"uniform:min=0,max=4", "1 <= min <= max"},
		{"uniform:min=1,max=4,skew=2", "unknown parameter"},
		{"bimodal:small=1,large=9", "missing required parameter \"p\""},
		{"bimodal:small=9,large=1,p=0.1", "1 <= small <= large"},
		{"bimodal:small=1,large=9,p=1.5", "outside [0,1]"},
		{"fixed:1000000000", "at most 4096"},
		{"uniform:min=1,max=4097", "at most 4096"},
		{"bimodal:small=1,large=5000,p=0.1", "at most 4096"},
	}
	for _, tc := range bad {
		_, err := ParseSizes(tc.spec)
		if err == nil {
			t.Fatalf("ParseSizes(%q): want error containing %q, got nil", tc.spec, tc.errLike)
		}
		if !strings.Contains(err.Error(), tc.errLike) {
			t.Fatalf("ParseSizes(%q): error %q does not mention %q", tc.spec, err, tc.errLike)
		}
	}
}

// TestSourceSpecString pins the canonical re-rendering used by labels.
func TestSourceSpecString(t *testing.T) {
	for _, spec := range []string{"const", "bernoulli", "mmpp:on=40,off=160", "batch:size=8", "trace:file=w.trace"} {
		parsed, err := ParseSource(spec)
		if err != nil {
			t.Fatal(err)
		}
		if parsed.String() != spec {
			t.Fatalf("SourceSpec(%q).String() = %q", spec, parsed.String())
		}
	}
}
