package allocator

import (
	"testing"
	"testing/quick"

	"routersim/internal/rng"
)

// checkSwitchGrants verifies the structural invariants of any switch
// allocation: every grant matches a request, and no input or output is
// granted twice.
func checkSwitchGrants(t *testing.T, reqs []SwitchRequest, grants []SwitchGrant) {
	t.Helper()
	reqSet := make(map[SwitchRequest]bool, len(reqs))
	for _, r := range reqs {
		reqSet[r] = true
	}
	inSeen := make(map[int8]bool)
	outSeen := make(map[int8]bool)
	for _, g := range grants {
		if !reqSet[SwitchRequest(g)] {
			t.Fatalf("grant %+v has no matching request", g)
		}
		if inSeen[g.In] {
			t.Fatalf("input %d granted twice", g.In)
		}
		if outSeen[g.Out] {
			t.Fatalf("output %d granted twice", g.Out)
		}
		inSeen[g.In] = true
		outSeen[g.Out] = true
	}
}

func TestSeparableSwitchBasics(t *testing.T) {
	s := NewSeparableSwitch(5, 2, nil)
	reqs := []SwitchRequest{
		{In: 0, VC: 0, Out: 3},
		{In: 1, VC: 1, Out: 3}, // conflicts with input 0 on output 3
		{In: 2, VC: 0, Out: 4},
	}
	grants := s.Allocate(reqs)
	checkSwitchGrants(t, reqs, grants)
	if len(grants) != 2 {
		t.Fatalf("got %d grants, want 2 (one per free output)", len(grants))
	}
}

func TestSeparableSwitchSingleRequestAlwaysWins(t *testing.T) {
	s := NewSeparableSwitch(5, 4, nil)
	for i := 0; i < 20; i++ {
		req := []SwitchRequest{{In: int8(i % 5), VC: int8(i % 4), Out: int8((i + 1) % 5)}}
		grants := s.Allocate(req)
		if len(grants) != 1 || grants[0] != SwitchGrant(req[0]) {
			t.Fatalf("uncontested request not granted: %+v -> %+v", req, grants)
		}
	}
}

func TestSeparableSwitchInputPicksOneVC(t *testing.T) {
	// Two VCs of the same input request different outputs: only one may
	// win (one crossbar input port per physical channel — the paper's
	// key argument against Chien's per-VC crossbar ports).
	s := NewSeparableSwitch(5, 2, nil)
	reqs := []SwitchRequest{
		{In: 0, VC: 0, Out: 1},
		{In: 0, VC: 1, Out: 2},
	}
	grants := s.Allocate(reqs)
	checkSwitchGrants(t, reqs, grants)
	if len(grants) != 1 {
		t.Fatalf("input port granted %d passages in one cycle, want 1", len(grants))
	}
}

func TestSeparableSwitchFairUnderContention(t *testing.T) {
	// With persistent conflicting requests, matrix arbiters must share
	// the output approximately evenly.
	s := NewSeparableSwitch(5, 2, nil)
	wins := make(map[int8]int)
	reqs := []SwitchRequest{
		{In: 0, VC: 0, Out: 3},
		{In: 1, VC: 0, Out: 3},
		{In: 2, VC: 0, Out: 3},
	}
	const rounds = 300
	for i := 0; i < rounds; i++ {
		for _, g := range s.Allocate(reqs) {
			wins[g.In]++
		}
	}
	for in := int8(0); in <= 2; in++ {
		if wins[in] < rounds/3-5 || wins[in] > rounds/3+5 {
			t.Errorf("input %d won %d/%d, want ≈%d", in, wins[in], rounds, rounds/3)
		}
	}
}

func TestSeparableSwitchPropertyInvariants(t *testing.T) {
	prop := func(seed uint64, n uint8) bool {
		r := rng.New(seed)
		s := NewSeparableSwitch(5, 2, nil)
		for round := 0; round < int(n%20)+1; round++ {
			var reqs []SwitchRequest
			used := map[[2]int]bool{}
			for i := 0; i < r.Intn(8); i++ {
				in, vc := r.Intn(5), r.Intn(2)
				if used[[2]int{in, vc}] {
					continue
				}
				used[[2]int{in, vc}] = true
				reqs = append(reqs, SwitchRequest{In: int8(in), VC: int8(vc), Out: int8(r.Intn(5))})
			}
			grants := s.Allocate(reqs)
			inSeen, outSeen := map[int8]bool{}, map[int8]bool{}
			for _, g := range grants {
				if inSeen[g.In] || outSeen[g.Out] {
					return false
				}
				inSeen[g.In], outSeen[g.Out] = true, true
			}
			// Work conservation at the output stage: if exactly one
			// request targets an otherwise-unrequested output and its
			// input made no other request, it must be granted.
			if len(reqs) == 1 && len(grants) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSeparableSwitchDuplicateRequestPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate (in,vc) request must panic")
		}
	}()
	s := NewSeparableSwitch(5, 2, nil)
	s.Allocate([]SwitchRequest{{In: 0, VC: 0, Out: 1}, {In: 0, VC: 0, Out: 2}})
}

func TestWormholeSwitchHoldAndRelease(t *testing.T) {
	w := NewWormholeSwitch(5, nil)
	grants := w.Arbitrate([]PortRequest{{In: 0, Out: 3}, {In: 1, Out: 3}})
	if len(grants) != 1 {
		t.Fatalf("got %d grants, want 1", len(grants))
	}
	winner := grants[0].In
	if !w.Held(3) || w.Holder(3) != winner {
		t.Fatalf("output 3 not held by winner %d", winner)
	}
	// While held, nobody can win the port — the status bit masks requests.
	for i := 0; i < 5; i++ {
		if g := w.Arbitrate([]PortRequest{{In: (winner + 1) % 5, Out: 3}}); len(g) != 0 {
			t.Fatalf("held port granted: %+v", g)
		}
	}
	w.Release(3)
	if w.Held(3) {
		t.Fatal("port still held after release")
	}
	if g := w.Arbitrate([]PortRequest{{In: 2, Out: 3}}); len(g) != 1 || g[0].In != 2 {
		t.Fatalf("released port not grantable: %+v", g)
	}
}

func TestWormholeSwitchDoubleReleasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("double release must panic")
		}
	}()
	w := NewWormholeSwitch(5, nil)
	w.Arbitrate([]PortRequest{{In: 0, Out: 1}})
	w.Release(1)
	w.Release(1)
}

func TestWormholeSwitchIndependentOutputs(t *testing.T) {
	w := NewWormholeSwitch(5, nil)
	grants := w.Arbitrate([]PortRequest{{In: 0, Out: 1}, {In: 1, Out: 2}, {In: 2, Out: 3}})
	if len(grants) != 3 {
		t.Fatalf("independent outputs: got %d grants, want 3", len(grants))
	}
}

func TestVCAllocatorBasics(t *testing.T) {
	// Two input VCs request the two free VCs of output 1. A separable
	// allocator may grant only one in the first cycle (both stage-1
	// arbiters can pick the same candidate — the allocation-efficiency
	// sacrifice the paper notes); the loser retries with the remaining
	// candidate and must succeed by the second cycle.
	a := NewVCAllocator(5, 2, nil)
	reqs := []VCRequest{
		{In: 0, VC: 0, Out: 1, Candidates: 0b11},
		{In: 1, VC: 1, Out: 1, Candidates: 0b11},
	}
	grants := a.Allocate(reqs)
	if len(grants) == 0 || len(grants) > 2 {
		t.Fatalf("cycle 1: got %d grants, want 1 or 2", len(grants))
	}
	busy := make([]bool, 2)
	granted := map[[2]int8]bool{}
	for _, g := range grants {
		if g.Out != 1 || g.OutVC < 0 || g.OutVC > 1 {
			t.Fatalf("bad grant %+v", g)
		}
		if busy[g.OutVC] {
			t.Fatalf("output VC %d double-allocated", g.OutVC)
		}
		busy[g.OutVC] = true
		granted[[2]int8{g.In, g.VC}] = true
	}
	// Losers retry with the updated free mask (busy bits cleared), as
	// the router computes it from its outvc_state bitmask.
	var free uint64
	for i, b := range busy {
		if !b {
			free |= 1 << i
		}
	}
	var retry []VCRequest
	for _, r := range reqs {
		if !granted[[2]int8{r.In, r.VC}] {
			r.Candidates = free
			retry = append(retry, r)
		}
	}
	grants2 := a.Allocate(retry)
	if len(grants2) != len(retry) {
		t.Fatalf("cycle 2: %d of %d retries granted", len(grants2), len(retry))
	}
	for _, g := range grants2 {
		if busy[g.OutVC] {
			t.Fatalf("retry granted an already-busy VC %d", g.OutVC)
		}
	}
}

func TestVCAllocatorSingleCandidateContention(t *testing.T) {
	// Two input VCs compete for the single free output VC: exactly one
	// wins per cycle, and over repeated cycles both are served.
	a := NewVCAllocator(5, 2, nil)
	wins := map[[2]int8]int{}
	for i := 0; i < 100; i++ {
		reqs := []VCRequest{
			{In: 0, VC: 0, Out: 2, Candidates: 0b01},
			{In: 3, VC: 1, Out: 2, Candidates: 0b01},
		}
		grants := a.Allocate(reqs)
		if len(grants) != 1 {
			t.Fatalf("cycle %d: %d grants, want 1", i, len(grants))
		}
		g := grants[0]
		wins[[2]int8{g.In, g.VC}]++
	}
	if wins[[2]int8{0, 0}] < 40 || wins[[2]int8{3, 1}] < 40 {
		t.Errorf("unfair VC allocation: %v", wins)
	}
}

func TestVCAllocatorNoCandidates(t *testing.T) {
	a := NewVCAllocator(5, 2, nil)
	if g := a.Allocate([]VCRequest{{In: 0, VC: 0, Out: 1, Candidates: 0}}); len(g) != 0 {
		t.Fatalf("no candidates but granted: %+v", g)
	}
}

func TestVCAllocatorGrantUniqueOutVC(t *testing.T) {
	prop := func(seed uint64) bool {
		r := rng.New(seed)
		a := NewVCAllocator(5, 4, nil)
		for round := 0; round < 10; round++ {
			var reqs []VCRequest
			used := map[[2]int]bool{}
			for i := 0; i < r.Intn(10); i++ {
				in, vc := r.Intn(5), r.Intn(4)
				if used[[2]int{in, vc}] {
					continue
				}
				used[[2]int{in, vc}] = true
				reqs = append(reqs, VCRequest{
					In: int8(in), VC: int8(vc), Out: int8(r.Intn(5)),
					Candidates: r.Uint64() & 0b1111,
				})
			}
			grants := a.Allocate(reqs)
			outVCSeen := map[[2]int8]bool{}
			inVCSeen := map[[2]int8]bool{}
			for _, g := range grants {
				if outVCSeen[[2]int8{g.Out, g.OutVC}] || inVCSeen[[2]int8{g.In, g.VC}] {
					return false
				}
				outVCSeen[[2]int8{g.Out, g.OutVC}] = true
				inVCSeen[[2]int8{g.In, g.VC}] = true
				// Grant must be among the request's candidates.
				var req *VCRequest
				for i := range reqs {
					if reqs[i].In == g.In && reqs[i].VC == g.VC {
						req = &reqs[i]
					}
				}
				if req == nil || req.Out != g.Out || req.Candidates&(1<<g.OutVC) == 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSpeculativeNonSpecPriorityOnOutput(t *testing.T) {
	s := NewSpeculativeSwitch(5, 2, nil)
	ns := []SwitchRequest{{In: 0, VC: 0, Out: 3}}
	sp := []SwitchRequest{{In: 1, VC: 0, Out: 3}}
	gNS, gSP := s.Allocate(ns, sp)
	if len(gNS) != 1 || gNS[0].In != 0 {
		t.Fatalf("non-speculative grant lost: %+v", gNS)
	}
	if len(gSP) != 0 {
		t.Fatalf("speculative grant survived an output conflict: %+v", gSP)
	}
}

func TestSpeculativeNonSpecPriorityOnInput(t *testing.T) {
	// The same input wins non-spec for one output and spec for another:
	// the input can send only one flit, so the speculative grant must
	// be discarded.
	s := NewSpeculativeSwitch(5, 2, nil)
	ns := []SwitchRequest{{In: 0, VC: 0, Out: 3}}
	sp := []SwitchRequest{{In: 0, VC: 1, Out: 4}}
	gNS, gSP := s.Allocate(ns, sp)
	if len(gNS) != 1 {
		t.Fatalf("non-spec grant missing: %+v", gNS)
	}
	if len(gSP) != 0 {
		t.Fatalf("speculative grant from the same input survived: %+v", gSP)
	}
}

func TestSpeculativeGrantsWhenNoConflict(t *testing.T) {
	s := NewSpeculativeSwitch(5, 2, nil)
	ns := []SwitchRequest{{In: 0, VC: 0, Out: 3}}
	sp := []SwitchRequest{{In: 1, VC: 0, Out: 4}}
	gNS, gSP := s.Allocate(ns, sp)
	if len(gNS) != 1 || len(gSP) != 1 {
		t.Fatalf("conflict-free spec grant dropped: ns=%+v sp=%+v", gNS, gSP)
	}
}

func TestSpeculativeOnlySpecRequests(t *testing.T) {
	// With no non-speculative traffic, speculation must succeed — this
	// is the zero-load case that gives the speculative router its
	// 3-stage latency.
	s := NewSpeculativeSwitch(5, 2, nil)
	gNS, gSP := s.Allocate(nil, []SwitchRequest{{In: 2, VC: 1, Out: 0}})
	if len(gNS) != 0 || len(gSP) != 1 {
		t.Fatalf("lone speculative request not granted: %+v %+v", gNS, gSP)
	}
}

func TestSpeculativeAblationSpecWins(t *testing.T) {
	s := NewSpeculativeSwitch(5, 2, nil)
	s.PrioritizeNonSpec = false
	ns := []SwitchRequest{{In: 0, VC: 0, Out: 3}}
	sp := []SwitchRequest{{In: 1, VC: 0, Out: 3}}
	gNS, gSP := s.Allocate(ns, sp)
	if len(gSP) != 1 || len(gNS) != 0 {
		t.Fatalf("ablation mode: spec should win output conflicts: ns=%+v sp=%+v", gNS, gSP)
	}
}
