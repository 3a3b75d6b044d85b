package allocator

import (
	"fmt"

	"routersim/internal/arbiter"
)

// PortRequest asks to acquire output port Out for the whole duration of
// a packet at input port In (wormhole flow control).
type PortRequest struct {
	In, Out int
}

// WormholeSwitch is the switch arbiter of a wormhole router (Figure 7a):
// one p:1 matrix arbiter per output port plus a status flip-flop; a
// granted output port is held by the winning input until released by the
// packet's tail flit.
type WormholeSwitch struct {
	p       int
	arbs    arbiter.Bank // one arbiter per output port, over p inputs
	holder  []int8       // input port holding each output, -1 if free
	reqBits []uint64
	grants  []PortRequest // scratch, reused across Arbitrate calls
}

// NewWormholeSwitch returns a wormhole switch arbiter over p ports.
func NewWormholeSwitch(p int, factory arbiter.Factory) *WormholeSwitch {
	w := &WormholeSwitch{
		p:       p,
		arbs:    arbiter.NewBank(p, p, factory),
		holder:  make([]int8, p),
		reqBits: make([]uint64, p),
	}
	w.Reset()
	return w
}

// Reset frees every output port and returns the arbiters to their
// initial priority.
func (w *WormholeSwitch) Reset() {
	w.arbs.Reset()
	for i := range w.holder {
		w.holder[i] = -1
	}
}

// Holder returns the input port currently holding output out, or -1.
func (w *WormholeSwitch) Holder(out int) int { return int(w.holder[out]) }

// Held reports whether output out is held.
func (w *WormholeSwitch) Held(out int) bool { return w.holder[out] >= 0 }

// Arbitrate processes one cycle of port requests. Requests for held
// ports lose (the status flip-flop masks them); each free output port
// grants at most one input, which then holds the port until Release.
// The returned slice is scratch owned by the arbiter, valid until the
// next Arbitrate.
func (w *WormholeSwitch) Arbitrate(reqs []PortRequest) []PortRequest {
	if len(reqs) == 0 {
		// No requests grant nothing and touch no arbiter or holder
		// state; skip the scratch resets.
		return w.grants[:0]
	}
	for i := range w.reqBits {
		w.reqBits[i] = 0
	}
	for _, r := range reqs {
		if r.In < 0 || r.In >= w.p || r.Out < 0 || r.Out >= w.p {
			panic(fmt.Sprintf("allocator: wormhole request out of range: %+v (p=%d)", r, w.p))
		}
		if w.holder[r.Out] >= 0 {
			continue // port unavailable; status bit masks the request
		}
		w.reqBits[r.Out] |= 1 << r.In
	}
	w.grants = w.grants[:0]
	for out := 0; out < w.p; out++ {
		if w.reqBits[out] == 0 {
			continue
		}
		if in, ok := w.arbs.Grant(out, w.reqBits[out]); ok {
			w.holder[out] = int8(in)
			w.grants = append(w.grants, PortRequest{In: in, Out: out})
		}
	}
	return w.grants
}

// Release frees output port out when a tail flit departs. Releasing a
// free port panics: it indicates a double release in the router state
// machine.
func (w *WormholeSwitch) Release(out int) {
	if w.holder[out] < 0 {
		panic(fmt.Sprintf("allocator: release of free wormhole port %d", out))
	}
	w.holder[out] = -1
}
