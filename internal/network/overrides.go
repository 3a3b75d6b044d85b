package network

import (
	"fmt"
	"strconv"
	"strings"
)

// RouterOverride deviates one router from the global configuration.
// Zero-valued fields keep the global value.
type RouterOverride struct {
	// Node is the router id the override applies to.
	Node int
	// VCs overrides the router's virtual channels per port (>= 1).
	VCs int
	// BufPerVC overrides the flit buffers per VC (>= 1).
	BufPerVC int
	// LinkDelay overrides the propagation delay, in cycles, of every
	// link driven by this router (its output links and its own
	// injection channel).
	LinkDelay int
}

// maxLinkDelay bounds every propagation delay (Config.FlitDelay,
// Config.CreditDelay, per-router overrides): the wake wheel has one
// slot per delay cycle, and credit wires are presized to hold a credit
// for each cycle of the delay.
const maxLinkDelay = 1024

// overridesForm renders the override grammar for error messages.
func overridesForm() string {
	return "NODE:vcs=V,buf=B,delay=D — groups ';'-separated, NODE an id, a LO-HI range, or '*'"
}

// ParseOverrides resolves a per-router override spec against a node
// count. The grammar is ';'-separated groups of SELECTOR:k=v,... where
// the selector is a node id, an inclusive LO-HI range, or '*' (every
// node), and the keys are vcs, buf, and delay. Later groups win on
// conflict. The result is merged per node and sorted by node id; an
// empty spec is nil.
func ParseOverrides(spec string, nodes int) ([]RouterOverride, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	type cell struct{ vcs, buf, delay int }
	cells := make(map[int]*cell)
	for _, group := range strings.Split(spec, ";") {
		group = strings.TrimSpace(group)
		if group == "" {
			continue
		}
		selStr, args, ok := strings.Cut(group, ":")
		if !ok {
			return nil, fmt.Errorf("network: override %q has no ':' (form: %s)", group, overridesForm())
		}
		lo, hi, err := parseSelector(strings.TrimSpace(selStr), nodes)
		if err != nil {
			return nil, err
		}
		var c cell
		any := false
		for _, field := range strings.Split(args, ",") {
			k, vs, ok := strings.Cut(field, "=")
			k = strings.TrimSpace(k)
			if !ok || k == "" {
				return nil, fmt.Errorf("network: override %q wants KEY=VALUE parameters, got %q (form: %s)", group, field, overridesForm())
			}
			v, err := strconv.Atoi(strings.TrimSpace(vs))
			if err != nil {
				return nil, fmt.Errorf("network: override %q: parameter %s: %v", group, k, err)
			}
			switch k {
			case "vcs":
				c.vcs = v
			case "buf":
				c.buf = v
			case "delay":
				c.delay = v
			default:
				return nil, fmt.Errorf("network: override %q: unknown parameter %q (valid: vcs, buf, delay)", group, k)
			}
			if v < 1 {
				return nil, fmt.Errorf("network: override %q: %s=%d; need >= 1", group, k, v)
			}
			any = true
		}
		if !any {
			return nil, fmt.Errorf("network: override %q sets nothing (form: %s)", group, overridesForm())
		}
		for id := lo; id <= hi; id++ {
			dst := cells[id]
			if dst == nil {
				dst = &cell{}
				cells[id] = dst
			}
			if c.vcs != 0 {
				dst.vcs = c.vcs
			}
			if c.buf != 0 {
				dst.buf = c.buf
			}
			if c.delay != 0 {
				dst.delay = c.delay
			}
		}
	}
	out := make([]RouterOverride, 0, len(cells))
	for id := 0; id < nodes; id++ {
		if c, ok := cells[id]; ok {
			out = append(out, RouterOverride{Node: id, VCs: c.vcs, BufPerVC: c.buf, LinkDelay: c.delay})
		}
	}
	return out, nil
}

// parseSelector resolves an override node selector to an inclusive
// [lo, hi] id range.
func parseSelector(sel string, nodes int) (lo, hi int, err error) {
	if sel == "*" {
		return 0, nodes - 1, nil
	}
	if loStr, hiStr, ok := strings.Cut(sel, "-"); ok {
		lo, err1 := strconv.Atoi(strings.TrimSpace(loStr))
		hi, err2 := strconv.Atoi(strings.TrimSpace(hiStr))
		if err1 != nil || err2 != nil {
			return 0, 0, fmt.Errorf("network: override selector %q is not LO-HI (form: %s)", sel, overridesForm())
		}
		if lo > hi {
			return 0, 0, fmt.Errorf("network: override range %q is empty (lo > hi)", sel)
		}
		if lo < 0 || hi >= nodes {
			return 0, 0, fmt.Errorf("network: override range %q outside nodes [0,%d)", sel, nodes)
		}
		return lo, hi, nil
	}
	id, err2 := strconv.Atoi(sel)
	if err2 != nil {
		return 0, 0, fmt.Errorf("network: override selector %q is not a node id, LO-HI range, or '*'", sel)
	}
	if id < 0 || id >= nodes {
		return 0, 0, fmt.Errorf("network: override node %d outside nodes [0,%d)", id, nodes)
	}
	return id, id, nil
}

// validateOverrides checks the override list against the resolved
// topology and router kind: ids in range, sane values, and a valid
// effective router configuration at every overridden node. Called from
// Normalize once Topo and Router.Ports are resolved.
func (c *Config) validateOverrides() error {
	if len(c.Overrides) == 0 {
		return nil
	}
	nodes := c.Topo.Nodes()
	for _, o := range c.Overrides {
		if o.Node < 0 || o.Node >= nodes {
			return fmt.Errorf("network: override node %d outside nodes [0,%d)", o.Node, nodes)
		}
		if o.VCs < 0 || o.BufPerVC < 0 || o.LinkDelay < 0 {
			return fmt.Errorf("network: override node %d has a negative field (0 keeps the global value)", o.Node)
		}
		if o.VCs != 0 && c.Topo.VCClasses() > 1 {
			// Dateline deadlock freedom assumes one class partition on
			// every router of the ring; heterogeneous VC counts would
			// break the class masks.
			return fmt.Errorf("network: per-router VC overrides are not supported on %s (dateline VC classes)", c.Topo.Name())
		}
		if o.LinkDelay > maxLinkDelay {
			return fmt.Errorf("network: override node %d link delay %d; max %d", o.Node, o.LinkDelay, maxLinkDelay)
		}
	}
	vcs, buf, _ := c.nodeParams(nodes)
	for id := 0; id < nodes; id++ {
		rcfg := c.Router
		rcfg.VCs = vcs[id]
		rcfg.BufPerVC = buf[id]
		if err := rcfg.Validate(); err != nil {
			return fmt.Errorf("network: override node %d: %w", id, err)
		}
	}
	return nil
}

// nodeParams resolves the per-router VC count, buffer depth, and driven-
// link delay after overrides. The slices are nil when no overrides are
// set, signalling the fully uniform fast path.
func (c *Config) nodeParams(nodes int) (vcs, buf []int, delay []int64) {
	if len(c.Overrides) == 0 {
		return nil, nil, nil
	}
	vcs = make([]int, nodes)
	buf = make([]int, nodes)
	delay = make([]int64, nodes)
	for id := 0; id < nodes; id++ {
		vcs[id] = c.Router.VCs
		buf[id] = c.Router.BufPerVC
		delay[id] = int64(c.FlitDelay)
	}
	for _, o := range c.Overrides {
		if o.VCs != 0 {
			vcs[o.Node] = o.VCs
		}
		if o.BufPerVC != 0 {
			buf[o.Node] = o.BufPerVC
		}
		if o.LinkDelay != 0 {
			delay[o.Node] = int64(o.LinkDelay)
		}
	}
	return vcs, buf, delay
}
