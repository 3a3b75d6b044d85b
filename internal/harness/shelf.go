package harness

import (
	"runtime"
	"sync"

	"routersim/internal/network"
	"routersim/internal/sim"
)

// shelf lends networks to the jobs of one harness call (Run,
// RunResumable, FindSaturation, FindSaturations). A job takes an
// idle network that network.Reset accepts and runs on it in place, and
// builds one only when none fits. Reset restores exactly New's state, so
// results never depend on which network a job ran on. The shelf holds
// at most one idle network per worker — a returned one past that evicts
// the oldest — and close shuts down all of them, shard gangs included,
// before the call returns: nothing outlives the call.
type shelf struct {
	mu   sync.Mutex
	idle []*network.Network
	max  int
}

// newShelf sizes a shelf for pool.Run's worker count (<= 0: GOMAXPROCS).
func newShelf(workers int) *shelf {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &shelf{max: workers}
}

// run executes one simulation on a shelved network of cfg's shape, or
// on a new one. The network goes back on the shelf only if the run
// succeeds: a run that errors or panics may stop it mid-cycle, so it is
// closed instead.
func (s *shelf) run(cfg sim.Config) (sim.Result, error) {
	net := s.take(cfg.Net)
	if net == nil {
		var err error
		if net, err = network.New(cfg.Net); err != nil {
			return sim.Result{}, err
		}
	}
	ok := false
	defer func() {
		if ok {
			s.put(net)
		} else {
			net.Close()
		}
	}()
	res, err := sim.NewRunner(cfg).RunOn(net)
	ok = err == nil
	return res, err
}

// take removes and returns the most recently shelved network that fits
// ncfg, or nil.
func (s *shelf) take(ncfg network.Config) *network.Network {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.idle) - 1; i >= 0; i-- {
		if net := s.idle[i]; net.Fits(ncfg) == nil {
			s.idle = append(s.idle[:i], s.idle[i+1:]...)
			return net
		}
	}
	return nil
}

// put shelves an idle network, evicting the oldest past max.
func (s *shelf) put(net *network.Network) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.idle) == s.max {
		s.idle[0].Close()
		s.idle = s.idle[1:]
	}
	s.idle = append(s.idle, net)
}

// close shuts down every shelved network.
func (s *shelf) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, net := range s.idle {
		net.Close()
	}
	s.idle = nil
}
