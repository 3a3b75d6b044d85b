package harness

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sync"

	"routersim/internal/checkpoint"
	"routersim/internal/pool"
	"routersim/internal/rng"
)

// EngineVersion tags checkpoint keys with the simulator's
// result-affecting revision. Bump it whenever a change alters any
// serialized result bit (router timing, measurement protocol, RNG
// streams, serialization schema): stored entries from the old engine
// then miss instead of resuming wrong numbers into a new sweep.
const EngineVersion = "routersim-engine-1"

// jobKey is the content address of one job's result: engine version,
// canonicalized scenario, derived seed, and measurement protocol. Two
// sweeps that expand to the same job — whatever matrix spelled it —
// share the entry; anything that could change the result changes the
// key. Execution options (worker count, audit interval, retry budget)
// are deliberately excluded: they never change result bytes. prJSON is
// the protocol's JSON (protocolJSON), the same for every job of a run.
func jobKey(sc Scenario, seed uint64, prJSON []byte) [32]byte {
	sc = sc.canonical()
	scJSON := appendScenario(make([]byte, 0, 256), &sc)
	var seedB [8]byte
	binary.BigEndian.PutUint64(seedB[:], seed)
	return checkpoint.Key([]byte(EngineVersion), scJSON, seedB[:], prJSON)
}

// protocolJSON is the protocol's part of every job key of a run.
func protocolJSON(pr Protocol) []byte {
	b, err := json.Marshal(pr)
	if err != nil {
		panic(fmt.Sprintf("harness: protocol not serializable: %v", err)) // plain-value struct; unreachable
	}
	return b
}

// RunResumable is Run with crash-safe persistence: every successful
// job's result is written to the checkpoint store as it finishes
// (atomically — a kill mid-write leaves a temp file, never a torn
// entry), and jobs whose results are already stored are loaded instead
// of re-run. An interrupted sweep resumed against the same store
// produces byte-identical output to an uninterrupted one, at any
// worker count, because the loaded payloads ARE the bytes the original
// jobs serialized to. Failed jobs (errors and recovered panics) are
// never persisted, so a resume retries them.
//
// Corrupt store entries are quarantined by the store and count as
// misses — the job simply re-runs. The first persistence error is
// returned alongside the complete results: the sweep's numbers are
// good even when the disk is not.
func RunResumable(m Matrix, opts Options, store *checkpoint.Store) ([]JobResult, error) {
	if err := opts.Protocol.validate(); err != nil {
		return nil, err
	}
	scenarios := m.Expand()
	if len(scenarios) == 0 {
		return nil, fmt.Errorf("harness: empty matrix")
	}
	results := make([]JobResult, len(scenarios))
	keys := make([][32]byte, len(scenarios))
	ready := make([]bool, len(scenarios))
	prJSON := protocolJSON(opts.Protocol)
	// Loading is read-only per job, so it runs on the same pool as the
	// jobs; index i writes only keys[i], results[i] and ready[i].
	pool.Run(len(scenarios), opts.Workers, func(i int) {
		sc := scenarios[i]
		seed := rng.Derive(opts.Seed, uint64(i))
		keys[i] = jobKey(sc, seed, prJSON)
		payload, ok, err := store.Get(keys[i])
		if err != nil || !ok {
			return // miss, quarantined, or unreadable: run the job
		}
		var jr JobResult
		// Trust but verify: an entry must be in the layout this engine
		// serializes (the checksum only proves that someone wrote these
		// bytes) and a successful result for exactly this job, or the
		// job re-runs.
		if !decodeJobResult(payload, &jr) || jr.Error != "" || jr.Result == nil ||
			jr.Seed != seed || jr.Scenario != sc {
			return
		}
		jr.Index = i
		results[i] = jr
		ready[i] = true
	})

	loaded := 0
	var pending []int
	for i := range scenarios {
		if ready[i] {
			loaded++
		} else {
			pending = append(pending, i)
		}
	}

	var (
		mu         sync.Mutex
		done       = loaded
		cursor     int
		persistErr error
	)
	flush := func() {
		for opts.OnResult != nil && cursor < len(ready) && ready[cursor] {
			opts.OnResult(results[cursor])
			cursor++
		}
	}
	flush() // loaded prefix streams before any job runs
	sh := newShelf(opts.Workers)
	defer sh.close()
	pool.Run(len(pending), opts.Workers, func(pi int) {
		i := pending[pi]
		results[i] = executeJob(i, scenarios[i], opts, sh)
		var perr error
		if results[i].Error == "" && results[i].Result != nil {
			payload, err := appendJobResult(nil, &results[i])
			if err == nil {
				err = store.Put(keys[i], payload)
			}
			perr = err
		}
		mu.Lock()
		defer mu.Unlock()
		if perr != nil && persistErr == nil {
			persistErr = fmt.Errorf("harness: checkpoint job %d (%s): %w", i, scenarios[i].Label(), perr)
		}
		done++
		if opts.Progress != nil {
			opts.Progress(done, len(scenarios), results[i])
		}
		ready[i] = true
		flush()
	})
	return results, persistErr
}
