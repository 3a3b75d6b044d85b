package harness

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

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
	return run(m, opts, store)
}

// loadStored fills results and ready for every job whose successful
// result the store holds and returns every job's key. Loading is
// read-only per job, so it runs on the same pool as the jobs; index i
// writes only keys[i], results[i] and ready[i].
func loadStored(scenarios []Scenario, opts Options, store *checkpoint.Store, results []JobResult, ready []bool) [][32]byte {
	keys := make([][32]byte, len(scenarios))
	prJSON := protocolJSON(opts.Protocol)
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
	return keys
}

// persist writes a successful job's payload to the store; failed jobs
// (errors and recovered panics) are never persisted.
func persist(store *checkpoint.Store, key [32]byte, jr *JobResult) error {
	if jr.Error != "" || jr.Result == nil {
		return nil
	}
	payload, err := appendJobResult(nil, jr)
	if err != nil {
		return err
	}
	return store.Put(key, payload)
}
