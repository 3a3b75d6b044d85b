package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"routersim/internal/trace"
)

// serialize runs the matrix with the given worker count and returns the
// JSON and CSV payload bytes.
func serialize(t *testing.T, m Matrix, seed uint64, workers int) (string, string) {
	t.Helper()
	opts := Options{
		Workers:  workers,
		Seed:     seed,
		Protocol: Protocol{Warmup: 300, Packets: 150},
	}
	results, err := Run(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	var js, csv strings.Builder
	if err := WriteJSON(&js, results); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&csv, results); err != nil {
		t.Fatal(err)
	}
	return js.String(), csv.String()
}

// TestDeterminismAcrossWorkerCounts is the harness's core guarantee,
// and — run under -race in CI — also certifies the worker pool: the
// same seed must produce byte-identical serialized results no matter
// how the jobs were sharded over workers.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	m := Matrix{
		Routers:  []string{"wormhole", "vc", "spec-vc"},
		Ks:       []int{4},
		Patterns: []string{"uniform", "transpose", "bit-complement"},
		Loads:    []float64{0.1, 0.3},
	}
	baseJSON, baseCSV := serialize(t, m, 42, 1)
	for _, workers := range []int{2, 4, 16} {
		js, csv := serialize(t, m, 42, workers)
		if js != baseJSON {
			t.Errorf("JSON payload diverged between 1 and %d workers", workers)
		}
		if csv != baseCSV {
			t.Errorf("CSV payload diverged between 1 and %d workers", workers)
		}
	}
}

// TestDeterminismRepeatedRuns: the same seed must reproduce the same
// bytes across repeated runs of the same process.
func TestDeterminismRepeatedRuns(t *testing.T) {
	m := Matrix{Ks: []int{4}, Loads: []float64{0.1, 0.2}}
	a, _ := serialize(t, m, 7, 0)
	b, _ := serialize(t, m, 7, 0)
	if a != b {
		t.Error("same seed diverged across runs")
	}
}

// TestShardDeterminism certifies the lookahead-sharded engine at the
// harness level: the same matrix run single-range and with several
// shard counts must produce byte-identical measurement payloads. The
// scenario's shards field necessarily differs, so the comparison
// covers the serialized *results* of each job. Run under -race in CI,
// this also certifies the shard gang and window barriers.
func TestShardDeterminism(t *testing.T) {
	run := func(shards int) []JobResult {
		m := Matrix{
			Routers: []string{"wormhole", "spec-vc"},
			Ks:      []int{4},
			Loads:   []float64{0.2, 0.5},
			Shards:  []int{shards},
		}
		results, err := Run(m, Options{Seed: 42, Protocol: Protocol{Warmup: 300, Packets: 150}})
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	base := run(0)
	for _, shards := range []int{2, 4} {
		results := run(shards)
		if len(results) != len(base) {
			t.Fatalf("%d shards: %d jobs vs %d single-range", shards, len(results), len(base))
		}
		for i := range base {
			var b, r strings.Builder
			if err := WriteJSON(&b, []JobResult{{Result: base[i].Result, Seed: base[i].Seed}}); err != nil {
				t.Fatal(err)
			}
			if err := WriteJSON(&r, []JobResult{{Result: results[i].Result, Seed: results[i].Seed}}); err != nil {
				t.Fatal(err)
			}
			if b.String() != r.String() {
				t.Errorf("job %d (%s): result payload diverged between single-range and %d-shard engine",
					i, base[i].Scenario.Label(), shards)
			}
		}
	}
}

// TestReplayDeterminismAcrossWorkersAndSeeds closes the record/replay
// loop at the harness level: a workload recorded once and replayed
// through the matrix engine must serialize byte-identically across
// pool worker counts, shard counts (the scenario matrix crosses one
// shard and two, so both appear in one payload), and —
// because a replayed workload consumes no randomness — across base
// seeds as well, once the per-job seed column is normalized out. Run
// under -race in CI, this certifies the whole replay path end to end.
func TestReplayDeterminismAcrossWorkersAndSeeds(t *testing.T) {
	path := t.TempDir() + "/recorded.trace"
	rec := Scenario{
		Router: "spec-vc", K: 4,
		Source: "mmpp:on=20,off=60",
		Sizes:  "bimodal:small=1,large=9,p=0.1",
		Load:   0.2,
	}
	if _, err := RunScenarioRecorded(rec, Options{Seed: 11, Protocol: Protocol{Warmup: 300, Packets: 150}}, path); err != nil {
		t.Fatal(err)
	}
	m := Matrix{
		Routers: []string{"spec-vc"},
		Ks:      []int{4},
		Sources: []string{"trace:file=" + path},
		Shards:  []int{0, 2},
	}
	baseJSON, baseCSV := serialize(t, m, 42, 1)
	if !strings.Contains(baseCSV, "trace:file=") {
		t.Fatalf("CSV payload does not carry the source column:\n%s", baseCSV)
	}
	for _, workers := range []int{2, 8} {
		js, csv := serialize(t, m, 42, workers)
		if js != baseJSON {
			t.Errorf("replay JSON payload diverged between 1 and %d workers", workers)
		}
		if csv != baseCSV {
			t.Errorf("replay CSV payload diverged between 1 and %d workers", workers)
		}
	}
	// A different base seed changes each job's derived seed but must not
	// change any measurement: strip the seed fields and compare.
	otherJSON, _ := serialize(t, m, 1234, 1)
	if stripSeeds(otherJSON) != stripSeeds(baseJSON) {
		t.Error("replay measurements changed with the base seed; the replayer is consuming randomness")
	}
}

// stripSeeds removes `"seed":N` fields from a JSON payload so replay
// runs under different base seeds can be compared on measurements.
func stripSeeds(js string) string {
	for {
		i := strings.Index(js, `"seed":`)
		if i < 0 {
			return js
		}
		j := i + len(`"seed":`)
		for j < len(js) && js[j] >= '0' && js[j] <= '9' {
			j++
		}
		js = js[:i] + js[j:]
	}
}

// TestSeedChangesPayload: a different seed must actually change the
// measurements (otherwise the seed is not wired through).
func TestSeedChangesPayload(t *testing.T) {
	m := Matrix{Ks: []int{4}, Loads: []float64{0.2}}
	a, _ := serialize(t, m, 1, 0)
	b, _ := serialize(t, m, 2, 0)
	if a == b {
		t.Error("different seeds produced identical payloads (suspicious)")
	}
}

// TestRecordedRunIsTheRun: RunScenarioRecorded is RunScenario plus a
// capture — the same job, so the same result bytes on success, and the
// same job error, with no trace written, when the job fails (here the
// auditor refusing a negative interval, which an unaudited recorded run
// once skipped).
func TestRecordedRunIsTheRun(t *testing.T) {
	sc := Scenario{Router: "spec-vc", K: 4, Load: 0.2}
	opts := Options{Seed: 3, Audit: 50, Protocol: Protocol{Warmup: 300, Packets: 150}}
	path := filepath.Join(t.TempDir(), "run.trace")
	plain, err := RunScenario(sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := RunScenarioRecorded(sc, opts, path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeJob(t, rec), encodeJob(t, plain)) {
		t.Error("the recorded run's result differs from the plain run's")
	}
	if tr, err := trace.ReadFile(path); err != nil || len(tr.Events) == 0 {
		t.Errorf("recorded trace: %v", err)
	}

	opts.Audit = -1
	badPath := filepath.Join(t.TempDir(), "bad.trace")
	plain, err = RunScenario(sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	rec, err = RunScenarioRecorded(sc, opts, badPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plain.Error, "negative audit interval") || rec.Error != plain.Error {
		t.Errorf("recorded run error %q, plain run error %q; want the same negative-audit job error", rec.Error, plain.Error)
	}
	if _, err := os.Stat(badPath); !os.IsNotExist(err) {
		t.Errorf("a failed recorded run wrote its trace (stat: %v)", err)
	}
	if _, err := RunScenarioRecorded(Scenario{Router: "spec-vc", K: 4, Source: "trace:file=" + path}, opts, badPath); err == nil {
		t.Error("recording a trace replay should be refused")
	}
}
