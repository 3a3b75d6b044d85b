package harness

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"

	"routersim/internal/checkpoint"
	"routersim/internal/rng"
	"routersim/internal/sim"
)

func resumeMatrix() Matrix {
	return Matrix{
		Routers: []string{"wormhole", "vc"},
		Loads:   []float64{0.1, 0.3},
	}
}

// render serializes results both ways; resume identity is a claim
// about output bytes, not in-memory structs.
func render(t *testing.T, results []JobResult) (jsonB, csvB []byte) {
	t.Helper()
	var jb, cb bytes.Buffer
	if err := WriteJSON(&jb, results); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&cb, results); err != nil {
		t.Fatal(err)
	}
	return jb.Bytes(), cb.Bytes()
}

// TestResumeIdentity: an interrupted-then-resumed sweep must emit
// byte-identical JSON and CSV to an uninterrupted one, at any worker
// count — both from a cold store (everything runs) and from a store
// holding a partial prior run (only the remainder runs).
func TestResumeIdentity(t *testing.T) {
	m := resumeMatrix()
	opts := tinyOptions()
	base, err := Run(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, wantCSV := render(t, base)

	for _, workers := range []int{1, 2, 8} {
		store, err := checkpoint.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		o := opts
		o.Workers = workers
		var streamed []JobResult
		o.OnResult = func(r JobResult) { streamed = append(streamed, r) }
		results, err := RunResumable(m, o, store)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		gotJSON, gotCSV := render(t, results)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("workers=%d: cold-store JSON diverges from plain Run", workers)
		}
		if !bytes.Equal(gotCSV, wantCSV) {
			t.Fatalf("workers=%d: cold-store CSV diverges from plain Run", workers)
		}
		sj, _ := render(t, streamed)
		if !bytes.Equal(sj, wantJSON) {
			t.Fatalf("workers=%d: OnResult stream diverges from returned results", workers)
		}
		if n, err := store.Len(); err != nil || n != len(base) {
			t.Fatalf("workers=%d: store holds %d entries (err %v), want %d", workers, n, err, len(base))
		}

		// Interrupt simulation: drop some persisted entries, resume, and
		// check that only the dropped jobs re-run, that OnResult still
		// streams in index order, and that the bytes still match.
		index := entryIndex(m, o)
		want := map[int]bool{}
		for _, name := range removeSomeEntries(t, store.Dir(), 2) {
			want[index[name]] = true
		}
		streamed = nil
		ran := ranJobs(&o)
		resumed, err := RunResumable(m, o, store)
		if err != nil {
			t.Fatalf("workers=%d resume: %v", workers, err)
		}
		if !maps.Equal(ran, want) {
			t.Errorf("workers=%d: resume ran jobs %v, want %v (the interrupted remainder)", workers, ran, want)
		}
		gotJSON, gotCSV = render(t, resumed)
		if !bytes.Equal(gotJSON, wantJSON) || !bytes.Equal(gotCSV, wantCSV) {
			t.Fatalf("workers=%d: resumed output diverges from uninterrupted run", workers)
		}
		if sj, _ := render(t, streamed); !bytes.Equal(sj, wantJSON) {
			t.Fatalf("workers=%d: resumed OnResult stream is not the results in index order", workers)
		}
	}
}

// removeSomeEntries deletes n checkpoint entries from dir, simulating
// a sweep killed before those jobs persisted, and returns their names.
func removeSomeEntries(t *testing.T, dir string, n int) []string {
	t.Helper()
	names := entryNames(t, dir)
	if len(names) < n {
		t.Fatalf("store has %d entries, need %d to remove", len(names), n)
	}
	for _, name := range names[:n] {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	return names[:n]
}

// entryIndex maps each job's checkpoint entry name to the job's index.
func entryIndex(m Matrix, opts Options) map[string]int {
	prJSON := protocolJSON(opts.Protocol)
	index := make(map[string]int)
	for i, sc := range m.Expand() {
		key := jobKey(sc, rng.Derive(opts.Seed, uint64(i)), prJSON)
		index[hex.EncodeToString(key[:])+".ck"] = i
	}
	return index
}

// ranJobs sets o.Progress to record the index of every job that ran
// (the harness reports no loaded job) and returns the record; read it
// after RunResumable returns.
func ranJobs(o *Options) map[int]bool {
	var mu sync.Mutex
	ran := map[int]bool{}
	o.Progress = func(_, _ int, r JobResult) {
		mu.Lock()
		defer mu.Unlock()
		ran[r.Index] = true
	}
	return ran
}

func entryNames(t testing.TB, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		if strings.HasSuffix(de.Name(), ".ck") {
			names = append(names, de.Name())
		}
	}
	return names
}

// TestResumeSkipsQuarantined: a corrupted store entry is quarantined,
// its job re-runs, and the output is unchanged — disk rot costs a
// re-run, never wrong numbers and never a crash.
func TestResumeSkipsQuarantined(t *testing.T) {
	m := resumeMatrix()
	opts := tinyOptions()
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunResumable(m, opts, store)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, wantCSV := render(t, base)

	names := entryNames(t, store.Dir())
	path := filepath.Join(store.Dir(), names[0])
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	var ran int
	opts.Progress = func(done, total int, r JobResult) { ran++ }
	resumed, err := RunResumable(m, opts, store)
	if err != nil {
		t.Fatal(err)
	}
	if store.Quarantined() != 1 {
		t.Errorf("Quarantined() = %d, want 1", store.Quarantined())
	}
	if ran != 1 {
		t.Errorf("resume ran %d jobs, want 1 (the quarantined one)", ran)
	}
	gotJSON, gotCSV := render(t, resumed)
	if !bytes.Equal(gotJSON, wantJSON) || !bytes.Equal(gotCSV, wantCSV) {
		t.Fatal("output after quarantine diverges from clean run")
	}
	if _, err := os.Stat(path + checkpoint.QuarantineExt); err != nil {
		t.Errorf("corrupt entry not moved aside: %v", err)
	}
}

// fakeResult builds a minimal successful JobResult the resume
// verifier accepts: correct index, canonical scenario, derived seed,
// non-nil Result.
func fakeResult(i int, sc Scenario, opts Options) JobResult {
	return JobResult{
		Index:    i,
		Scenario: sc,
		Seed:     rng.Derive(opts.Seed, uint64(i)),
		Result:   &sim.Result{Cycles: int64(1000 + i)},
	}
}

// TestPanicIsolation: one deliberately panicking job must land as a
// structured JobError row while every other job completes, and the
// failed row must not be persisted — a resume retries it.
func TestPanicIsolation(t *testing.T) {
	m := resumeMatrix()
	opts := tinyOptions()
	opts.Retries = -1
	opts.runFn = func(i int, sc Scenario, o Options) JobResult {
		if i == 1 {
			panic("synthetic job failure")
		}
		return fakeResult(i, sc, o)
	}
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunResumable(m, opts, store)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if i == 1 {
			continue
		}
		if r.Error != "" || r.Result == nil {
			t.Errorf("job %d: collateral damage from job 1's panic: %+v", i, r)
		}
	}
	bad := results[1]
	if bad.Error != "panic: synthetic job failure" {
		t.Errorf("Error = %q, want panic message", bad.Error)
	}
	if bad.Failure == nil {
		t.Fatal("panicked job carries no structured Failure")
	}
	if bad.Failure.Scenario != m.Expand()[1].Label() {
		t.Errorf("Failure.Scenario = %q, want %q", bad.Failure.Scenario, m.Expand()[1].Label())
	}
	if bad.Failure.Message != "synthetic job failure" {
		t.Errorf("Failure.Message = %q", bad.Failure.Message)
	}
	if bad.Failure.Attempts != 1 {
		t.Errorf("Failure.Attempts = %d, want 1 with retries disabled", bad.Failure.Attempts)
	}
	if !strings.Contains(bad.Failure.Stack, "recover_test.go") &&
		!strings.Contains(bad.Failure.Stack, "resume_test.go") {
		t.Errorf("stack does not reach the panic site:\n%s", bad.Failure.Stack)
	}
	if regexp.MustCompile(`goroutine \d`).MatchString(bad.Failure.Stack) {
		t.Errorf("stack keeps a nondeterministic goroutine ID:\n%s", bad.Failure.Stack)
	}
	// Hex addresses are masked so identical failures serialize
	// identically across runs.
	for _, line := range strings.Split(bad.Failure.Stack, "\n") {
		if i := strings.Index(line, "0x"); i >= 0 && !strings.HasPrefix(line[i:], "0x…") {
			t.Errorf("unmasked address in stack line %q", line)
		}
	}
	if n, err := store.Len(); err != nil || n != len(results)-1 {
		t.Errorf("store holds %d entries (err %v); the failed job must not be persisted", n, err)
	}

	// The resume retries exactly the failed job — this time it succeeds.
	var reran []int
	opts.runFn = func(i int, sc Scenario, o Options) JobResult {
		reran = append(reran, i)
		return fakeResult(i, sc, o)
	}
	opts.Workers = 1
	again, err := RunResumable(m, opts, store)
	if err != nil {
		t.Fatal(err)
	}
	if len(reran) != 1 || reran[0] != 1 {
		t.Errorf("resume re-ran jobs %v, want [1]", reran)
	}
	if again[1].Error != "" || again[1].Result == nil {
		t.Errorf("retried job still failing: %+v", again[1])
	}
}

// TestRetrySemantics exercises the retry budget through the plain Run
// path: default single retry recovers a transient panic, a negative
// budget disables retries, and a positive budget is honored exactly.
func TestRetrySemantics(t *testing.T) {
	m := Matrix{Routers: []string{"wormhole"}, Loads: []float64{0.1}}

	t.Run("default-retry-recovers-transient", func(t *testing.T) {
		attempts := 0
		opts := tinyOptions()
		opts.Workers = 1
		opts.runFn = func(i int, sc Scenario, o Options) JobResult {
			attempts++
			if attempts == 1 {
				panic("transient")
			}
			return fakeResult(i, sc, o)
		}
		results, err := Run(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		if results[0].Error != "" || results[0].Failure != nil {
			t.Errorf("transient panic not absorbed by the default retry: %+v", results[0])
		}
		if attempts != 2 {
			t.Errorf("job ran %d times, want 2", attempts)
		}
	})

	t.Run("negative-disables", func(t *testing.T) {
		attempts := 0
		opts := tinyOptions()
		opts.Workers = 1
		opts.Retries = -1
		opts.runFn = func(i int, sc Scenario, o Options) JobResult {
			attempts++
			panic("persistent")
		}
		results, err := Run(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		if attempts != 1 {
			t.Errorf("job ran %d times with retries disabled, want 1", attempts)
		}
		if results[0].Failure == nil || results[0].Failure.Attempts != 1 {
			t.Errorf("failure row wrong: %+v", results[0].Failure)
		}
	})

	t.Run("positive-budget-exact", func(t *testing.T) {
		attempts := 0
		opts := tinyOptions()
		opts.Workers = 1
		opts.Retries = 2
		opts.runFn = func(i int, sc Scenario, o Options) JobResult {
			attempts++
			panic("persistent")
		}
		results, err := Run(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		if attempts != 3 {
			t.Errorf("job ran %d times with a 2-retry budget, want 3", attempts)
		}
		if results[0].Failure == nil || results[0].Failure.Attempts != 3 {
			t.Errorf("failure row wrong: %+v", results[0].Failure)
		}
	})

	t.Run("plain-errors-not-retried", func(t *testing.T) {
		// A scenario the simulation rejects returns an error, not a panic;
		// it must fail once, immediately, with no Failure record.
		bad := Matrix{Routers: []string{"no-such-router"}, Loads: []float64{0.1}}
		opts := tinyOptions()
		results, err := Run(bad, opts)
		if err != nil {
			t.Fatal(err)
		}
		if results[0].Error == "" || results[0].Failure != nil {
			t.Errorf("config error row wrong: %+v", results[0])
		}
	})
}

// storeV1Matrix and storeV1Options are the sweep testdata/store-v1 was
// filled by, at the last commit whose entries and keys came from
// encoding/json: twelve jobs, half with a faults spec, half saturated.
func storeV1Matrix() Matrix {
	return Matrix{
		Routers: []string{"wormhole", "vc", "spec-vc"},
		Ks:      []int{4},
		Faults:  []string{"", "link:5-6@cycle=200"},
		Loads:   []float64{0.1, 0.9},
	}
}

func storeV1Options() Options {
	return Options{Seed: 5, Protocol: Protocol{Warmup: 200, Packets: 100}}
}

// copyStoreV1 copies the checked-in store to a scratch directory (a
// resume may quarantine or add entries) and returns it opened, with the
// JSON and CSV the sweep that filled it wrote.
func copyStoreV1(t testing.TB) (store *checkpoint.Store, wantJSON, wantCSV []byte) {
	t.Helper()
	const src = "testdata/store-v1"
	dir := t.TempDir()
	for _, name := range entryNames(t, src) {
		b, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	store, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if wantJSON, err = os.ReadFile(filepath.Join(src, "results.json")); err != nil {
		t.Fatal(err)
	}
	if wantCSV, err = os.ReadFile(filepath.Join(src, "results.csv")); err != nil {
		t.Fatal(err)
	}
	return store, wantJSON, wantCSV
}

// TestResumeStoreV1: a store written through encoding/json, before the
// codec, resumes with no job run and reproduces that sweep's bytes —
// keys, entry payloads, JSON and CSV are all unchanged.
func TestResumeStoreV1(t *testing.T) {
	store, wantJSON, wantCSV := copyStoreV1(t)
	opts := storeV1Options()
	ran := 0
	opts.Progress = func(int, int, JobResult) { ran++ }
	results, err := RunResumable(storeV1Matrix(), opts, store)
	if err != nil {
		t.Fatal(err)
	}
	if ran != 0 || len(results) != 12 {
		t.Errorf("resume ran %d of %d jobs, want 0 of 12", ran, len(results))
	}
	if n := store.Quarantined(); n != 0 {
		t.Errorf("%d entries quarantined", n)
	}
	gotJSON, gotCSV := render(t, results)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("JSON diverges from the sweep that filled the store\n got %s\nwant %s", gotJSON, wantJSON)
	}
	if !bytes.Equal(gotCSV, wantCSV) {
		t.Errorf("CSV diverges from the sweep that filled the store\n got %s\nwant %s", gotCSV, wantCSV)
	}
	// And the engine still writes those entries: a cold sweep fills a
	// fresh store with the same files, byte for byte.
	fresh, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunResumable(storeV1Matrix(), storeV1Options(), fresh); err != nil {
		t.Fatal(err)
	}
	names := entryNames(t, fresh.Dir())
	if len(names) != 12 {
		t.Fatalf("cold sweep stored %d entries, want 12", len(names))
	}
	for _, name := range names {
		got, err := os.ReadFile(filepath.Join(fresh.Dir(), name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata/store-v1", name))
		if err != nil {
			t.Fatalf("cold sweep stored an entry the checked-in store lacks: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("entry %s differs from the checked-in one", name)
		}
	}
}

// TestResumeMissRule: a resume over a store that mixes hits with every
// kind of miss loads exactly the hits, at any worker count. An entry
// whose checksum holds but whose payload is not the bytes this engine
// serializes for that job (re-indented JSON, another job's payload, a
// null result) is a miss: the job re-runs and nothing is quarantined,
// since the file is intact. A missing entry re-runs; a corrupt one is
// quarantined and re-runs. Output, quarantine count and the OnResult
// stream equal the clean run's at every worker count.
func TestResumeMissRule(t *testing.T) {
	reindent := func(payload []byte) []byte {
		var b bytes.Buffer
		if err := json.Indent(&b, payload, "", "  "); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	nullResult := func(payload []byte) []byte {
		i, j := bytes.Index(payload, []byte(`"result":{`)), bytes.Index(payload, []byte(`,"delay_model"`))
		return append(append(append([]byte(nil), payload[:i]...), `"result":null`...), payload[j:]...)
	}
	index := entryIndex(storeV1Matrix(), storeV1Options())
	for _, workers := range []int{1, 2, 8} {
		store, wantJSON, wantCSV := copyStoreV1(t)
		names := entryNames(t, store.Dir())
		path := func(name string) string { return filepath.Join(store.Dir(), name) }
		read := func(name string) []byte {
			b, err := os.ReadFile(path(name))
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		payload := func(name string) []byte {
			p, err := checkpoint.Decode(read(name))
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		write := func(name string, entry []byte) {
			if err := os.WriteFile(path(name), entry, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		for name, bad := range map[string][]byte{
			names[2]: reindent(payload(names[2])),
			names[3]: payload(names[7]),
			names[5]: nullResult(payload(names[5])),
		} {
			var probe JobResult
			if err := json.Unmarshal(bad, &probe); err != nil {
				t.Fatalf("the rewritten payload must stay valid JSON: %v", err)
			}
			write(name, checkpoint.Encode(bad))
		}
		corrupt := read(names[9])
		corrupt[len(corrupt)-1] ^= 0xff
		write(names[9], corrupt)
		if err := os.Remove(path(names[11])); err != nil {
			t.Fatal(err)
		}
		missed := []string{names[2], names[3], names[5], names[9], names[11]}
		want := map[int]bool{}
		for _, name := range missed {
			want[index[name]] = true
		}

		opts := storeV1Options()
		opts.Workers = workers
		ran := ranJobs(&opts)
		var streamed []JobResult
		opts.OnResult = func(r JobResult) { streamed = append(streamed, r) }
		results, err := RunResumable(storeV1Matrix(), opts, store)
		if err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(ran, want) {
			t.Errorf("workers=%d: resume ran jobs %v, want %v", workers, ran, want)
		}
		if n := store.Quarantined(); n != 1 {
			t.Errorf("workers=%d: %d entries quarantined, want 1 (the corrupt one); a valid checksum is not corruption", workers, n)
		}
		gotJSON, gotCSV := render(t, results)
		if !bytes.Equal(gotJSON, wantJSON) || !bytes.Equal(gotCSV, wantCSV) {
			t.Errorf("workers=%d: output diverges from the clean run", workers)
		}
		if sj, _ := render(t, streamed); !bytes.Equal(sj, wantJSON) {
			t.Errorf("workers=%d: OnResult stream is not the results in index order", workers)
		}
		// Every re-run job restored its entry with the engine's bytes.
		for _, name := range missed {
			entry, err := os.ReadFile(filepath.Join("testdata/store-v1", name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(read(name), entry) {
				t.Errorf("workers=%d: the re-run did not restore entry %s", workers, name)
			}
		}
	}
}

// BenchmarkResumeLoad times the read side of a resumed sweep: one op
// is a fully cached RunResumable over the checked-in twelve-entry
// store (key, read, checksum, decode and verify per job; no
// simulation, no output), reported per loaded job, with the load on
// one worker and on two.
func BenchmarkResumeLoad(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			store, _, _ := copyStoreV1(b)
			m, opts := storeV1Matrix(), storeV1Options()
			opts.Workers = workers
			opts.Progress = func(int, int, JobResult) { b.Error("a job ran instead of loading") }
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			jobs := 0
			for i := 0; i < b.N; i++ {
				results, err := RunResumable(m, opts, store)
				if err != nil {
					b.Fatal(err)
				}
				jobs += len(results)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(jobs), "ns/job")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(jobs), "B/job")
		})
	}
}
