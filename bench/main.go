// Command bench is the repository's benchmark: seven workloads, each a
// closed batch run one at a time in this one process, with the
// end-to-end metrics of BENCHMARK.json measured untraced and the
// per-layer metrics measured in a separate traced run. See README.md.
//
//	go run ./bench                                  every workload, metrics as a table
//	go run ./bench -workload fig13 -seed 7          one workload; the last line is its JSON result
//	go run ./bench -workload drain-tail -trace 1    the traced run: per-layer metrics, spans, CPU profile
package main

import (
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer list.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd lists the metrics a user of the simulator would see. wall_s
// and router_cycles_per_s are host time; the numerator of the second is
// a simulated, deterministic count.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"router_cycles_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
}

//go:embed golden.json
var goldenJSON []byte

// goldenPath is where -update-golden writes, relative to the repository
// root the benchmark is run from.
const goldenPath = "bench/golden.json"

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of a workload's output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report is the machine-readable copy of one workload's table (-json).
type report struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Traced     bool               `json:"traced"`
	Result     result             `json:"result"`
	Samples    map[string]summary `json:"samples,omitempty"`
	Late       map[string][]int   `json:"late_reps,omitempty"`
	Unresolved map[string]string  `json:"unresolved,omitempty"`
	Digest     string             `json:"digest"`
	Problems   []string           `json:"problems,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names        = fs.String("workload", "all", "comma-separated workloads to run, or all")
		seed         = fs.Uint64("seed", 1, "seed every simulator seed is derived from; the golden digests are checked at seed 1")
		seconds      = fs.Float64("seconds", 10, "how long each workload measures")
		traceArg     = fs.String("trace", "0", "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run; DIR: traced, writing spans.json and CPU profiles to DIR")
		jsonPath     = fs.String("json", "", "also write the results to this file as JSON")
		updateGolden = fs.Bool("update-golden", false, "run every workload once at seed 1 and rewrite "+goldenPath)
	)
	fs.StringVar(names, "workloads", "all", "alias of -workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	selected, err := selectWorkloads(*names)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	golden := make(map[string]string)
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", goldenPath, err)
		return 2
	}

	// Everything the benchmark writes stays under .bench_build in the
	// directory it is run from.
	dir := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	defer os.RemoveAll(dir)
	e := &env{seed: *seed, workers: runtime.GOMAXPROCS(0), dir: dir}

	if *updateGolden {
		return writeGolden(e, stdout, stderr)
	}

	traceDir := ""
	switch *traceArg {
	case "0", "":
	case "1":
		traceDir = filepath.Join(".bench_build", "trace")
	default:
		traceDir = *traceArg
	}

	fmt.Fprintf(stdout, "routersim bench: seed %d, %.3g s per workload, GOMAXPROCS %d of %d cores, %s\n",
		e.seed, *seconds, e.workers, runtime.NumCPU(), runtime.Version())
	fmt.Fprintln(stdout, "closed batch: one workload at a time, one process. Simulated statistics are validated only against the six numbers of the paper's Figure 13.")
	if runtime.NumCPU() < 2 {
		fmt.Fprintln(stderr, "bench: fewer than 2 cores: shard.* and network.stepworkers2_speedup are reported as unresolved (0), and mesh32-load30-shards2 measures sharding overhead, not speed-up")
	}

	var reports []report
	code := 0
	for _, w := range selected {
		var rep report
		var err error
		if traceDir == "" {
			rep, err = runUntraced(e, w, *seconds, golden)
		} else {
			rep, err = runTraced(e, w, *seconds, traceDir, golden, stderr)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		printReport(stdout, w, rep)
		if !rep.Result.Correct {
			code = 1
		}
		reports = append(reports, rep)
	}
	if *jsonPath != "" {
		b, err := json.MarshalIndent(reports, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return code
}

func selectWorkloads(names string) ([]*workload, error) {
	all := workloads()
	if names == "all" || names == "" {
		return all, nil
	}
	var out []*workload
	for _, name := range strings.Split(names, ",") {
		found := false
		for _, w := range all {
			if w.name == name {
				out = append(out, w)
				found = true
			}
		}
		if !found {
			var known []string
			for _, w := range all {
				known = append(known, w.name)
			}
			return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(known, ", "))
		}
	}
	return out, nil
}

// Set-up is measured once before every repetition of the timed region,
// so that its samples are spread over the whole run as the region's are,
// and at least minSetups times; the median is reported. Each measurement
// repeats the set-up for a hundredth of the run's length (100 ms of a
// 10-second run) and divides, so that millisecond set-ups are timed over
// many repetitions.
const (
	minSetups = 5
	minReps   = 3
)

// measureSetup returns one measurement of the workload's set-up time in
// seconds, taken over batch seconds.
func measureSetup(e *env, w *workload, batch float64) (float64, error) {
	n := 0
	start := time.Now()
	for n == 0 || time.Since(start).Seconds() < batch {
		if err := w.setup(e); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		n++
	}
	return time.Since(start).Seconds() / float64(n), nil
}

// runUntraced measures the end-to-end metrics: the timed region again
// and again until seconds have been measured, at least minReps times,
// with a set-up measurement before each.
func runUntraced(e *env, w *workload, seconds float64, golden map[string]string) (report, error) {
	if w.prepare != nil {
		if err := w.prepare(e); err != nil {
			return report{}, err
		}
	}
	var (
		walls, allocs, setups []float64
		first                 outcome
		total                 outcome
		measured              float64
	)
	setup := func() error {
		s, err := measureSetup(e, w, seconds/100)
		setups = append(setups, s)
		return err
	}
	for rep := 0; rep < minReps || measured+median(walls) <= seconds; rep++ {
		if err := setup(); err != nil {
			return report{}, err
		}
		o, err := w.run(e)
		if err != nil {
			return report{}, err
		}
		if rep == 0 {
			first = o
		} else if o.digest != first.digest {
			// A deterministic simulator gives every repetition the same
			// bytes; anything else fails the whole repetition.
			o.fail(o.attempted-o.failed, "rep %d: output digest %x differs from rep 0's %x", rep, o.digest[:6], first.digest[:6])
		}
		walls = append(walls, o.wall)
		allocs = append(allocs, o.allocMB)
		measured += o.wall
		total.add(o)
	}
	for len(setups) < minSetups {
		if err := setup(); err != nil {
			return report{}, err
		}
	}
	checkGolden(e, w, golden, &total, first.digest)

	wall := median(walls)
	rep := report{
		Workload: w.name,
		Seed:     e.seed,
		Digest:   hex.EncodeToString(first.digest[:]),
		Problems: total.problems,
		Samples: map[string]summary{
			"wall_s":   summarize(walls),
			"setup_s":  summarize(setups),
			"alloc_mb": summarize(allocs),
		},
		Late: map[string][]int{},
		Result: result{
			Correct:   total.failed == 0,
			Attempted: total.attempted,
			Failed:    total.failed,
			Metrics: map[string]value{
				"wall_s":              {wall, "s"},
				"router_cycles_per_s": {float64(first.routerCycles) / wall, "1/s"},
				"setup_s":             {median(setups), "s"},
				"alloc_mb":            {median(allocs), "MB"},
			},
		},
	}
	for name, vals := range map[string][]float64{"wall_s": walls, "setup_s": setups} {
		if late := lateReps(vals); len(late) > 0 {
			rep.Late[name] = late
		}
	}
	return rep, nil
}

// checkGolden applies the seed-1 gate: the output must hash to the
// recorded digest, so a change meant to move host time only has left
// every simulated statistic as it was. A mismatch fails every operation.
func checkGolden(e *env, w *workload, golden map[string]string, o *outcome, digest [32]byte) {
	if e.seed != 1 {
		return
	}
	got := hex.EncodeToString(digest[:])
	if want := golden[w.name]; want != got {
		o.fail(o.attempted-o.failed, "seed-1 output digest %s differs from the golden %q: a simulated statistic changed", got, want)
	}
}

// writeGolden runs every workload once at seed 1 and records the
// digests.
func writeGolden(e *env, stdout, stderr io.Writer) int {
	if e.seed != 1 {
		fmt.Fprintln(stderr, "bench: -update-golden records seed 1; drop -seed")
		return 2
	}
	golden := make(map[string]string)
	for _, w := range workloads() {
		if w.prepare != nil {
			if err := w.prepare(e); err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
		}
		o, err := w.run(e)
		if err != nil || o.failed > 0 {
			fmt.Fprintf(stderr, "bench: %s: %v %v\n", w.name, err, o.problems)
			return 1
		}
		golden[w.name] = hex.EncodeToString(o.digest[:])
		fmt.Fprintf(stdout, "%-24s %s\n", w.name, golden[w.name])
	}
	b, err := json.MarshalIndent(golden, "", "  ")
	if err == nil {
		err = os.WriteFile(goldenPath, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// printReport prints every metric by name with its unit, the spread of
// the samples behind each median, what went wrong if anything did, and
// last the one-line JSON result.
func printReport(out io.Writer, w *workload, rep report) {
	fmt.Fprintf(out, "\nworkload %s (seed %d): %s\n", w.name, rep.Seed, w.why)
	names := make([]string, 0, len(rep.Result.Metrics))
	for name := range rep.Result.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := rep.Result.Metrics[name]
		fmt.Fprintf(out, "  %-36s %14.6g %-6s", name, v.Value, v.Unit)
		if why, ok := rep.Unresolved[name]; ok {
			fmt.Fprintf(out, " unresolved: %s", why)
		}
		if s, ok := rep.Samples[name]; ok {
			fmt.Fprintf(out, " n=%d min %.6g q1 %.6g q3 %.6g max %.6g", s.N, s.Min, s.Q1, s.Q3, s.Max)
		}
		if late := rep.Late[name]; len(late) > 0 {
			fmt.Fprintf(out, " late (>1.25x median): reps %v", late)
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "  failed %d of %d operations; output digest %.16s\n", rep.Result.Failed, rep.Result.Attempted, rep.Digest)
	for _, p := range rep.Problems {
		fmt.Fprintln(out, "  FAILED:", p)
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		panic(fmt.Sprintf("bench: result not serializable: %v", err)) // finite floats and strings; unreachable
	}
	fmt.Fprintf(out, "%s\n", line)
}
