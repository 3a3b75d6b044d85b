// Command sweep runs experiment matrices over the simulator and
// regenerates the simulated figures of the paper's evaluation.
//
// Matrix mode expands the cross product of the axis flags into jobs and
// runs them on a bounded worker pool with per-job derived seeds; the
// same -seed yields byte-identical -json/-csv payloads regardless of
// -workers or GOMAXPROCS:
//
//	sweep -routers wormhole,vc,spec-vc -loads 0.1:0.9:0.1 -json -
//	sweep -patterns uniform,transpose,bit-complement -k 8 -csv out.csv
//	sweep -topos torus -routers spec-vc -vcs 2,4 -loads 0.2,0.4 -json -
//	sweep -topos mesh,torus:k=4:n=3,hypercube:64,ring:16 -routers spec-vc -json -
//	sweep -sources const,mmpp:on=20,off=60 -sizes bimodal:small=1,large=9,p=0.1 -csv -
//	sweep -overrides '|0:vcs=4,buf=8;3-5:delay=2' -routers vc -loads 0.2,0.4 -csv -
//	sweep -routing dor,adaptive:minimal -faults '|link:3-7@cycle=1000' -csv -
//
// Saturation mode replaces the loads axis with an adaptive bisection,
// emitting each scenario's knee (saturation load, delivered throughput,
// and search cost) as one row:
//
//	sweep -saturation -routers wormhole,vc,spec-vc -sat-tol 0.02 -csv -
//	sweep -saturation -topos mesh,torus -routers spec-vc -json -
//
// Figure mode reproduces the paper's simulated figures:
//
//	sweep -figure 13              # quick protocol (scaled sample)
//	sweep -figure 14 -full        # the paper's exact protocol
//	sweep -figure 18 -csv out.csv
//	sweep -all                    # all five simulated figures
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"

	"routersim"
	"routersim/internal/harness"
)

var (
	// Figure mode.
	figure = flag.String("figure", "", "figure to regenerate: 13, 14, 15, 17, or 18")
	all    = flag.Bool("all", false, "regenerate every simulated figure")
	full   = flag.Bool("full", false, "use the paper's full protocol (10k warmup, 100k packets)")

	// Saturation-search mode: replace the loads axis with an adaptive
	// bisection per scenario.
	saturation = flag.Bool("saturation", false, "find each scenario's saturation load by adaptive bisection instead of sweeping the load axis; emits one row per scenario")
	satTol     = flag.Float64("sat-tol", 0.01, "load resolution of the -saturation bisection (fraction of capacity)")

	// Crash safety: checkpoint/resume, invariant auditing, panic retry.
	ckptDir = flag.String("checkpoint", "", "persist each completed job to this directory (atomic, content-addressed); a killed sweep resumes with -resume")
	resume  = flag.Bool("resume", false, "load completed jobs from the -checkpoint directory and run only the remainder (output stays byte-identical to an uninterrupted run)")
	audit   = flag.Int("audit", 0, "check engine conservation invariants every N cycles in every job (0 = off; results are identical either way)")
	retries = flag.Int("retries", 0, "retry budget for panicking jobs (0 = one retry, negative = none); errors are never retried")

	// Profiling: hot-path investigation without ad-hoc harness hacking.
	cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memProfile = flag.String("memprofile", "", "write a heap profile at exit to this file (go tool pprof)")

	// Protocol and execution.
	warmup   = flag.Int64("warmup", 2000, "warm-up cycles per job")
	packets  = flag.Int("packets", 1500, "tagged sample size per job")
	exact    = flag.Bool("exact", false, "store every latency sample for exact percentiles (default streams with O(1) memory per job)")
	ciTarget = flag.Float64("ci-target", 0, "end each job early once the relative 95% CI half-width of mean latency reaches this (0 = run the full sample)")
	seed     = flag.Uint64("seed", 1, "base seed; each job derives its own seed from it")
	workers  = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS); never affects results")
	jsonPath = flag.String("json", "", "write results as JSON to this file ('-' for stdout)")
	csvPath  = flag.String("csv", "", "write results as CSV to this file ('-' for stdout)")
	quiet    = flag.Bool("quiet", false, "suppress per-job progress lines on stderr")

	// The matrix: one list flag per scenario axis, from the axis table.
	matrix routersim.ScenarioMatrix
)

func init() { harness.AddMatrixFlags(flag.CommandLine, &matrix) }

func main() {
	flag.Parse()
	startProfiles(*cpuProfile, *memProfile)
	defer stopProfiles()
	handleSignals()

	if *resume && *ckptDir == "" {
		fatal(fmt.Errorf("-resume requires -checkpoint DIR (the store to resume from)"))
	}

	if *figure != "" || *all {
		// Figure mode reproduces the paper's fixed curves; the matrix
		// axes don't apply there. Reject explicitly-set matrix-only
		// flags rather than silently ignoring them.
		matrixOnly := map[string]bool{
			"warmup": true, "packets": true,
			"workers": true, "json": true, "quiet": true,
			"saturation": true, "sat-tol": true, "exact": true, "ci-target": true,
			"checkpoint": true, "resume": true, "audit": true, "retries": true,
		}
		flag.Visit(func(f *flag.Flag) {
			if matrixOnly[f.Name] || harness.IsAxisFlag(f) {
				fatal(fmt.Errorf("-%s applies to matrix mode only, not -figure/-all (figure mode supports -full, -seed, -csv)", f.Name))
			}
		})
		runFigures(*figure, *all, *full, *seed, *csvPath)
		return
	}

	opts := routersim.MatrixOptions{
		Workers: *workers,
		Seed:    *seed,
		Audit:   *audit,
		Retries: *retries,
		Protocol: routersim.MatrixProtocol{
			Warmup: *warmup, Packets: *packets,
			Exact: *exact, CITarget: *ciTarget,
		},
	}

	if *saturation {
		// The search owns the load axis; an explicit grid is a mode mix.
		// Checkpointing covers matrix jobs, not bisection probes.
		flag.Visit(func(f *flag.Flag) {
			if harness.IsLoadFlag(f) {
				fatal(fmt.Errorf("-%s does not apply to -saturation (the bisection owns the load axis)", f.Name))
			}
			if f.Name == "checkpoint" || f.Name == "resume" {
				fatal(fmt.Errorf("-%s applies to matrix mode only, not -saturation (search probes are not checkpointed)", f.Name))
			}
		})
		runSaturation(matrix, opts, *satTol, *jsonPath, *csvPath, *quiet)
		return
	}

	// Invalid cells of the cross product are not fatal: the harness
	// records them per job, so one incompatible combination (say,
	// wormhole × torus in a routers × topologies sweep) doesn't discard
	// the rest of the matrix. Failures are summarized on stderr below.
	requested := matrix.Cells()
	jobs := matrix.Size()
	if jobs < requested {
		fmt.Fprintf(os.Stderr, "note: %d duplicate scenario(s) collapsed (axes overlap after canonicalization)\n",
			requested-jobs)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "matrix: %d jobs (seed %d)\n", jobs, *seed)
		opts.Progress = routersim.MatrixProgressPrinter(os.Stderr)
	}

	var results []routersim.MatrixResult
	var err error
	if *ckptDir != "" {
		store, serr := routersim.OpenCheckpointStore(*ckptDir)
		if serr != nil {
			fatal(serr)
		}
		if n, lerr := store.Len(); lerr != nil {
			fatal(lerr)
		} else if n > 0 && !*resume {
			// An already-populated store means a prior (possibly killed)
			// sweep; continuing it must be an explicit choice, not an
			// accident of directory reuse.
			fatal(fmt.Errorf("checkpoint dir %s already holds %d completed job(s); pass -resume to continue that sweep, or point -checkpoint at an empty directory", *ckptDir, n))
		}
		results, err = routersim.RunMatrixResumable(matrix, opts, store)
	} else {
		results, err = routersim.RunMatrix(matrix, opts)
	}
	if err != nil {
		fatal(err)
	}

	emitResults(*jsonPath, *csvPath,
		func(w *os.File) error { return routersim.WriteMatrixJSON(w, results) },
		func(w *os.File) error { return routersim.WriteMatrixCSV(w, results) })
	exitOnFailures(len(results), func(i int) (string, string) {
		return results[i].Scenario.Label(), results[i].Error
	})
}

// emitResults routes a payload to -json and/or -csv files ('-' for
// stdout), falling back to CSV on stdout when neither was requested.
func emitResults(jsonPath, csvPath string, writeJSON, writeCSV func(*os.File) error) {
	wroteSomewhere := false
	if jsonPath != "" {
		writeTo(jsonPath, writeJSON)
		wroteSomewhere = true
	}
	if csvPath != "" {
		writeTo(csvPath, writeCSV)
		wroteSomewhere = true
	}
	if !wroteSomewhere {
		if err := writeCSV(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

// exitOnFailures summarizes per-job failures on stderr and exits 1 if
// any occurred. errAt reports job i's label and error ("" = success).
func exitOnFailures(total int, errAt func(i int) (label, errMsg string)) {
	failed := 0
	firstErr := ""
	for i := 0; i < total; i++ {
		label, e := errAt(i)
		if e != "" {
			failed++
			if firstErr == "" {
				firstErr = label + ": " + e
			}
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d of %d jobs failed; first: %s\n", failed, total, firstErr)
		stopProfiles()
		os.Exit(1)
	}
}

// runSaturation is matrix mode with the load axis replaced by the
// adaptive bisection: one saturation row per scenario.
func runSaturation(matrix routersim.ScenarioMatrix, opts routersim.MatrixOptions, tol float64, jsonPath, csvPath string, quiet bool) {
	if !quiet {
		fmt.Fprintf(os.Stderr, "saturation search: tol %v (seed %d)\n", tol, opts.Seed)
	}
	results, err := routersim.FindSaturations(matrix, opts, routersim.SaturationSearch{Step: tol})
	if err != nil {
		fatal(err)
	}
	if !quiet {
		for _, r := range results {
			status := fmt.Sprintf("saturation=%.4f throughput=%.4f (%d probes, %d cycles)",
				r.Load, r.Throughput, len(r.Probes), r.Cycles)
			if r.Error != "" {
				status = "error: " + r.Error
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %s %s\n", r.Index+1, len(results), r.Scenario.Label(), status)
		}
	}
	emitResults(jsonPath, csvPath,
		func(w *os.File) error { return routersim.WriteSaturationJSON(w, results) },
		func(w *os.File) error { return routersim.WriteSaturationCSV(w, results) })
	exitOnFailures(len(results), func(i int) (string, string) {
		return results[i].Scenario.Label(), results[i].Error
	})
}

func runFigures(figure string, all, full bool, seed uint64, csvPath string) {
	pr := routersim.QuickProtocol()
	if full {
		pr = routersim.PaperProtocol()
	}
	pr.Seed = seed

	var ids []string
	if all {
		ids = []string{"figure13", "figure14", "figure15", "figure17", "figure18"}
	} else {
		ids = []string{"figure" + figure}
	}

	var figs []routersim.FigureResult
	for _, id := range ids {
		fig, err := routersim.Reproduce(id, pr)
		if err != nil {
			fatal(err)
		}
		if err := routersim.WriteFigure(os.Stdout, fig); err != nil {
			fatal(err)
		}
		figs = append(figs, fig)
	}
	if csvPath != "" {
		// Same '-' = stdout convention as matrix mode.
		writeTo(csvPath, func(w *os.File) error {
			for _, fig := range figs {
				if err := routersim.WriteFigureCSV(w, fig); err != nil {
					return err
				}
			}
			return nil
		})
	}
}

func writeTo(path string, fn func(*os.File) error) {
	if path == "-" {
		if err := fn(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := fn(f); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

// profileStop finalizes any active profiles; every exit path (including
// the os.Exit ones, which skip deferred calls) must run it so the
// profile files are complete. The mutex makes stopProfiles idempotent
// and safe to race from the signal handler against a normal exit.
var (
	profileMu   sync.Mutex
	profileStop func()
)

// startProfiles begins CPU profiling and arranges the heap snapshot.
func startProfiles(cpuPath, memPath string) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fatal(err)
		}
		cpuFile = f
	}
	profileMu.Lock()
	defer profileMu.Unlock()
	profileStop = func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			runtime.GC() // materialize up-to-date heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
			f.Close()
		}
	}
}

func stopProfiles() {
	profileMu.Lock()
	fn := profileStop
	profileStop = nil
	profileMu.Unlock()
	if fn != nil {
		fn()
	}
}

// handleSignals converts SIGINT/SIGTERM into a graceful shutdown:
// active profiles are finalized before exiting with the conventional
// 128+signal code. Checkpoint entries need no flushing — each
// completed job was already persisted atomically — so a killed
// -checkpoint sweep loses only its in-flight jobs and a rerun with
// -resume picks up from the last completed one.
func handleSignals() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-ch
		fmt.Fprintf(os.Stderr, "sweep: caught %v; finalizing profiles and exiting\n", sig)
		stopProfiles()
		code := 130 // 128 + SIGINT
		if sig == syscall.SIGTERM {
			code = 143
		}
		os.Exit(code)
	}()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	stopProfiles()
	os.Exit(1)
}
