package harness

import (
	"fmt"
	"regexp"
	"runtime/debug"
	"strings"
	"time"

	"routersim/internal/rng"
)

// JobError is the structured record of a recovered job panic: one bad
// scenario (or an engine invariant tripping under the auditor) must
// not take down a thousand-job sweep, so the panic becomes a result
// row the consumer can triage.
type JobError struct {
	// Scenario is the failing job's human-readable label.
	Scenario string `json:"scenario"`
	// Message is the panic value, formatted.
	Message string `json:"message"`
	// Stack is the recovering goroutine's stack, normalized for
	// determinism: the goroutine header and hex addresses are masked so
	// identical failures serialize identically across runs and worker
	// counts.
	Stack string `json:"stack"`
	// Attempts is how many times the job ran before this failure was
	// recorded (1 = failed on the first try with retries disabled).
	Attempts int `json:"attempts"`
}

// retryBackoff returns the capped exponential delay before retry
// attempt n (n=1 is the first retry).
func retryBackoff(n int) time.Duration {
	d := 10 * time.Millisecond << (n - 1)
	if d > time.Second {
		d = time.Second
	}
	return d
}

// executeJob runs one job with panic isolation and bounded retry: a
// recover() turns any panic into a structured JobError result, and
// panicking jobs are retried up to the Options.Retries budget with a
// capped backoff (transient failures — OOM-killed cgroup neighbors,
// flaky disk — deserve a second chance; deterministic panics fail
// identically and land in the result row).
func executeJob(i int, sc Scenario, opts Options, sh *shelf) JobResult {
	run := opts.runFn
	if run == nil {
		run = sh.job
	}
	retries := opts.Retries
	switch {
	case retries == 0:
		retries = 1
	case retries < 0:
		retries = 0
	}
	for attempt := 1; ; attempt++ {
		jr, panicked := recoverJob(run, i, sc, opts, attempt)
		if !panicked || attempt > retries {
			return jr
		}
		time.Sleep(retryBackoff(attempt))
	}
}

// recoverJob is one isolated attempt: the deferred recover converts a
// panic anywhere under the job into a JobError-carrying result.
func recoverJob(run func(int, Scenario, Options) JobResult, i int, sc Scenario, opts Options, attempt int) (jr JobResult, panicked bool) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		panicked = true
		msg := fmt.Sprint(r)
		jr = JobResult{
			Index:    i,
			Scenario: sc,
			Seed:     rng.Derive(opts.Seed, uint64(i)),
			Error:    "panic: " + msg,
			Failure: &JobError{
				Scenario: sc.Label(),
				Message:  msg,
				Stack:    normalizeStack(debug.Stack()),
				Attempts: attempt,
			},
		}
	}()
	return run(i, sc, opts), false
}

var (
	hexAddr     = regexp.MustCompile(`0x[0-9a-f]+`)
	goroutine   = regexp.MustCompile(`(?m)^goroutine \d+ \[[^\]]*\]:\n`)
	goroutineID = regexp.MustCompile(`goroutine \d+`)
)

// normalizeStack strips the run-dependent parts of a stack trace — the
// goroutine header, every hex address, and goroutine IDs in "created
// by" trailers — so the same failure produces the same serialized
// bytes on every run and worker count.
func normalizeStack(stack []byte) string {
	s := goroutine.ReplaceAllString(string(stack), "")
	s = hexAddr.ReplaceAllString(s, "0x…")
	s = goroutineID.ReplaceAllString(s, "goroutine …")
	return strings.TrimRight(s, "\n")
}
