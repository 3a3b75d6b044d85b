package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"time"
)

// cpuLayers are the cpu_frac.* buckets, one per module of the simulator
// plus four for everything else. They sum to 1.
var cpuLayers = []string{
	"router", "allocator", "arbiter", "link", "queue", "flit", "network", "topology",
	"traffic", "rng", "sim", "stats", "harness", "checkpoint", "pool",
	"runtime_gc", "runtime_other", "stdlib", "other",
}

// profileCPU runs body under the CPU profiler, writing the profile to
// path, and returns the share of host CPU time per layer. The profile is
// turned into text by `go tool pprof -top`, the same tool a reader would
// use on the file, and leaf functions are grouped by package: nothing
// inside the program is instrumented.
func profileCPU(path string, body func() error) (map[string]float64, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	berr := body()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	if berr != nil {
		return nil, berr
	}
	// CombinedOutput waits for the tool to exit.
	top, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", path).CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -top %s: %v: %s", path, err, top)
	}
	return cpuShares(string(top)), nil
}

// cpuShares parses the text of `go tool pprof -top` and returns each
// layer's share of the flat (leaf) time. A profile with no samples gives
// all zeros.
func cpuShares(top string) map[string]float64 {
	flat := make(map[string]float64)
	var total float64
	sc := bufio.NewScanner(strings.NewReader(top))
	inTable := false
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(fields) >= 2 && fields[0] == "flat" && fields[1] == "flat%"
			continue
		}
		// flat flat% sum% cum cum% name...
		if len(fields) < 6 {
			continue
		}
		d, err := time.ParseDuration(fields[0])
		if err != nil {
			continue
		}
		s := d.Seconds()
		flat[layerOf(strings.Join(fields[5:], " "))] += s
		total += s
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = 0
		if total > 0 {
			shares[l] = flat[l] / total
		}
	}
	return shares
}

// layerOf maps a function name as pprof prints it to a cpu_frac bucket.
func layerOf(full string) string {
	fn := full
	// Cut receiver and type arguments first: they may hold dots and
	// slashes of their own, as in link.(*Wire[routersim/internal/flit.Flit]).Pop.
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		fn = fn[:i]
	}
	pkg := fn
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "routersim/internal/"):
		name := strings.TrimPrefix(pkg, "routersim/internal/")
		for _, l := range cpuLayers {
			if l == name {
				return l
			}
		}
		return "other"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		// The memory manager — allocation, marking, sweeping, scavenging
		// — is the part of the runtime a change to the simulator's
		// allocation behaviour moves.
		lower := strings.ToLower(full[len(pkg):])
		for _, word := range []string{"gc", "malloc", "scan", "mark", "sweep", "grey", "scaveng", "heap", "span"} {
			if strings.Contains(lower, word) {
				return "runtime_gc"
			}
		}
		return "runtime_other"
	case pkg == "main" || strings.HasPrefix(pkg, "routersim"):
		return "other"
	default:
		return "stdlib"
	}
}
