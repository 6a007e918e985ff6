// Command cograperf is this repository's benchmark: four workloads,
// eight end-to-end metrics, and a traced run that prices each layer
// from outside. See benchmarks/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see -list)")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 26, "measurement budget of one run")
		trace   = flag.Int("trace", 0, "1: run the layer ladder and report the per-layer metrics instead")
		agree   = flag.Int("agree", 0, "self-check: two interleaved sets of N runs per workload must agree within the bounds")
		out     = flag.String("out", ".bench_build/results", "directory for span files")
		list    = flag.Bool("list", false, "list workloads and metrics")
	)
	flag.Parse()
	if *list {
		for _, wl := range workloads {
			fmt.Printf("%-20s %s\n", wl.name, wl.why)
		}
		return
	}
	if *agree > 0 {
		os.Exit(selfCheck(*agree, *seconds, *name))
	}
	wl := findWorkload(*name)
	if wl == nil {
		fmt.Fprintf(os.Stderr, "cograperf: unknown workload %q (try -list)\n", *name)
		os.Exit(2)
	}

	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)
	debug.SetGCPercent(100)
	fmt.Printf("cograperf  workload %s, seed %d, %.0f s; GOMAXPROCS %d of %d cpus, GOGC 100, %s, commit %s\n",
		wl.name, *seed, *seconds, procs, runtime.NumCPU(), runtime.Version(), commit())

	var res result
	var err error
	if *trace != 0 {
		res, err = traced(wl, *seed, *seconds, *out, os.Stdout)
	} else {
		res, err = endToEnd(wl, *seed, *seconds, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cograperf:", err)
		os.Exit(1)
	}
	for _, name := range metricOrder(res.Metrics) {
		m := res.Metrics[name]
		fmt.Printf("%-34s %16.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("ops_attempted %d, ops_failed %d\n", res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cograperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// commit is the VCS revision the binary was built from, when the
// build saw one, with a "+" when the tree had uncommitted changes.
func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision" && len(s.Value) >= 12:
				rev = s.Value[:12]
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+"
			}
		}
	}
	return rev + dirty
}
