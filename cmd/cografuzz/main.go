// Command cografuzz is the differential fuzzer for the COGRA engine:
// it draws seeded random scenarios (schema, query fleet, event
// stream, churn schedule, session config) from the paper's workload
// templates and replays each one through a metamorphic oracle suite —
// COGRA vs the independent baselines, and the engine against itself
// with one execution-mode axis flipped at a time (batch kernels,
// workers, slack reordering, eviction, snapshot/restore, the cograd
// server). Failures are shrunk by delta debugging and written as
// self-contained repro files.
//
//	cografuzz -seed 1 -n 200 -out testdata/repros   # deterministic batch
//	cografuzz -budget 75s                           # CI smoke
//	cografuzz -repro testdata/repros/f.repro        # replay one failure
//	cografuzz -repro testdata/scenarios/f.repro     # replay a corpus file
//	cografuzz -list                                 # show the oracle suite
//
// -repro prints one verdict per oracle the file names, and one for its
// reach properties. Exit status: 0 when every scenario passed (or every
// verdict of a replayed file passes), 1 when a mismatch was found (or a
// replayed file still fails), 2 on usage or I/O errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/fuzz"
)

func main() {
	var (
		seed     = flag.Uint64("seed", 1, "base seed; scenario i is fully determined by (seed, i)")
		n        = flag.Int("n", 0, "number of scenarios to run (0: run until -budget)")
		budget   = flag.Duration("budget", 60*time.Second, "wall-clock budget when -n is 0")
		out      = flag.String("out", "", "directory for shrunk repro files (empty: report only)")
		repro    = flag.String("repro", "", "replay one repro file instead of fuzzing")
		oracles  = flag.String("oracles", "", "comma-separated oracle subset (default: all)")
		maxFail  = flag.Int("maxfail", 0, "stop after this many failing scenarios (0: unlimited)")
		noShrink = flag.Bool("noshrink", false, "report raw failing scenarios without minimizing")
		list     = flag.Bool("list", false, "list the oracle suite and exit")
		verbose  = flag.Bool("v", false, "log every scenario and shrink pass")
	)
	flag.Parse()

	if *list {
		for _, o := range fuzz.Oracles() {
			fmt.Printf("%-10s %s\n", o.Name, o.Doc)
		}
		return
	}

	if *repro != "" {
		rep, verdicts, err := fuzz.ReplayFile(*repro)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cografuzz: %v\n", err)
			os.Exit(2)
		}
		failed := false
		for _, v := range verdicts {
			if v.Mismatch != "" {
				failed = true
				fmt.Printf("%s: %s FAILS on %s:\n%s\n", *repro, v.Oracle, rep.Scenario, v.Mismatch)
			} else {
				fmt.Printf("%s: %s passes (%s)\n", *repro, v.Oracle, rep.Scenario)
			}
		}
		if failed {
			os.Exit(1)
		}
		return
	}

	cfg := fuzz.RunConfig{
		Seed:        *seed,
		N:           *n,
		Budget:      *budget,
		OutDir:      *out,
		MaxFailures: *maxFail,
		NoShrink:    *noShrink,
		Log:         os.Stdout,
		Verbose:     *verbose,
	}
	if *oracles != "" {
		cfg.Oracles = strings.Split(*oracles, ",")
	}
	rep, err := fuzz.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cografuzz: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("cografuzz: %d scenarios, %d oracle checks, %d failures in %s (seed %d)\n",
		rep.Scenarios, rep.Checks, len(rep.Failures), rep.Elapsed.Round(time.Millisecond), *seed)
	for _, f := range rep.Failures {
		loc := f.File
		if loc == "" {
			loc = f.Scenario.String()
		}
		fmt.Printf("  scenario %d, oracle %s: %s\n", f.Index, f.Oracle, loc)
	}
	if len(rep.Failures) > 0 {
		os.Exit(1)
	}
}
