// Command cograbench regenerates the figures and tables of the
// paper's experimental study (§9). Run it with -exp to select one
// experiment or without flags for the full suite; -scale shrinks or
// grows every event count. With -verify (the default) it exits 1 when a
// baseline disagrees with COGRA.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (fig5..fig10, table9, ablation) or 'all'")
	scale := flag.Float64("scale", 1.0, "event-count scale factor")
	verify := flag.Bool("verify", true, "cross-check baseline results against COGRA")
	flag.Parse()

	cfg := bench.DefaultConfig()
	cfg.Scale, cfg.Verify = *scale, *verify
	if *exp == "all" {
		if err := bench.RunAll(cfg, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "cograbench:", err)
			os.Exit(1)
		}
		return
	}
	e, ok := bench.Registry()[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "cograbench: unknown experiment %q (have %v)\n", *exp, bench.IDs())
		os.Exit(1)
	}
	fmt.Printf("== %s ==\n", e.Title)
	if err := e.Run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cograbench:", err)
		os.Exit(1)
	}
}
