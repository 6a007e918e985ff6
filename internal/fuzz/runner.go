// The fuzz runner: drives the scenario generator through the oracle
// suite, shrinks failures and writes repro files. Used by
// cmd/cografuzz and by the repro regression tests.
package fuzz

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/snap"
)

// RunConfig parameterises one fuzzing run.
type RunConfig struct {
	// Seed is the base seed; scenario i is fully determined by
	// (Seed, i).
	Seed uint64
	// N is the number of scenarios to run. 0 means "until Budget".
	N int
	// Budget bounds wall-clock time when N == 0. The scenario
	// *sequence* is still deterministic in Seed; only how far the run
	// gets depends on the clock.
	Budget time.Duration
	// Oracles restricts the suite to the named oracles (nil: all).
	Oracles []string
	// OutDir receives shrunk repro files (empty: no files written).
	OutDir string
	// MaxFailures stops the run early after this many failing
	// scenarios (0: unlimited).
	MaxFailures int
	// NoShrink reports raw failing scenarios without minimizing them.
	NoShrink bool
	// Log receives progress lines (nil: silent).
	Log io.Writer
	// Verbose additionally logs every scenario and oracle verdict.
	Verbose bool
}

// Failure is one failing (scenario, oracle) pair after shrinking.
type Failure struct {
	Index    int // scenario index in the seed's sequence
	Oracle   string
	Mismatch string
	Scenario *Scenario
	File     string // repro path, when OutDir was set
}

// Report summarises a fuzzing run.
type Report struct {
	Scenarios int
	Checks    int // oracle checks that ran (including inapplicable)
	Failures  []Failure
	Elapsed   time.Duration
}

// Run executes the configured fuzzing session.
func Run(cfg RunConfig) (*Report, error) {
	logf := func(format string, args ...any) {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, format+"\n", args...)
		}
	}
	suite := Oracles()
	if len(cfg.Oracles) > 0 {
		var sel []Oracle
		for _, name := range cfg.Oracles {
			o := OracleByName(name)
			if o == nil {
				return nil, fmt.Errorf("fuzz: unknown oracle %q", name)
			}
			sel = append(sel, *o)
		}
		suite = sel
	}
	start := time.Now()
	rep := &Report{}
	for i := 0; ; i++ {
		if cfg.N > 0 && i >= cfg.N {
			break
		}
		if cfg.N == 0 && (cfg.Budget <= 0 || time.Since(start) > cfg.Budget) {
			break
		}
		sc, err := Generate(cfg.Seed, i)
		if err != nil {
			return nil, err
		}
		rep.Scenarios++
		if cfg.Verbose {
			logf("[%d] %s", i, sc)
		}
		for oi := range suite {
			o := &suite[oi]
			rep.Checks++
			mismatch, err := o.Check(sc)
			if err != nil {
				mismatch = fmt.Sprintf("oracle execution error: %v", err)
			}
			if mismatch == "" {
				continue
			}
			logf("[%d] FAIL %s: %s", i, o.Name, firstLine(mismatch))
			f := Failure{Index: i, Oracle: o.Name, Mismatch: mismatch, Scenario: sc}
			if err == nil && !cfg.NoShrink {
				small, srep, serr := Shrink(sc, o, verboseLog(cfg))
				if serr != nil {
					logf("[%d] shrink failed: %v", i, serr)
				} else {
					logf("[%d] shrunk to %d events, %d subs (%d steps, %d candidates)",
						i, len(small.Events), len(small.Subs), srep.Steps, srep.Tried)
					f.Scenario, f.Mismatch = small, srep.Mismatch
				}
			}
			if cfg.OutDir != "" {
				path, werr := writeFailure(cfg.OutDir, &f)
				if werr != nil {
					return nil, werr
				}
				f.File = path
				logf("[%d] repro written: %s", i, path)
			}
			rep.Failures = append(rep.Failures, f)
			if cfg.MaxFailures > 0 && len(rep.Failures) >= cfg.MaxFailures {
				rep.Elapsed = time.Since(start)
				return rep, nil
			}
			break // one failure per scenario is enough; move on
		}
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

func verboseLog(cfg RunConfig) io.Writer {
	if cfg.Verbose {
		return cfg.Log
	}
	return nil
}

func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}

// writeFailure persists one failure as a repro file named by its
// oracle and scenario seed — deterministic, so re-running the same
// seed overwrites rather than accumulates.
func writeFailure(dir string, f *Failure) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s_%016x.repro", f.Oracle, f.Scenario.Seed))
	err := snap.WriteFileAtomic(path, func(w io.Writer) error {
		return WriteRepro(w, &Repro{Oracles: []string{f.Oracle}, Mismatch: f.Mismatch, Scenario: f.Scenario})
	})
	if err != nil {
		return "", err
	}
	return path, nil
}

// Verdict is one check of a replayed file: an oracle's, or "reach"
// for the file's reach properties. Mismatch is "" when it passes.
type Verdict struct {
	Oracle   string
	Mismatch string
}

// Replay loads a repro or corpus file and checks it (Check). A verdict
// with a mismatch means the file fails again; a committed one is a
// regression.
func Replay(r io.Reader) (*Repro, []Verdict, error) {
	rep, err := ReadRepro(r)
	if err != nil {
		return nil, nil, err
	}
	verdicts, err := Check(rep.Scenario, rep.Reach, rep.Oracles)
	return rep, verdicts, err
}

// Check checks a scenario's reach properties and re-runs every oracle
// it names ("*": the whole suite; an oracle that does not apply
// passes), one verdict each.
func Check(sc *Scenario, reach, oracles []string) ([]Verdict, error) {
	var verdicts []Verdict
	if len(reach) > 0 {
		lack, err := checkReach(sc, reach)
		if err != nil {
			return nil, fmt.Errorf("reach: %w", err)
		}
		verdicts = append(verdicts, Verdict{Oracle: "reach", Mismatch: lack})
	}
	suite := Oracles()
	if len(oracles) != 1 || oracles[0] != "*" {
		suite = nil
		for _, name := range oracles {
			o := OracleByName(name)
			if o == nil {
				return verdicts, fmt.Errorf("unknown oracle %q", name)
			}
			suite = append(suite, *o)
		}
	}
	for _, o := range suite {
		mismatch, err := o.Check(sc)
		if err != nil {
			return verdicts, fmt.Errorf("oracle %s: %w", o.Name, err)
		}
		verdicts = append(verdicts, Verdict{Oracle: o.Name, Mismatch: mismatch})
	}
	return verdicts, nil
}

// ReplayFile is Replay over a path.
func ReplayFile(path string) (*Repro, []Verdict, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer fh.Close()
	return Replay(fh)
}
