package cogra_test

// The replayed corpora. testdata/repros holds shrunk scenarios
// cografuzz once caught failing an oracle, committed after the bug was
// fixed: replaying them pins each bug fixed forever. testdata/scenarios
// holds the differential spine's scenarios (written by
// scripts/gen_fuzz_corpus.go from fuzz.Corpus): each replays through
// the oracles it names and must reach the properties it names. New
// repros are added by copying the file cografuzz -out wrote (see README
// "Differential fuzzing").

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fuzz"
)

// replayCorpus replays every .repro file under dir, one parallel
// subtest per file, and fails on every verdict with a mismatch.
func replayCorpus(t *testing.T, dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	ran := 0
	for _, ent := range entries {
		if ent.IsDir() || filepath.Ext(ent.Name()) != ".repro" {
			continue
		}
		ran++
		t.Run(ent.Name(), func(t *testing.T) {
			t.Parallel()
			rep, verdicts, err := fuzz.ReplayFile(filepath.Join(dir, ent.Name()))
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			for _, v := range verdicts {
				if v.Mismatch != "" {
					t.Errorf("%s fails on %s:\n%s", v.Oracle, rep.Scenario, v.Mismatch)
				}
			}
		})
	}
	if ran == 0 {
		t.Fatalf("no .repro files under %s; the replay is vacuous", dir)
	}
}

func TestFuzzRepros(t *testing.T) { replayCorpus(t, filepath.Join("testdata", "repros")) }

func TestScenarioCorpus(t *testing.T) { replayCorpus(t, filepath.Join("testdata", "scenarios")) }
