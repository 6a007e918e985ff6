//go:build ignore

// gen_fuzz_corpus regenerates the committed test fixtures: the golden
// frames TestSnapshotGoldenFrames pins byte for byte (testdata/golden,
// one per diff.GoldenFrames scenario), the scenario corpus
// TestScenarioCorpus replays (testdata/scenarios, one file per
// fuzz.Corpus entry) and the seed corpus for FuzzSnapshotDecode
// (testdata/fuzz/FuzzSnapshotDecode).
// All three must be exactly what the current build writes — CI reruns this
// and fails on any diff under testdata/. For the corpus it builds the
// same kind of valid snapshot as the fuzz target's programmatic seed —
// three granularities subscribed, one unsubscribed (tombstoned catalog
// ids), a slack buffer holding events, intern eviction on, a
// mid-stream cut — then writes that snapshot plus the canonical
// corruption mutants (truncations, a bit flip, a version skew, an
// oversized declared length, an empty input, a bare magic) as Go fuzz
// corpus files. Run from the repo root:
//
//	go run scripts/gen_fuzz_corpus.go
//
// seed_v3_inline, seed_v4_fleet, seed_v5_fleet and seed_v6_fleet in
// the same directory are NOT regenerated: they are frames as the last
// format-v3, v4, v5 and v6 builds wrote them (v3: this seed session,
// whose inline topology had its own section; v4: the fleet golden
// frame, with per-subscription engines and the sharing-group mode
// machine; v5: the fleet golden frame, each query coded per
// subscription and again per host, beside the fields of options since
// deleted; v6: the fleet golden frame, each plan coded by structure
// rather than as query text) — real version skew, which Restore must
// refuse with ErrBadSnapshot. seed_v4_skew is
// the regenerated companion: this build's payload under the version
// word of an older format.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	cogra "repro"
	"repro/internal/fuzz"
	"repro/internal/fuzz/diff"
)

const (
	corpusDir   = "testdata/fuzz/FuzzSnapshotDecode"
	goldenDir   = "testdata/golden"
	scenarioDir = "testdata/scenarios"
)

// shuffleBounded shuffles within fixed-size blocks and reports the
// slack needed to repair the disorder.
func shuffleBounded(events []*cogra.Event, block int, seed int64) ([]*cogra.Event, int64) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*cogra.Event, len(events))
	copy(out, events)
	for i := 0; i+block-1 < len(out); i += block {
		rng.Shuffle(block, func(a, b int) {
			out[i+a], out[i+b] = out[i+b], out[i+a]
		})
	}
	var slack, maxSeen int64
	for i, e := range out {
		if i == 0 || e.Time > maxSeen {
			maxSeen = e.Time
		}
		if d := maxSeen - e.Time; d > slack {
			slack = d
		}
	}
	return out, slack
}

func seedSnapshot() ([]byte, error) {
	queries := diff.PatientQueries()
	shuffled, slack := shuffleBounded(diff.PatientStream(diff.PatientShape{Seed: 17}, 400), 6, 7)
	sess := cogra.NewSession(cogra.WithSlack(slack))
	for _, name := range []string{"type", "pattern"} {
		if _, err := sess.Subscribe(cogra.MustParse(queries[name])); err != nil {
			return nil, fmt.Errorf("subscribe %s: %w", name, err)
		}
	}
	extra, err := sess.Subscribe(cogra.MustParse(queries["mixed"]))
	if err != nil {
		return nil, fmt.Errorf("subscribe mixed: %w", err)
	}
	if err := sess.PushBatch(shuffled[:300]); err != nil {
		return nil, err
	}
	extra.Unsubscribe()
	var buf bytes.Buffer
	if err := sess.Snapshot(&buf); err != nil {
		return nil, err
	}
	if err := sess.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func writeCorpus(name string, data []byte) error {
	body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
	return os.WriteFile(filepath.Join(corpusDir, name), []byte(body), 0o644)
}

// writeGoldens snapshots every golden scenario at its cut.
func writeGoldens() error {
	if err := os.MkdirAll(goldenDir, 0o755); err != nil {
		return err
	}
	for _, g := range diff.GoldenFrames() {
		sess, err := g.Build()
		if err != nil {
			return fmt.Errorf("golden %s: %w", g.Name, err)
		}
		var buf bytes.Buffer
		if err := sess.Snapshot(&buf); err != nil {
			return fmt.Errorf("golden %s: %w", g.Name, err)
		}
		if err := sess.Close(); err != nil {
			return fmt.Errorf("golden %s: %w", g.Name, err)
		}
		if err := os.WriteFile(filepath.Join(goldenDir, g.Name+".snap"), buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// writeScenarios writes every scenario of fuzz.Corpus and removes any
// other .repro file in the directory, so a renamed scenario leaves
// nothing behind.
func writeScenarios() error {
	if err := os.MkdirAll(scenarioDir, 0o755); err != nil {
		return err
	}
	keep := map[string]bool{}
	for _, e := range fuzz.Corpus() {
		var buf bytes.Buffer
		if err := fuzz.WriteRepro(&buf, e.Repro); err != nil {
			return fmt.Errorf("scenario %s: %w", e.Name, err)
		}
		name := e.Name + ".repro"
		keep[name] = true
		if err := os.WriteFile(filepath.Join(scenarioDir, name), buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	stale, err := filepath.Glob(filepath.Join(scenarioDir, "*.repro"))
	if err != nil {
		return err
	}
	for _, path := range stale {
		if !keep[filepath.Base(path)] {
			if err := os.Remove(path); err != nil {
				return err
			}
		}
	}
	return nil
}

func main() {
	if err := writeGoldens(); err != nil {
		log.Fatal("gen_fuzz_corpus: ", err)
	}
	if err := writeScenarios(); err != nil {
		log.Fatal("gen_fuzz_corpus: ", err)
	}
	valid, err := seedSnapshot()
	if err != nil {
		log.Fatal("gen_fuzz_corpus: ", err)
	}
	if err := os.MkdirAll(corpusDir, 0o755); err != nil {
		log.Fatal("gen_fuzz_corpus: ", err)
	}

	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x40
	skewed := append([]byte(nil), valid...)
	skewed[8] = 0xff // version word
	prior := append([]byte(nil), valid...)
	prior[8] = 4 // the version word of an older format
	oversized := append([]byte(nil), valid...)
	for i := 12; i < 20; i++ {
		oversized[i] = 0xff // declared payload length far beyond the data
	}

	seeds := []struct {
		name string
		data []byte
	}{
		{"seed_valid", valid},
		{"seed_truncated_payload", valid[:len(valid)/2]},
		{"seed_truncated_header", valid[:11]},
		{"seed_bitflip", flipped},
		{"seed_version_skew", skewed},
		{"seed_v4_skew", prior},
		{"seed_oversized_length", oversized},
		{"seed_empty", nil},
		{"seed_magic_only", []byte("COGRASNP")},
	}
	for _, s := range seeds {
		if err := writeCorpus(s.name, s.data); err != nil {
			log.Fatal("gen_fuzz_corpus: ", err)
		}
	}
	fmt.Printf("gen_fuzz_corpus: wrote %d golden frames to %s, %d scenarios to %s, %d seeds to %s (valid snapshot: %d bytes)\n",
		len(diff.GoldenFrames()), goldenDir, len(fuzz.Corpus()), scenarioDir, len(seeds), corpusDir, len(valid))
}
