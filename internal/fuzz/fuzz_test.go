package fuzz

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// pinnedSeed0 pins ScenarioSeed's splitmix derivation: repro files and
// CI logs name scenarios by these seeds forever, so a change here
// silently orphans every committed repro.
func TestScenarioSeedPinned(t *testing.T) {
	if got := ScenarioSeed(1, 0); got != 0x910a2dec89025cc1 {
		t.Errorf("ScenarioSeed(1, 0) = %#x, want 0x910a2dec89025cc1", got)
	}
	if a, b := ScenarioSeed(1, 1), ScenarioSeed(2, 0); a == b {
		t.Errorf("neighbouring (seed, index) pairs collide: %#x", a)
	}
}

// Same (baseSeed, i) must reproduce the same scenario — including the
// events — byte for byte. This is the fuzzer's core determinism
// guarantee: a failure report names (seed, index) and anyone can
// regenerate the exact scenario.
func TestGenerateDeterministic(t *testing.T) {
	for i := 0; i < 24; i++ {
		a, err := Generate(7, i)
		if err != nil {
			t.Fatalf("Generate(7, %d): %v", i, err)
		}
		b, err := Generate(7, i)
		if err != nil {
			t.Fatalf("Generate(7, %d) again: %v", i, err)
		}
		var ab, bb bytes.Buffer
		if err := WriteRepro(&ab, &Repro{Oracles: []string{"batch"}, Scenario: a}); err != nil {
			t.Fatal(err)
		}
		if err := WriteRepro(&bb, &Repro{Oracles: []string{"batch"}, Scenario: b}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ab.Bytes(), bb.Bytes()) {
			t.Fatalf("Generate(7, %d) is not deterministic", i)
		}
	}
}

// A written repro must read back into a scenario that writes the same
// bytes (the codec is a fixpoint after one round trip).
func TestReproRoundTrip(t *testing.T) {
	sc, err := Generate(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	rep := &Repro{Oracles: []string{"slack"}, Mismatch: "sub 0: oops\nmore detail", Scenario: sc}
	if err := WriteRepro(&first, rep); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRepro(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("ReadRepro: %v", err)
	}
	if len(back.Oracles) != 1 || back.Oracles[0] != "slack" {
		t.Errorf("oracles = %q, want [slack]", back.Oracles)
	}
	var second bytes.Buffer
	if err := WriteRepro(&second, &Repro{Oracles: back.Oracles, Mismatch: rep.Mismatch, Scenario: back.Scenario}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("repro round trip is not a fixpoint:\n--- first ---\n%s\n--- second ---\n%s",
			first.String(), second.String())
	}
}

// eventCountOracle fails any scenario with at least min events — a
// synthetic failing oracle for shrinker property tests (the real
// oracles pass on a healthy engine, so they cannot exercise Shrink).
func eventCountOracle(min int) *Oracle {
	return &Oracle{
		Name: "test-event-count",
		Doc:  "synthetic: fails when the scenario has >= min events",
		Check: func(sc *Scenario) (string, error) {
			if len(sc.Events) >= min {
				return fmt.Sprintf("scenario has %d events (>= %d)", len(sc.Events), min), nil
			}
			return "", nil
		},
	}
}

func TestShrinkProperties(t *testing.T) {
	sc, err := Generate(11, 2) // a session-scale scenario
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Events) < 20 {
		t.Fatalf("scenario too small for the test: %d events", len(sc.Events))
	}
	o := eventCountOracle(3)

	small, rep, err := Shrink(sc, o, nil)
	if err != nil {
		t.Fatalf("Shrink: %v", err)
	}
	// Strictly smaller than the input, and still failing.
	if small.Size() >= sc.Size() {
		t.Errorf("shrunk size %d is not below input size %d", small.Size(), sc.Size())
	}
	if m, err := o.Check(small); err != nil || m == "" {
		t.Errorf("shrunk scenario no longer fails the oracle (mismatch=%q err=%v)", m, err)
	}
	if rep.Mismatch == "" || rep.Steps == 0 {
		t.Errorf("report not filled: %+v", rep)
	}
	// The synthetic oracle only needs 3 events; ddmin must reach the
	// floor exactly.
	if len(small.Events) != 3 {
		t.Errorf("shrunk to %d events, want 3", len(small.Events))
	}

	// Deterministic: a second run shrinks to byte-identical output.
	again, _, err := Shrink(sc, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := WriteRepro(&a, &Repro{Oracles: []string{o.Name}, Scenario: small}); err != nil {
		t.Fatal(err)
	}
	if err := WriteRepro(&b, &Repro{Oracles: []string{o.Name}, Scenario: again}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("shrinking the same scenario twice produced different repro bytes")
	}

	// Local minimum: shrinking the output again changes nothing.
	fixpoint, frep, err := Shrink(small, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fixpoint.Size() != small.Size() || frep.Steps != 0 {
		t.Errorf("shrunk output is not a fixpoint: size %d -> %d in %d steps",
			small.Size(), fixpoint.Size(), frep.Steps)
	}
}

func TestShrinkRejectsPassingScenario(t *testing.T) {
	sc, err := Generate(11, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Shrink(sc, eventCountOracle(1_000_000), nil); err == nil {
		t.Error("Shrink accepted a scenario the oracle passes")
	}
}

// The healthy engine passes the full suite on a deterministic prefix
// of seed 1 — the same property the CI smoke asserts at larger scale.
func TestRunHealthy(t *testing.T) {
	if testing.Short() {
		t.Skip("runs whole scenarios")
	}
	var log strings.Builder
	rep, err := Run(RunConfig{Seed: 1, N: 20, Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scenarios != 20 {
		t.Errorf("ran %d scenarios, want 20", rep.Scenarios)
	}
	if len(rep.Failures) != 0 {
		t.Errorf("healthy engine failed %d scenarios:\n%s", len(rep.Failures), log.String())
	}
}

// Every oracle named by a committed repro (and the runner's -oracles
// flag) must resolve; the suite's names are part of the repro format.
func TestOracleNamesStable(t *testing.T) {
	for _, name := range []string{"batch", "workers", "slack", "jitter", "late", "solo", "snapshot", "server", "baselines"} {
		if OracleByName(name) == nil {
			t.Errorf("oracle %q is gone; committed repro files may name it", name)
		}
	}
}

// A corpus file's additions — several oracles, exact comparison, a
// reorder cap, named subscriptions and reach properties — round-trip
// byte for byte.
func TestCorpusFileRoundTrip(t *testing.T) {
	sc, err := Generate(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	sc.Exact, sc.MaxDepth = true, 64
	for i := range sc.Subs {
		sc.Subs[i].Name = fmt.Sprintf("q%d", i)
	}
	rep := &Repro{Oracles: []string{"batch", "workers", "solo"}, Reach: []string{"tie-runs", "results-every-sub"}, Scenario: sc}
	var first bytes.Buffer
	if err := WriteRepro(&first, rep); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"oracle batch,workers,solo\n", "reach tie-runs results-every-sub\n", " maxdepth=64 exact=1\n", " name=q0\n"} {
		if !strings.Contains(first.String(), line) {
			t.Errorf("written file lacks %q", line)
		}
	}
	back, err := ReadRepro(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("ReadRepro: %v", err)
	}
	if !back.Scenario.Exact || back.Scenario.MaxDepth != 64 || back.Scenario.Subs[0].Name != "q0" {
		t.Error("exact=1, maxdepth=64 or name=q0 did not read back")
	}
	var second bytes.Buffer
	if err := WriteRepro(&second, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("corpus file round trip is not byte for byte:\n--- first ---\n%s\n--- second ---\n%s", first.String(), second.String())
	}
}

// The repro files committed before the corpus format existed still
// parse and replay clean, each through its one oracle with the float
// tolerance.
func TestCommittedReprosReplay(t *testing.T) {
	paths, err := filepath.Glob("../../testdata/repros/*.repro")
	if err != nil || len(paths) != 3 {
		t.Fatalf("want the 3 committed repros, got %d (%v)", len(paths), err)
	}
	for _, path := range paths {
		rep, verdicts, err := ReplayFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(rep.Oracles) != 1 || len(rep.Reach) != 0 || rep.Scenario.Exact {
			t.Errorf("%s: read as oracles %q, reach %q, exact %v", path, rep.Oracles, rep.Reach, rep.Scenario.Exact)
		}
		if len(verdicts) != 1 || verdicts[0].Mismatch != "" {
			t.Errorf("%s: verdicts %+v", path, verdicts)
		}
	}
}

// A reach line may only name properties of the fixed table, an oracle
// line only known oracles or *, and no two subscriptions share a name.
func TestReadReproRejectsUnknownNames(t *testing.T) {
	sc, err := Generate(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Subs) < 2 {
		t.Fatalf("scenario has %d subscriptions, want 2 or more", len(sc.Subs))
	}
	for i := range sc.Subs {
		sc.Subs[i].Name = fmt.Sprintf("q%d", i)
	}
	var buf bytes.Buffer
	if err := WriteRepro(&buf, &Repro{Oracles: []string{"*"}, Reach: []string{"tie-runs"}, Scenario: sc}); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	if _, err := ReadRepro(strings.NewReader(good)); err != nil {
		t.Fatalf("a file naming * and tie-runs does not parse: %v", err)
	}
	for _, bad := range []string{
		strings.Replace(good, "reach tie-runs", "reach tie-runs no-such-property", 1),
		strings.Replace(good, "oracle *", "oracle batch,no-such-oracle", 1),
		strings.Replace(good, "oracle *", "oracle *,batch", 1),
		strings.Replace(good, "name=q1", "name=q0", 1),
	} {
		if _, err := ReadRepro(strings.NewReader(bad)); err == nil {
			t.Errorf("parsed a file with an unknown name:\n%s", bad[:strings.Index(bad, "config")])
		}
	}
}
