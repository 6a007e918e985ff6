package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sessionflags"
)

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// inline/fromFile build ordered query sources the way flag parsing
// would.
func inline(texts ...string) []querySource {
	var out []querySource
	for _, s := range texts {
		out = append(out, querySource{value: s})
	}
	return out
}

func fromFile(paths ...string) []querySource {
	var out []querySource
	for _, p := range paths {
		out = append(out, querySource{fromFile: true, value: p})
	}
	return out
}

const testCSV = `time,type,k,x:num
1,A,g,1
2,A,g,2
3,B,g,3
`

func TestRunWithQueryFileAndInput(t *testing.T) {
	qf := writeFile(t, "q.etaq", `RETURN COUNT(*) PATTERN SEQ(A+, B) WHERE [k] GROUP-BY k WITHIN 10 SLIDE 10`)
	in := writeFile(t, "in.csv", testCSV)
	if err := run(runCfg{sources: fromFile(qf), input: in, session: sessionflags.Flags{Workers: 1}, memory: true}); err != nil {
		t.Fatal(err)
	}
}

func TestRunParallelWorkers(t *testing.T) {
	in := writeFile(t, "in.csv", testCSV)
	err := run(runCfg{
		sources: inline(`RETURN COUNT(*) PATTERN SEQ(A+, B) WHERE [k] GROUP-BY k WITHIN 10 SLIDE 10`),
		input:   in, session: sessionflags.Flags{Workers: 4}, memory: true,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunMultipleQueries(t *testing.T) {
	in := writeFile(t, "in.csv", testCSV)
	queries := inline(
		`RETURN COUNT(*) PATTERN SEQ(A+, B) WHERE [k] GROUP-BY k WITHIN 10 SLIDE 10`,
		`RETURN COUNT(*) PATTERN A+ WHERE [k] GROUP-BY k WITHIN 10 SLIDE 10`,
	)
	if err := run(runCfg{sources: queries, input: in, session: sessionflags.Flags{Workers: 1}, memory: true}); err != nil {
		t.Fatalf("shared runtime: %v", err)
	}
	if err := run(runCfg{sources: queries, input: in, session: sessionflags.Flags{Workers: 3}, memory: true}); err != nil {
		t.Fatalf("multi executor: %v", err)
	}
	if err := run(runCfg{sources: queries, session: sessionflags.Flags{Workers: 1}, explain: true}); err != nil {
		t.Fatalf("multi explain: %v", err)
	}
}

// TestRunWithSlack: a disordered feed is accepted with -slack, both
// when stragglers are dropped (default) and when within bounds.
func TestRunWithSlack(t *testing.T) {
	disordered := `time,type,k,x:num
2,A,g,2
1,A,g,1
3,B,g,3
`
	in := writeFile(t, "in.csv", disordered)
	q := inline(`RETURN COUNT(*) PATTERN SEQ(A+, B) WHERE [k] GROUP-BY k WITHIN 10 SLIDE 10`)
	if err := run(runCfg{sources: q, input: in, session: sessionflags.Flags{Workers: 1, Slack: 5}, stats: true}); err != nil {
		t.Fatalf("slack 5: %v", err)
	}
	// Slack 0 drops the straggler but the run succeeds (DropLate).
	if err := run(runCfg{sources: q, input: in, session: sessionflags.Flags{Workers: 1, Slack: 0}, stats: true}); err != nil {
		t.Fatalf("slack 0 drop: %v", err)
	}
	// Reject policy fails the run on the straggler.
	if err := run(runCfg{sources: q, input: in, session: sessionflags.Flags{Workers: 1, Slack: 0, RejectLate: true}}); err == nil {
		t.Fatal("slack 0 -late-reject accepted a straggler")
	}
	// Without slack the disorder fails the stream contract.
	if err := run(runCfg{sources: q, input: in, session: sessionflags.Flags{Workers: 1, Slack: -1}}); err == nil {
		t.Fatal("disordered input accepted without -slack")
	}
}

// TestSourceFlagPreservesOrder: interleaved -file and -query flags
// keep command-line order, so [qN] labels match what the user wrote.
func TestSourceFlagPreservesOrder(t *testing.T) {
	var sources []querySource
	q := sourceFlag{&sources, false}
	f := sourceFlag{&sources, true}
	f.Set("a.etaq")
	q.Set("RETURN ...")
	f.Set("b.etaq")
	want := []querySource{
		{fromFile: true, value: "a.etaq"},
		{fromFile: false, value: "RETURN ..."},
		{fromFile: true, value: "b.etaq"},
	}
	if len(sources) != len(want) {
		t.Fatalf("sources = %v", sources)
	}
	for i := range want {
		if sources[i] != want[i] {
			t.Errorf("source %d = %+v, want %+v", i, sources[i], want[i])
		}
	}
}

func TestRunExplain(t *testing.T) {
	if err := run(runCfg{sources: inline(`RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10`), session: sessionflags.Flags{Workers: 1}, explain: true}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(runCfg{session: sessionflags.Flags{Workers: 1}}); err == nil {
		t.Error("missing query accepted")
	}
	if err := run(runCfg{sources: inline("garbage query"), session: sessionflags.Flags{Workers: 1}}); err == nil {
		t.Error("bad query accepted")
	}
	if err := run(runCfg{sources: inline(`RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10`), input: "/does/not/exist.csv", session: sessionflags.Flags{Workers: 1}}); err == nil {
		t.Error("missing input accepted")
	}
	if err := run(runCfg{sources: fromFile("/does/not/exist.q"), session: sessionflags.Flags{Workers: 1}}); err == nil {
		t.Error("missing query file accepted")
	}
	bad := writeFile(t, "bad.csv", "not,a,valid,header\n")
	if err := run(runCfg{sources: inline(`RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10`), input: bad, session: sessionflags.Flags{Workers: 1}}); err == nil {
		t.Error("bad CSV accepted")
	}
}
