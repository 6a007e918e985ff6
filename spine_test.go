package cogra_test

// The differential spine, query by query. Each test replays scenario
// files of testdata/scenarios (written by scripts/gen_fuzz_corpus.go
// from fuzz.Corpus) narrowed to one session mode and the subscriptions
// it names, through the oracle that flips the test's axis, so a
// failure names the mode, the variant and the query it breaks;
// TestScenarioCorpus replays the same files whole. The files name their
// subscriptions, and the tests pick them by name. Every case names the
// reach properties its narrowed scenario must still show, so a case
// that stops reaching them fails instead of passing vacuously.

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	cogra "repro"
	"repro/internal/fuzz"
)

// spineModes are the session modes every case runs under.
var spineModes = []struct {
	name    string
	workers int
}{{"inline", 0}, {"workers4", 4}}

// corpusFiles holds each scenario file parsed once: name → *fuzz.Scenario.
var corpusFiles sync.Map

// corpusFile returns the scenario of testdata/scenarios/<file>.repro,
// parsed once per package run.
func corpusFile(t *testing.T, file string) *fuzz.Scenario {
	t.Helper()
	if sc, ok := corpusFiles.Load(file); ok {
		return sc.(*fuzz.Scenario)
	}
	data, err := os.ReadFile(filepath.Join("testdata", "scenarios", file+".repro"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fuzz.ReadRepro(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	sc, _ := corpusFiles.LoadOrStore(file, rep.Scenario)
	return sc.(*fuzz.Scenario)
}

// subNames returns the names of the file's subscriptions in file order.
func subNames(t *testing.T, file string) (names []string) {
	for _, s := range corpusFile(t, file).Subs {
		names = append(names, s.Name)
	}
	return names
}

// corpusScenario returns the scenario of testdata/scenarios/<file>.repro
// on the given worker count, keeping only the subscriptions named in
// keep (all of them when keep is empty). Its events are its own copies,
// since fuzz.Execute stamps their IDs; they share the parsed attribute
// maps, which nothing writes.
func corpusScenario(t *testing.T, file string, workers int, keep ...string) *fuzz.Scenario {
	t.Helper()
	parsed := corpusFile(t, file)
	sc := parsed.Clone()
	events := make([]cogra.Event, len(sc.Events))
	for i, e := range sc.Events {
		events[i] = *e
		sc.Events[i] = &events[i]
	}
	sc.Workers = workers
	if len(keep) > 0 {
		sc.Subs = sc.Subs[:0] // the clone's own slice
		for _, name := range keep {
			sc.Subs = append(sc.Subs, *subNamed(t, parsed, name))
		}
	}
	return sc
}

// subNamed returns the scenario's subscription of that name.
func subNamed(t *testing.T, sc *fuzz.Scenario, name string) *fuzz.SubSpec {
	t.Helper()
	i := slices.IndexFunc(sc.Subs, func(s fuzz.SubSpec) bool { return s.Name == name })
	if i < 0 {
		t.Fatalf("%s names no subscription %q", sc, name)
	}
	return &sc.Subs[i]
}

// expectClean fails unless the scenario reaches every property of reach
// and passes every oracle of oracles (both space-separated).
func expectClean(t *testing.T, sc *fuzz.Scenario, reach, oracles string) {
	t.Helper()
	verdicts, err := fuzz.Check(sc, strings.Fields(reach), strings.Fields(oracles))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range verdicts {
		if v.Mismatch != "" {
			t.Errorf("%s fails on %s:\n%s", v.Oracle, sc, v.Mismatch)
		}
	}
}

// expectModes fails unless the scenario run under base equals the same
// run with flip applied.
func expectModes(t *testing.T, sc *fuzz.Scenario, base fuzz.Mode, flip func(*fuzz.Mode)) {
	t.Helper()
	if m, err := fuzz.DiffModes(sc, base, flip); err != nil {
		t.Fatal(err)
	} else if m != "" {
		t.Errorf("%s:\n%s", sc, m)
	}
}

// parallelRun runs f as a parallel subtest.
func parallelRun(t *testing.T, name string, f func(t *testing.T)) {
	t.Run(name, func(t *testing.T) {
		t.Parallel()
		f(t)
	})
}

// eachSub runs f as the parallel subtest <mode>/<name> for each session
// mode and each subscription of the file; slack_session's are the
// patient queries.
func eachSub(t *testing.T, file string, f func(t *testing.T, workers int, q string)) {
	for _, m := range spineModes {
		for _, q := range subNames(t, file) {
			parallelRun(t, m.name+"/"+q, func(t *testing.T) { f(t, m.workers, q) })
		}
	}
}

func batchOn(m *fuzz.Mode) { m.BatchSize = 256 }

// slotted reports whether a query binds a ward slot (fuzz.Corpus slots
// only its skip-till-any-match queries): intern-3x applies.
func slotted(sc *fuzz.Scenario) string {
	for _, s := range sc.Subs {
		if strings.Contains(s.Src, "ward]") {
			return " intern-3x"
		}
	}
	return ""
}

// TestSessionBatchKernelDifferential: batch kernels equal per-event
// execution for every kernel query and session mode, sorted, under
// slack and across a catalog compaction, and a bounded-state batch
// session over slot values that age out equals a bare engine; on the
// run-shaped stream and, prefixed, on the type-interleaved one.
func TestSessionBatchKernelDifferential(t *testing.T) {
	streams := []struct{ prefix, plain, compaction, evict, ties string }{
		{"", "batch_runs", "batch_compaction", "batch_evict", "tie-runs"},
		{"interleaved/", "batch_interleaved", "batch_interleaved_compaction", "batch_interleaved_evict", "interleaved-ties"},
	}
	for _, s := range streams {
		for _, m := range spineModes {
			for _, q := range subNames(t, s.plain) {
				name := func(variant string) string { return s.prefix + m.name + "/" + variant + "/" + q }
				parallelRun(t, name("plain"), func(t *testing.T) {
					sc := corpusScenario(t, s.plain, m.workers, q)
					expectClean(t, sc, s.ties+" results-every-sub", "")
					expectModes(t, sc, fuzz.Mode{Workers: m.workers}, batchOn)
				})
				parallelRun(t, name("slack"), func(t *testing.T) {
					sc := corpusScenario(t, s.plain, m.workers, q)
					expectModes(t, sc, fuzz.Mode{Workers: m.workers, Shuffled: true}, batchOn)
				})
				parallelRun(t, name("compaction"), func(t *testing.T) {
					// The noise subscription leaves mid-stream.
					expectClean(t, corpusScenario(t, s.compaction, m.workers, q, "noise"),
						"compaction results-every-sub", "batch")
				})
				parallelRun(t, name("eviction"), func(t *testing.T) {
					sc := corpusScenario(t, s.evict, m.workers, q)
					expectClean(t, sc, "results-every-sub"+slotted(sc), "solo")
				})
			}
		}
	}
}

// TestExecutorGroupsDifferential: late joiners on the fallback worker
// equal an inline session, and the worker retires with its last
// subscriber.
func TestExecutorGroupsDifferential(t *testing.T) {
	expectClean(t, corpusScenario(t, "workers_fallback", 4), "fallback-worker groups-retired results-every-sub", "workers")
}

// TestSnapshotRestoreExecutorGroups: a cut inside an equal-time run
// with the fallback worker live restores to the undisturbed run.
func TestSnapshotRestoreExecutorGroups(t *testing.T) {
	expectClean(t, corpusScenario(t, "snapshot_fallback", 4), "fallback-worker cut-in-tie results-every-sub", "snapshot")
}

// TestDrainEveryBatchDifferential: every drain of a worker session,
// with groups spanning workers and a fallback joiner, equals the
// inline drain at the same position.
func TestDrainEveryBatchDifferential(t *testing.T) {
	expectClean(t, corpusScenario(t, "workers_drains", 2), "fallback-worker results-every-sub", "workers")
}

// TestSessionSubscribeMidStreamMatchesSuffix and
// TestSessionUnsubscribeMatchesPrefix: a joiner at n/3 and a leaver at
// n/2, beside a resident type query, equal solo engines over the
// suffix and the prefix; TestSessionChurn runs the whole membership
// schedule of solo_membership.
func TestSessionSubscribeMidStreamMatchesSuffix(t *testing.T) {
	eachSub(t, "slack_session", func(t *testing.T, workers int, q string) {
		expectClean(t, corpusScenario(t, "solo_membership", workers, "standing", q+"-join"), "results-every-sub", "solo")
	})
}

func TestSessionUnsubscribeMatchesPrefix(t *testing.T) {
	eachSub(t, "slack_session", func(t *testing.T, workers int, q string) {
		expectClean(t, corpusScenario(t, "solo_membership", workers, "standing", q+"-leave"), "results-every-sub", "solo")
	})
}

func TestSessionChurn(t *testing.T) {
	for _, m := range spineModes {
		parallelRun(t, m.name, func(t *testing.T) {
			reach := "results-every-sub"
			if m.workers > 0 {
				reach += " fallback-worker"
			}
			expectClean(t, corpusScenario(t, "solo_membership", m.workers), reach, "solo")
		})
	}
}

// TestSessionSlackDifferential: each patient query shuffled within
// slack equals it sorted. TestSessionSlackZeroMatchesProcess and
// TestSessionPushBatchMatchesProcess: per-event and odd-sized batch
// pushes of an in-order session equal a bare engine's Process.
func TestSessionSlackDifferential(t *testing.T) {
	eachSub(t, "slack_session", func(t *testing.T, workers int, q string) {
		expectClean(t, corpusScenario(t, "slack_session", workers, q), "tie-runs results-every-sub", "slack")
	})
}

func TestSessionSlackZeroMatchesProcess(t *testing.T) {
	for _, m := range spineModes {
		parallelRun(t, m.name, func(t *testing.T) {
			expectClean(t, corpusScenario(t, "slack_session", m.workers, "type"), "results-every-sub", "solo")
		})
	}
}

func TestSessionPushBatchMatchesProcess(t *testing.T) {
	for _, m := range spineModes {
		parallelRun(t, m.name, func(t *testing.T) {
			sc := corpusScenario(t, "slack_session", m.workers, "mixed")
			sc.BatchSize = 97
			expectClean(t, sc, "results-every-sub", "solo")
		})
	}
}

// TestSessionSnapshotRestoreDifferential: snapshot at k, restore and
// the suffix equal the undisturbed run for each patient query, sorted
// and under slack, after churn compacted the catalog, right after an
// idle gap closed every window and over slot values that age out,
// beside the snapshot files' standing type query, which shares with the
// type query. TestSessionSnapshotMidTimestamp cuts inside an equal-time
// run.
func TestSessionSnapshotRestoreDifferential(t *testing.T) {
	for _, m := range spineModes {
		for _, q := range subNames(t, "slack_session") {
			name := func(variant string) string { return m.name + "/" + variant + "/" + q }
			for variant, shuffled := range map[string]bool{"plain": false, "slack": true} {
				parallelRun(t, name(variant), func(t *testing.T) {
					sc := corpusScenario(t, "snapshot_compaction", m.workers, "standing", q)
					expectClean(t, sc, "results-every-sub", "")
					expectModes(t, sc, fuzz.Mode{Workers: m.workers, Shuffled: shuffled},
						func(f *fuzz.Mode) { f.SnapshotAt = sc.SnapshotAt })
				})
			}
			parallelRun(t, name("compaction"), func(t *testing.T) {
				// The noise subscription leaves before the cut.
				expectClean(t, corpusScenario(t, "snapshot_compaction", m.workers, "standing", q, "noise"),
					"compaction results-every-sub", "snapshot")
			})
			parallelRun(t, name("afterclose"), func(t *testing.T) {
				expectClean(t, corpusScenario(t, "snapshot_afterclose", m.workers, "standing", q), "results-every-sub", "snapshot")
			})
			parallelRun(t, name("eviction"), func(t *testing.T) {
				sc := corpusScenario(t, "snapshot_evict", m.workers, "standing", q)
				expectClean(t, sc, "results-every-sub"+slotted(sc), "snapshot solo")
			})
		}
	}
}

func TestSessionSnapshotMidTimestamp(t *testing.T) {
	eachSub(t, "slack_session", func(t *testing.T, workers int, q string) {
		expectClean(t, corpusScenario(t, "snapshot_tie", workers, "standing", q), "cut-in-tie results-every-sub", "snapshot")
	})
}

// TestSharedAggregationDifferential: per granularity, a trio of
// sharing-equivalent queries and an unrelated control equal one bare
// engine per query — churned member by member, handed over with a
// joiner (and with the old host leaving while both are live), rejoined
// across the sparse phase, over slot values that age out — and
// snapshot/restore with the group live and mid-handover equals the
// undisturbed run. colliding: two queries a lossy rendering would
// write alike each equal their own engine.
func TestSharedAggregationDifferential(t *testing.T) {
	const sharing = "shared-group share-flip results-every-sub"
	for _, m := range spineModes {
		for _, g := range []string{"type", "mixed", "pattern"} {
			name := func(variant string) string { return m.name + "/" + variant + "/" + g }
			file := func(variant string) string { return "shared_" + g + "_" + variant }
			parallelRun(t, name("churn"), func(t *testing.T) {
				expectClean(t, corpusScenario(t, file("churn"), m.workers), sharing+" groups-retired", "solo")
			})
			parallelRun(t, name("snapshot"), func(t *testing.T) {
				sc := corpusScenario(t, file("churn"), m.workers)
				for i := range sc.Subs {
					sc.Subs[i].Leave = len(sc.Events)
				}
				expectClean(t, sc, "shared-group results-every-sub", "snapshot")
			})
			parallelRun(t, name("handover"), func(t *testing.T) {
				sc := corpusScenario(t, file("handover"), m.workers)
				subNamed(t, sc, g+"-0").Leave = len(sc.Events) // the old host stays
				expectClean(t, sc, sharing, "solo")
			})
			parallelRun(t, name("leave2hosts"), func(t *testing.T) {
				expectClean(t, corpusScenario(t, file("handover"), m.workers), sharing, "solo")
			})
			parallelRun(t, name("snapshot-handover"), func(t *testing.T) {
				expectClean(t, corpusScenario(t, file("handover"), m.workers), sharing, "snapshot")
			})
			parallelRun(t, name("rejoin"), func(t *testing.T) {
				expectClean(t, corpusScenario(t, file("rejoin"), m.workers), sharing, "solo")
			})
			parallelRun(t, name("evict"), func(t *testing.T) {
				sc := corpusScenario(t, "shared_evict", m.workers, g+"-0", g+"-1", g+"-2", "control")
				expectClean(t, sc, "shared-group results-every-sub"+slotted(sc), "solo")
			})
		}
		parallelRun(t, m.name+"/colliding/literal", func(t *testing.T) {
			expectClean(t, corpusScenario(t, "solo_literals", m.workers), "results-every-sub", "solo")
		})
	}
}

// TestSessionMemoryLifecycleDifferential: a bounded-state session over
// slot values that age out, sorted and under slack with a capped reorder
// buffer that sheds nothing, equals a bare engine that keeps them all,
// which interns at least 3x its peak; wide-slots interns value-id
// vectors.
func TestSessionMemoryLifecycleDifferential(t *testing.T) {
	eachSub(t, "solo_lifecycle", func(t *testing.T, workers int, q string) {
		sc := corpusScenario(t, "solo_lifecycle", workers, q)
		reach := "results-every-sub" + slotted(sc)
		if q == "wide-slots" {
			reach += " vector-slots"
		}
		expectClean(t, sc, reach, "solo slack")
	})
}
