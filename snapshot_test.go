package cogra_test

// Tests for checkpoint/restore that pin API behaviour: a frame keeps
// the session's configuration, the golden frames pin the wire format,
// old formats are refused, damaged frames fail typed, and restored
// sessions take joiners and hand out pending results. That a restore
// plus the suffix equals the undisturbed run is the snapshot oracle's,
// replayed over testdata/scenarios (TestScenarioCorpus).

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"strconv"
	"strings"
	"testing"

	cogra "repro"
	"repro/internal/fuzz/diff"
	"repro/internal/snap"
)

// TestRestoreKeepsSessionConfig: a frame is the whole session. A
// session restored from a snapshot runs under the configuration it was
// taken under — worker count, slack, late policy, depth cap and depth
// policy — so after the cut every push is accepted, refused as late or
// refused with backpressure exactly as on the undisturbed session, and
// the two report the same results and counters.
func TestRestoreKeepsSessionConfig(t *testing.T) {
	q := cogra.MustParse(`RETURN COUNT(*) PATTERN SEQ(A+, B) WHERE [k] GROUP-BY k WITHIN 50 SLIDE 50`)
	ev := func(tm int64) *cogra.Event {
		return cogra.NewEvent([2]string{"A", "B"}[tm%3/2], tm).WithSym("k", [2]string{"g", "h"}[tm%2])
	}
	live := cogra.NewSession(cogra.WithWorkers(2), cogra.WithSlack(5), cogra.WithLatePolicy(cogra.RejectLate),
		cogra.WithMaxReorderDepth(8), cogra.WithDepthPolicy(cogra.Reject))
	if _, err := live.Subscribe(q); err != nil {
		t.Fatal(err)
	}
	for tm := int64(1); tm <= 100; tm++ {
		if err := live.Push(ev(tm)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := live.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := cogra.Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// After the cut: in-slack stragglers until the depth cap refuses
	// them, one beyond the slack, then an in-order tail.
	suffix := []int64{97, 98, 99, 96, 97, 98, 99, 90, 101, 96, 110}
	for tm := int64(111); tm <= 300; tm++ {
		suffix = append(suffix, tm)
	}
	run := func(sess *cogra.Session) (outcomes string, rs []cogra.Result, st cogra.SessionStats) {
		var late, full int
		for _, tm := range suffix {
			err := sess.Push(ev(tm))
			switch {
			case err == nil:
				outcomes += "."
			case errors.Is(err, cogra.ErrLateEvent):
				outcomes += "L"
				late++
			case errors.Is(err, cogra.ErrBackpressure):
				outcomes += "B"
				full++
			default:
				t.Fatalf("push %d: %v", tm, err)
			}
		}
		if late == 0 || full == 0 {
			t.Fatalf("pushes %s refuse %d late and %d at the depth cap: the test is vacuous", outcomes, late, full)
		}
		st, err := sess.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		return outcomes, sess.Subscriptions()[0].Drain(), st
	}
	wantOut, want, wantSt := run(live)
	gotOut, got, gotSt := run(restored)
	if gotOut != wantOut {
		t.Errorf("push outcomes after the cut: restored %s, undisturbed %s", gotOut, wantOut)
	}
	if gotSt.Workers != 2 || fmt.Sprintf("%+v", gotSt) != fmt.Sprintf("%+v", wantSt) {
		t.Errorf("stats after the suffix\nrestored:    %+v\nundisturbed: %+v", gotSt, wantSt)
	}
	if len(want) == 0 || !diff.Equal(got, want) {
		t.Errorf("restored results diverge from the undisturbed run (%d results)\n%s", len(want), diff.Diff(got, want))
	}
}

// readGolden loads one committed golden frame.
func readGolden(tb testing.TB, name string) []byte {
	tb.Helper()
	golden, err := os.ReadFile("testdata/golden/" + name + ".snap")
	if err != nil {
		tb.Fatal(err)
	}
	return golden
}

// TestSnapshotGoldenFrames pins the wire format byte for byte: each
// diff.GoldenFrames scenario, rebuilt from scratch, must snapshot to
// exactly the committed frame, and restoring the committed frame must
// re-encode to the same bytes. The frames were first written by the
// paired encode/decode functions the Coder methods replaced, so this is
// what makes "the format did not move" checked rather than trusted.
// Regenerate (after a deliberate snap.Version bump only) with
// go run scripts/gen_fuzz_corpus.go.
func TestSnapshotGoldenFrames(t *testing.T) {
	for _, g := range diff.GoldenFrames() {
		t.Run(g.Name, func(t *testing.T) {
			golden := readGolden(t, g.Name)
			sess, err := g.Build()
			if err != nil {
				t.Fatal(err)
			}
			st, err := sess.Stats()
			if err != nil {
				t.Fatal(err)
			}
			switch { // the sections these frames are committed for
			case g.Name == "fleet" && (st.Workers != 5 || st.ExecutorGroups != 1 || st.SharedGroups == 0),
				g.Name == "handover" && (st.SharedGroups != 1 || st.ShareFlips != 1),
				g.Name == "retired" && (st.Workers != 2 || st.ExecutorGroups != 0 || st.SharedGroups != 2 || st.ShareFlips != 1),
				g.Name == "literals" && st.SharedGroups != 0:
				t.Fatalf("%s scenario is vacuous: %+v", g.Name, st)
			}
			var built bytes.Buffer
			if err := sess.Snapshot(&built); err != nil {
				t.Fatal(err)
			}
			sess.Close()
			if !bytes.Equal(built.Bytes(), golden) {
				t.Errorf("rebuilt scenario snapshots to %d bytes that differ from the %d golden ones: %s",
					built.Len(), len(golden), diff.FirstByteDiff(built.String(), string(golden)))
			}
			restored, err := cogra.Restore(bytes.NewReader(golden))
			if err != nil {
				t.Fatalf("golden frame does not restore: %v", err)
			}
			var again bytes.Buffer
			if err := restored.Snapshot(&again); err != nil {
				t.Fatal(err)
			}
			restored.Close()
			if !bytes.Equal(again.Bytes(), golden) {
				t.Errorf("restored golden frame re-encodes differently: %s",
					diff.FirstByteDiff(again.String(), string(golden)))
			}
		})
	}
}

// TestRestoreKeepsRetiredSharingCounters: a retired fallback worker's
// handover and saved operations live on only in the executor's retired
// counters (the retired golden scenario), and the session's sharing
// Stats read the same on both sides of a snapshot and restore.
func TestRestoreKeepsRetiredSharingCounters(t *testing.T) {
	var build func() (*cogra.Session, error)
	for _, g := range diff.GoldenFrames() {
		if g.Name == "retired" {
			build = g.Build
		}
	}
	sess, err := build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sess.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	before, err := sess.Stats()
	if err != nil {
		t.Fatal(err)
	}
	sess.Close()
	if before.ExecutorGroups != 0 || before.ShareFlips == 0 {
		t.Fatalf("the fallback worker did not hand over and retire: %+v", before)
	}
	restored, err := cogra.Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	after, err := restored.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if after.ShareFlips != before.ShareFlips || after.SharedSavedOps != before.SharedSavedOps {
		t.Errorf("sharing counters across the cut: handovers %d -> %d, saved operations %d -> %d",
			before.ShareFlips, after.ShareFlips, before.SharedSavedOps, after.SharedSavedOps)
	}
}

// TestRestoreBalancesPlanTable: every golden scenario, live and
// restored from its own frame, shares plans between the same
// subscriptions (two made from one SubscribePlan stay on one plan), and
// once every query unsubscribed both catalogs hold the same symbols in
// the same slots: the table's entries are retained and released as
// live hosting does.
func TestRestoreBalancesPlanTable(t *testing.T) {
	for _, g := range diff.GoldenFrames() {
		t.Run(g.Name, func(t *testing.T) {
			live, err := g.Build()
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := live.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			restored, err := cogra.Restore(&buf)
			if err != nil {
				t.Fatal(err)
			}
			shape := func(sess *cogra.Session) (string, [4]int) {
				var shared []bool
				subs := sess.Subscriptions()
				for _, a := range subs {
					for _, b := range subs {
						shared = append(shared, a.Active() && b.Active() && a.Plan() == b.Plan())
					}
				}
				for _, sub := range subs {
					if sub.Active() {
						if sub.Unsubscribe(); sub.Err() != nil {
							t.Fatal(sub.Err())
						}
					}
				}
				st, err := sess.Stats()
				if err != nil {
					t.Fatal(err)
				}
				sess.Close()
				return fmt.Sprint(shared), [4]int{st.InternedTypes, st.InternedAttrs, st.InternedTypeSlots, st.InternedAttrSlots}
			}
			livePlans, liveSyms := shape(live)
			gotPlans, gotSyms := shape(restored)
			if gotPlans != livePlans {
				t.Errorf("plans shared between subscriptions: restored %s, live %s", gotPlans, livePlans)
			}
			if gotSyms != liveSyms {
				t.Errorf("catalog after every query left (types, attributes, type slots, attribute slots): restored %v, live %v", gotSyms, liveSyms)
			}
		})
	}
}

// restoreCorpusFrame restores the []byte literal of one committed
// FuzzSnapshotDecode corpus file.
func restoreCorpusFrame(t *testing.T, name string) error {
	t.Helper()
	raw, err := os.ReadFile("testdata/fuzz/FuzzSnapshotDecode/" + name)
	if err != nil {
		t.Fatal(err)
	}
	_, lit, _ := strings.Cut(string(raw), "\n") // skip the "go test fuzz v1" line
	frame, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")\n"))
	if err != nil {
		t.Fatalf("corpus file is not a []byte literal: %v", err)
	}
	_, err = cogra.Restore(strings.NewReader(frame))
	return err
}

// TestRestoreRefusesV3Frame: the frame an inline session wrote under
// format v3 (its own topology section, before every session nested an
// executor blob) is version skew, not corruption to guess around.
func TestRestoreRefusesV3Frame(t *testing.T) {
	if err := restoreCorpusFrame(t, "seed_v3_inline"); !errors.Is(err, cogra.ErrBadSnapshot) {
		t.Errorf("Restore of a v3 frame: %v, want ErrBadSnapshot", err)
	}
}

// TestRestoreRefusesV4Frame: likewise the fleet golden frame as the
// last format-v4 build wrote it — per-subscription engines and the
// sharing-group mode machine, sections this build no longer has.
func TestRestoreRefusesV4Frame(t *testing.T) {
	if err := restoreCorpusFrame(t, "seed_v4_fleet"); !errors.Is(err, cogra.ErrBadSnapshot) {
		t.Errorf("Restore of a v4 frame: %v, want ErrBadSnapshot", err)
	}
}

// TestRestoreRefusesV5Frame: the fleet golden frame as the last
// format-v5 build wrote it — every query coded once per subscription
// and again per host, beside the fields of options that build no longer
// had. This build reads one plan table and refuses the frame.
func TestRestoreRefusesV5Frame(t *testing.T) {
	if err := restoreCorpusFrame(t, "seed_v5_fleet"); !errors.Is(err, cogra.ErrBadSnapshot) {
		t.Errorf("Restore of a v5 frame: %v, want ErrBadSnapshot", err)
	}
}

// TestRestoreRefusesV6Frame: the fleet golden frame as the last
// format-v6 build wrote it — each plan table entry coded by structure,
// where this build reads the query's text.
func TestRestoreRefusesV6Frame(t *testing.T) {
	if err := restoreCorpusFrame(t, "seed_v6_fleet"); !errors.Is(err, cogra.ErrBadSnapshot) {
		t.Errorf("Restore of a v6 frame: %v, want ErrBadSnapshot", err)
	}
}

// TestRestoreLaggingV7Frames: the fleet and retired golden frames, and
// quiet.snap (quietWorkerSession), as the last build whose workers
// lagged the executor's watermark wrote them (testdata/golden/v7-lagging,
// never regenerated). Their workers stand at their own last events and
// some of their engines at a late joiner's alignment point — in quiet,
// past the clock of a runtime that never saw an event, yet not past
// the executor's. The layout is today's, so they restore, and once
// restored they drain, take a suffix and close exactly like the
// undisturbed scenario: the first park advances each worker to the
// executor's watermark.
func TestRestoreLaggingV7Frames(t *testing.T) {
	builds := map[string]func() (*cogra.Session, error){"quiet": quietWorkerSession}
	for _, g := range diff.GoldenFrames() {
		if g.Name == "fleet" || g.Name == "retired" {
			builds[g.Name] = g.Build
		}
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			old, err := os.ReadFile("testdata/golden/v7-lagging/" + name + ".snap")
			if err != nil {
				t.Fatal(err)
			}
			if name != "quiet" && bytes.Equal(old, readGolden(t, name)) {
				t.Fatal("the lagging frame equals today's: the test is vacuous")
			}
			restored, err := cogra.Restore(bytes.NewReader(old))
			if err != nil {
				t.Fatalf("a lagging v7 frame does not restore: %v", err)
			}
			live, err := build()
			if err != nil {
				t.Fatal(err)
			}
			st, err := live.Stats()
			if err != nil {
				t.Fatal(err)
			}
			run := func(sess *cogra.Session) [][]cogra.Result {
				suffix := diff.PatientStream(diff.PatientShape{Seed: 41, Step: diff.RunStep, Burst: diff.BurstOf3To8}, 900)
				for i, e := range suffix {
					e.Time += st.Watermark + 1
					e.ID = int64(100_000 + i)
				}
				var drains [][]cogra.Result
				drainAll := func() {
					for _, sub := range sess.Subscriptions() {
						if sub.Active() {
							drains = append(drains, sub.Drain())
						}
					}
				}
				for lo := 0; lo < len(suffix); lo += 300 {
					drainAll()
					if err := sess.PushBatch(suffix[lo : lo+300]); err != nil {
						t.Fatal(err)
					}
				}
				if err := sess.Close(); err != nil {
					t.Fatal(err)
				}
				drainAll()
				return drains
			}
			want, got := run(live), run(restored)
			if len(got) != len(want) {
				t.Fatalf("%d drains after the restore, %d undisturbed", len(got), len(want))
			}
			results := 0
			for i := range want {
				if !diff.Equal(got[i], want[i]) {
					t.Fatalf("drain %d diverges from the undisturbed run\n%s", i, diff.Diff(got[i], want[i]))
				}
				results += len(want[i])
			}
			if results == 0 {
				t.Fatal("no results after the cut: the test is vacuous")
			}
		})
	}
}

// quietWorkerSession is the scenario of testdata/golden/v7-lagging/
// quiet.snap: 4 workers, a patient-partitioned query, 200 events of
// one patient, so three workers never see an event, then a late joiner.
func quietWorkerSession() (*cogra.Session, error) {
	sess := cogra.NewSession(cogra.WithWorkers(4))
	q := diff.PatientQueries()
	if _, err := sess.Subscribe(cogra.MustParse(q["type"])); err != nil {
		return nil, err
	}
	var evs []*cogra.Event
	for i := int64(1); i <= 200; i++ {
		ty := "A"
		if i%3 == 0 {
			ty = "B"
		}
		ev := cogra.NewEvent(ty, i).WithSym("patient", "p0").WithSym("ward", "w0").WithNum("v", float64(i))
		ev.ID = i
		evs = append(evs, ev)
	}
	if err := sess.PushBatch(evs); err != nil {
		return nil, err
	}
	_, err := sess.Subscribe(cogra.MustParse(q["mixed"]))
	return sess, err
}

// TestRestoreRefusesWatermarkInversion: a worker runtime or an engine
// standing past the executor's watermark would refuse the first park's
// advance, so decoding refuses the frame. The damage is one byte of the
// lagging retired frame's payload, the checksum fixed up: byte 3 of the
// first worker's clock, and byte 3 of an engine's clock, each set to 1
// (2^24 ahead).
func TestRestoreRefusesWatermarkInversion(t *testing.T) {
	frame, err := os.ReadFile("testdata/golden/v7-lagging/retired.snap")
	if err != nil {
		t.Fatal(err)
	}
	payload := frame[20 : len(frame)-4]
	for _, at := range []int{381, 7847} {
		damaged := append([]byte(nil), payload...)
		damaged[at] = 0x01
		if _, err := cogra.Restore(bytes.NewReader(reframe(damaged))); !errors.Is(err, cogra.ErrBadSnapshot) {
			t.Errorf("a clock set 2^24 ahead at payload offset %d: Restore returned %v, want ErrBadSnapshot", at, err)
		}
	}
}

// TestRestoreThenSubscribe: a restored session keeps full dynamic
// membership — a query subscribed AFTER restore behaves exactly like
// one subscribed mid-stream in the undisturbed run.
func TestRestoreThenSubscribe(t *testing.T) {
	events := sessionTestStream(2400)
	k := len(events) / 2
	joinTime := events[k-1].Time
	src := diff.PatientQueries()["mixed"]
	for mode, mopts := range sessionModes() {
		t.Run(mode, func(t *testing.T) {
			sess := cogra.NewSession(mopts...)
			if _, err := sess.Subscribe(cogra.MustParse(diff.PatientQueries()["type"])); err != nil {
				t.Fatal(err)
			}
			if err := sess.PushBatch(events[:k]); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := sess.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			sess.Close()
			restored, err := cogra.Restore(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			late, err := restored.Subscribe(cogra.MustParse(src))
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.PushBatch(events[k:]); err != nil {
				t.Fatal(err)
			}
			if err := restored.Close(); err != nil {
				t.Fatal(err)
			}
			got := late.Drain()
			want := diff.FullWindowsAfter(soloRun(t, src, events[k:]), joinTime)
			if !diff.Equal(got, want) {
				t.Errorf("post-restore subscriber diverges from suffix solo run\n%s", diff.Diff(got, want))
			}
			if len(want) == 0 {
				t.Error("no results; test is vacuous")
			}
		})
	}
}

// TestRestorePendingResults: results buffered but not yet drained at
// the cut survive the snapshot and come back from the restored
// subscription's Drain.
func TestRestorePendingResults(t *testing.T) {
	events := sessionTestStream(2400)
	for mode, mopts := range sessionModes() {
		t.Run(mode, func(t *testing.T) {
			src := diff.PatientQueries()["type"]
			sess := cogra.NewSession(mopts...)
			sub, err := sess.Subscribe(cogra.MustParse(src))
			if err != nil {
				t.Fatal(err)
			}
			if err := sess.PushBatch(events); err != nil {
				t.Fatal(err)
			}
			if err := sess.Close(); err != nil {
				t.Fatal(err)
			}
			want := sub.Drain() // the full run's results, none drained early

			sess2 := cogra.NewSession(mopts...)
			sub2, err := sess2.Subscribe(cogra.MustParse(src))
			if err != nil {
				t.Fatal(err)
			}
			if err := sess2.PushBatch(events[:len(events)/2]); err != nil {
				t.Fatal(err)
			}
			// Consume ONE available result and break: the rest moves into
			// the subscription's session-level pending buffer, which the
			// snapshot must carry (engine buffers alone would miss it).
			var early []cogra.Result
			for r := range sub2.Results() {
				early = append(early, r)
				break
			}
			if len(early) == 0 {
				t.Fatal("no results available at the cut; test is vacuous")
			}
			var buf bytes.Buffer
			if err := sess2.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			sess2.Close()
			restored, err := cogra.Restore(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.PushBatch(events[len(events)/2:]); err != nil {
				t.Fatal(err)
			}
			if err := restored.Close(); err != nil {
				t.Fatal(err)
			}
			got := append(early, restored.Subscriptions()[0].Drain()...)
			if fmt.Sprintf("%v", got) != fmt.Sprintf("%v", want) {
				t.Errorf("pending results lost or reordered across restore\ngot:  %v\nwant: %v", got, want)
			}
			if len(want) == 0 {
				t.Error("no results; test is vacuous")
			}
		})
	}
}

// reframe wraps a (possibly damaged) payload in a valid envelope, so the
// damage reaches the decoder instead of stopping at the checksum.
func reframe(payload []byte) []byte {
	out := append([]byte(snap.Magic), make([]byte, 12)...)
	binary.LittleEndian.PutUint32(out[8:], snap.Version)
	binary.LittleEndian.PutUint64(out[12:], uint64(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
}

// TestRestoreSurvivesPayloadDamage drives the decoder itself — behind
// the checksum, where the byte-level fuzzer rarely gets — with every
// golden frame's payload truncated at each offset and with single bytes
// overwritten. Restore must fail with a typed error or, when the damage
// happens to decode, return a session that snapshots to a fixpoint and
// closes; it must never panic or hang.
func TestRestoreSurvivesPayloadDamage(t *testing.T) {
	for _, g := range diff.GoldenFrames() {
		t.Run(g.Name, func(t *testing.T) {
			golden := readGolden(t, g.Name)
			payload := golden[20 : len(golden)-4]
			if !bytes.Equal(reframe(payload), golden) {
				t.Fatal("reframe does not reproduce the golden envelope")
			}
			stride := 1 + len(payload)/1024 // byte damage is sampled on the larger frames
			if testing.Short() {
				stride *= 8
			}
			try := func(what string, at int, damaged []byte) {
				sess, err := cogra.Restore(bytes.NewReader(reframe(damaged)))
				if err != nil {
					if !errors.Is(err, cogra.ErrBadSnapshot) {
						t.Fatalf("%s at payload offset %d: untyped error %v", what, at, err)
					}
					return
				}
				// Damage that decodes may still describe an impossible stream
				// position (a clock ahead of the buffered events, say), which
				// a later Push or Close reports as an ordinary typed error;
				// what it must not do is break the codec.
				var first, second bytes.Buffer
				if err := sess.Snapshot(&first); err != nil {
					t.Fatalf("%s at payload offset %d: accepted, but does not snapshot: %v", what, at, err)
				}
				sess.Close()
				again, err := cogra.Restore(bytes.NewReader(first.Bytes()))
				if err != nil {
					t.Fatalf("%s at payload offset %d: accepted, but its snapshot does not restore: %v", what, at, err)
				}
				if err := again.Snapshot(&second); err != nil || !bytes.Equal(first.Bytes(), second.Bytes()) {
					t.Fatalf("%s at payload offset %d: accepted, but its snapshot is not a fixpoint (%v)", what, at, err)
				}
				again.Close()
			}
			for at := 0; at < len(payload); at += 1 + len(payload)/16384 { // every offset, but for the goroutine fleet
				try("truncation", at, payload[:at])
			}
			for at := 0; at < len(payload); at += stride {
				for _, b := range []byte{0x00, 0x01, 0x7f, 0xff} {
					if payload[at] != b {
						damaged := append([]byte(nil), payload...)
						damaged[at] = b
						try(fmt.Sprintf("byte %#02x", b), at, damaged)
					}
				}
			}
		})
	}
}

// TestSharedAggregationAddedAtRestore: a restored group takes joiners
// as a live one does. Each golden frame restores, takes a second
// subscription of its first active query, and runs a suffix. The second
// subscription must join the restored query's group (SharedGroups >= 1)
// and report the first one's results from its first full window on.
// The subtests group the frames by topology.
func TestSharedAggregationAddedAtRestore(t *testing.T) {
	frames := map[string][]string{
		"inline":   {"detached", "handover", "literals", "mixed", "unconstrained", "vectors"},
		"workers2": {"retired"},
		"workers4": {"fleet"},
	}
	for mode, names := range frames {
		t.Run(mode, func(t *testing.T) {
			for _, name := range names {
				sess, err := cogra.Restore(bytes.NewReader(readGolden(t, name)))
				if err != nil {
					t.Fatal(err)
				}
				st, err := sess.Stats()
				if err != nil {
					t.Fatal(err)
				}
				if (st.Workers > 1) != (mode != "inline") {
					t.Fatalf("%s restores to %d workers: filed under the wrong topology", name, st.Workers)
				}
				var first *cogra.Subscription
				for _, sub := range sess.Subscriptions() {
					if sub.Active() {
						first = sub
						break
					}
				}
				if first == nil {
					t.Fatalf("%s has no active subscription", name)
				}
				second, err := sess.Subscribe(cogra.MustParse(first.Plan().Query.String()))
				if err != nil {
					t.Fatal(err)
				}
				if joined, err := sess.Stats(); err != nil || joined.SharedGroups < 1 {
					t.Errorf("%s: the second subscription did not join the restored group: %+v, %v", name, joined, err)
				}
				// The session test mix after the cut, with C for X and an x
				// value, so the three-slot SEQ(A+, B, C) of the vectors frame
				// matches too.
				suffix := sessionTestStream(600)
				for i, e := range suffix {
					e.Time += st.Watermark + 1
					e.WithSym("x", fmt.Sprintf("x%d", i%3))
					if e.Type == "X" {
						e.Type = "C"
					}
				}
				if err := sess.PushBatch(suffix); err != nil {
					t.Fatal(err)
				}
				if err := sess.Close(); err != nil {
					t.Fatal(err)
				}
				got := second.Drain()
				if len(got) == 0 {
					t.Errorf("%s: the second subscription reported nothing; the test is vacuous", name)
				}
				if want := diff.FullWindowsAfter(first.Drain(), st.Watermark); !diff.Equal(got, want) {
					t.Errorf("%s: the second subscription diverges from the first's full windows\n%s", name, diff.Diff(got, want))
				}
			}
		})
	}
}
