package cogra_test

// FuzzSnapshotDecode: Restore over arbitrary bytes must either succeed
// or fail with ErrBadSnapshot — never panic, hang, or over-allocate. The
// committed seed corpus in testdata/fuzz/FuzzSnapshotDecode covers a
// valid snapshot plus truncated, bit-flipped, version-skewed and
// oversized-length mutants (regenerate with scripts/gen_fuzz_corpus.go)
// and one genuine format-v3 frame of an inline session.

import (
	"bytes"
	"errors"
	"testing"

	cogra "repro"
	"repro/internal/fuzz/diff"
)

// fuzzSeedSnapshot builds a small but representative valid snapshot:
// two granularities subscribed, one unsubscribed (tombstoned catalog
// ids), slack buffer holding events, and a mid-stream cut.
func fuzzSeedSnapshot(tb testing.TB) []byte {
	events := sessionTestStream(400)
	shuffled, slack := diff.ShuffleBounded(events, 6, 7)
	sess := cogra.NewSession(cogra.WithSlack(slack))
	if _, err := sess.Subscribe(cogra.MustParse(diff.PatientQueries()["type"])); err != nil {
		tb.Fatal(err)
	}
	if _, err := sess.Subscribe(cogra.MustParse(diff.PatientQueries()["pattern"])); err != nil {
		tb.Fatal(err)
	}
	extra, err := sess.Subscribe(cogra.MustParse(diff.PatientQueries()["mixed"]))
	if err != nil {
		tb.Fatal(err)
	}
	if err := sess.PushBatch(shuffled[:300]); err != nil {
		tb.Fatal(err)
	}
	extra.Unsubscribe()
	var buf bytes.Buffer
	if err := sess.Snapshot(&buf); err != nil {
		tb.Fatal(err)
	}
	sess.Close()
	return buf.Bytes()
}

// snapshotAndClose snapshots a restored session and closes it.
func snapshotAndClose(t *testing.T, sess *cogra.Session) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sess.Snapshot(&buf); err != nil {
		t.Fatalf("restored session failed to snapshot: %v", err)
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("restored session failed to close: %v", err)
	}
	return buf.Bytes()
}

func FuzzSnapshotDecode(f *testing.F) {
	valid := fuzzSeedSnapshot(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated mid-payload
	f.Add(valid[:11])           // truncated inside the header
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x40 // bit flip (fails the CRC, or a range check)
	f.Add(flipped)
	skewed := append([]byte(nil), valid...)
	skewed[8] = 0xff // version word
	f.Add(skewed)
	oversized := append([]byte(nil), valid...)
	for i := 12; i < 20; i++ {
		oversized[i] = 0xff // declared payload length far beyond the data
	}
	f.Add(oversized)
	f.Add([]byte{})
	f.Add([]byte("COGRASNP"))
	// The golden frames reach the sections the seed above does not
	// (sharing groups, executor groups, interned vectors, staged state).
	for _, g := range diff.GoldenFrames() {
		f.Add(readGolden(f, g.Name))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		sess, err := cogra.Restore(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, cogra.ErrBadSnapshot) {
				t.Fatalf("Restore returned an untyped error: %v", err)
			}
			return
		}
		// Decoded (the valid seed, or an equivalent mutation): whatever
		// Restore accepts it must also be able to write, and what it
		// writes is a fixpoint — it restores and re-encodes to the same
		// bytes. (The input itself need not be: Restore tolerates, e.g.,
		// a heap in any order.)
		first := snapshotAndClose(t, sess)
		again, err := cogra.Restore(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("snapshot of an accepted input does not restore: %v", err)
		}
		if second := snapshotAndClose(t, again); !bytes.Equal(first, second) {
			t.Fatalf("second-generation snapshot differs from the first (%d vs %d bytes)", len(second), len(first))
		}
	})
}
