package cogra_test

// The only calls of the two deprecated session options outside the
// benchmark module: CI fails on any other, since a differential that
// flips one of them compares a session with itself.

import (
	"bytes"
	"strings"
	"testing"

	cogra "repro"
	"repro/internal/fuzz/diff"
)

// TestDeprecatedSessionOptionsAreNoOps: WithSharedAggregation and
// WithInternEviction change nothing — every session shares and evicts.
// A session built with both and one built with neither take the same
// stream with a fleet that reaches both behaviours (two
// fingerprint-equal queries, and a one-slot query whose interns
// rotate); their snapshot frames must be byte-identical.
func TestDeprecatedSessionOptionsAreNoOps(t *testing.T) {
	fleet := []string{diff.PatientQueries()["type"], strings.Replace(diff.PatientQueries()["type"], "COUNT(*), SUM(A.v)", "COUNT(*)", 1), typeSlots}
	events := lifecycleStream(2000)
	frame := func(opts ...cogra.SessionOption) []byte {
		sess := cogra.NewSession(opts...)
		defer sess.Close()
		for _, src := range fleet {
			if _, err := sess.Subscribe(cogra.MustParse(src)); err != nil {
				t.Fatal(err)
			}
		}
		if err := sess.PushBatch(events); err != nil {
			t.Fatal(err)
		}
		st, err := sess.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.SharedGroups < 1 || st.BindingInternBytes == 0 {
			t.Fatalf("the fleet must both share and intern, or the test is vacuous: %+v", st)
		}
		var buf bytes.Buffer
		if err := sess.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	plain := frame()
	shimmed := frame(cogra.WithSharedAggregation(), cogra.WithInternEviction())
	if !bytes.Equal(shimmed, plain) {
		t.Errorf("the deprecated options changed the session: frames of %d and %d bytes differ", len(shimmed), len(plain))
	}
}
