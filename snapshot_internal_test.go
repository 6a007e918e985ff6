package cogra

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRestoreRetainsPlanTable: a restore rebuilds the topology its frame
// holds verbatim, so every plan-table entry runs again — on a host or
// under an active subscription — and retiring the entries' unreferenced
// symbols retires nothing. On every committed frame, the catalog's live
// and slot counts and its compaction count read the same before and
// after a DiscardPlan of each entry. The entries are the plans the
// restored session runs: the encoder writes exactly those, and a golden
// frame re-encodes verbatim (TestSnapshotGoldenFrames).
func TestRestoreRetainsPlanTable(t *testing.T) {
	frames, err := filepath.Glob("testdata/golden/*.snap")
	if err != nil {
		t.Fatal(err)
	}
	lagging, err := filepath.Glob("testdata/golden/v7-lagging/*.snap")
	if err != nil {
		t.Fatal(err)
	}
	if frames = append(frames, lagging...); len(frames) == 0 || len(lagging) == 0 {
		t.Fatalf("%d committed frames, %d of them lagging: the test is vacuous", len(frames), len(lagging))
	}
	for _, path := range frames {
		t.Run(strings.TrimPrefix(path, "testdata/golden/"), func(t *testing.T) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			s, err := Restore(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.mx.Sync(); err != nil {
				t.Fatal(err)
			}
			plans := s.mx.HostPlans()
			for _, sub := range s.subs {
				if sub.active {
					plans = append(plans, sub.plan)
				}
			}
			if len(plans) == 0 {
				t.Fatal("the frame runs no plan: the test is vacuous")
			}
			counts := func() [5]uint64 {
				return [5]uint64{uint64(s.cat.NumTypes()), uint64(s.cat.NumAttrs()),
					uint64(s.cat.NumTypeSlots()), uint64(s.cat.NumAttrSlots()), s.cat.Compactions()}
			}
			before := counts()
			for _, p := range plans {
				s.cat.DiscardPlan(p)
			}
			if after := counts(); after != before {
				t.Errorf("(types, attributes, type slots, attribute slots, compactions) %v after discarding the plan table, %v before", after, before)
			}
		})
	}
}
