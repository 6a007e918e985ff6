package window

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestWindowsOfQ1Style(t *testing.T) {
	// WITHIN 600 SLIDE 30 (q1: 10 minutes / 30 seconds).
	s := Spec{Within: 600, Slide: 30}
	first, last := s.WindowsOf(0)
	if first != 0 || last != 0 {
		t.Errorf("WindowsOf(0) = [%d,%d]", first, last)
	}
	first, last = s.WindowsOf(599)
	if first != 0 || last != 19 {
		t.Errorf("WindowsOf(599) = [%d,%d], want [0,19]", first, last)
	}
	first, last = s.WindowsOf(600)
	if first != 1 || last != 20 {
		t.Errorf("WindowsOf(600) = [%d,%d], want [1,20]", first, last)
	}
	if got := s.MaxConcurrent(); got != 20 {
		t.Errorf("MaxConcurrent = %d, want 20", got)
	}
}

func TestBoundsAndMembershipAgreeProperty(t *testing.T) {
	f := func(rawW, rawS, rawT uint16) bool {
		s := Spec{Within: int64(rawW%500) + 1, Slide: int64(rawS%100) + 1}
		tm := int64(rawT % 2000)
		first, last := s.WindowsOf(tm)
		// Exhaustively check membership against Bounds over a range
		// safely covering all candidate windows. first > last is legal
		// when Slide > Within leaves gaps.
		for wid := int64(0); wid <= tm/s.Slide+2; wid++ {
			lo, hi := s.Bounds(wid)
			member := lo <= tm && tm < hi
			inRange := first <= wid && wid <= last
			if member != inRange {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestClosedBefore(t *testing.T) {
	s := Spec{Within: 10, Slide: 5}
	// Window 0 = [0,10). Closed once watermark reaches 10.
	if got := s.ClosedBefore(9); got != -1 {
		t.Errorf("ClosedBefore(9) = %d, want -1", got)
	}
	if got := s.ClosedBefore(10); got != 0 {
		t.Errorf("ClosedBefore(10) = %d, want 0", got)
	}
	if got := s.ClosedBefore(20); got != 2 {
		t.Errorf("ClosedBefore(20) = %d, want 2", got)
	}
}

func TestValidate(t *testing.T) {
	if err := (Spec{Within: 10, Slide: 5}).Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	if err := (Spec{Within: 0, Slide: 5}).Validate(); err == nil {
		t.Error("zero WITHIN accepted")
	}
	if err := (Spec{Within: 10, Slide: 0}).Validate(); err == nil {
		t.Error("zero SLIDE accepted")
	}
}

func TestManagerLifecycle(t *testing.T) {
	created := []int64{}
	m := NewManager(Spec{Within: 10, Slide: 5}, func(wid int64) *int {
		created = append(created, wid)
		v := 0
		return &v
	})
	// t=7 belongs to windows 0 ([0,10)) and 1 ([5,15)).
	states := m.StatesFor(7)
	if len(states) != 2 || !reflect.DeepEqual(created, []int64{0, 1}) {
		t.Fatalf("StatesFor(7): %d states, created %v", len(states), created)
	}
	for _, st := range states {
		*st++
	}
	// Same windows again: no new state.
	m.StatesFor(9)
	if len(created) != 2 {
		t.Errorf("states recreated: %v", created)
	}
	if got := m.ActiveWids(); len(got) != 2 {
		t.Errorf("active windows = %v, want 2", got)
	}
	// Watermark 12 closes window 0 only.
	closed := m.AdvanceTo(12)
	if len(closed) != 1 || closed[0].Wid != 0 || *closed[0].State != 1 {
		t.Fatalf("AdvanceTo(12) = %+v", closed)
	}
	if got := m.ActiveWids(); len(got) != 1 {
		t.Errorf("active windows after close = %v, want 1", got)
	}
	// Flush emits the rest in order.
	rest := m.Flush()
	if len(rest) != 1 || rest[0].Wid != 1 {
		t.Fatalf("Flush = %+v", rest)
	}
	if len(m.ActiveWids()) != 0 {
		t.Error("states remain after Flush")
	}
}

func TestManagerSkipsEmittedWindows(t *testing.T) {
	m := NewManager(Spec{Within: 10, Slide: 5}, func(wid int64) int64 { return wid })
	m.StatesFor(3)
	m.AdvanceTo(100) // closes everything so far
	// A late event for an already-emitted window must not resurrect it.
	states := m.StatesFor(3)
	if len(states) != 0 {
		t.Errorf("late event resurrected %d windows", len(states))
	}
	// AdvanceTo with an older watermark is a no-op.
	if closed := m.AdvanceTo(50); closed != nil {
		t.Errorf("regressed watermark closed %v", closed)
	}
}

func TestManagerEmitsInWidOrder(t *testing.T) {
	m := NewManager(Spec{Within: 4, Slide: 2}, func(wid int64) int64 { return wid })
	for _, tm := range []int64{9, 1, 5, 3, 7} { // touch windows out of order
		m.StatesFor(tm)
	}
	closed := m.AdvanceTo(100)
	var wids []int64
	for _, c := range closed {
		wids = append(wids, c.Wid)
	}
	for i := 1; i < len(wids); i++ {
		if wids[i-1] >= wids[i] {
			t.Fatalf("emission out of order: %v", wids)
		}
	}
}

func TestTumblingWindow(t *testing.T) {
	// Slide == Within: each event in exactly one window.
	s := Spec{Within: 10, Slide: 10}
	for tm := int64(0); tm < 100; tm++ {
		first, last := s.WindowsOf(tm)
		if first != last || first != tm/10 {
			t.Fatalf("tumbling WindowsOf(%d) = [%d,%d]", tm, first, last)
		}
	}
	if got := s.MaxConcurrent(); got != 1 {
		t.Errorf("MaxConcurrent = %d", got)
	}
}

func TestHoppingLargerSlide(t *testing.T) {
	// Slide > Within: gaps between windows; some times in no window.
	s := Spec{Within: 5, Slide: 10}
	first, last := s.WindowsOf(7) // [0,5) and [10,15) exclude 7
	if first <= last {
		t.Errorf("time in gap reported windows [%d,%d]", first, last)
	}
	first, last = s.WindowsOf(12)
	if first != 1 || last != 1 {
		t.Errorf("WindowsOf(12) = [%d,%d], want [1,1]", first, last)
	}
}

func TestFlushTwiceIsEmpty(t *testing.T) {
	m := NewManager(Spec{Within: 10, Slide: 10}, func(wid int64) int64 { return wid })
	m.StatesFor(5)
	if got := len(m.Flush()); got != 1 {
		t.Fatalf("first Flush = %d", got)
	}
	if got := len(m.Flush()); got != 0 {
		t.Errorf("second Flush = %d, want 0", got)
	}
}

// TestManagerWidGapsAcrossIdlePeriods: an idle stream period skips
// window ids entirely — windows nothing landed in are neither created
// nor emitted, and the emitted cursor jumps the gap without
// materialising intermediate states.
func TestManagerWidGapsAcrossIdlePeriods(t *testing.T) {
	created := []int64{}
	m := NewManager(Spec{Within: 10, Slide: 10}, func(wid int64) int64 {
		created = append(created, wid)
		return wid
	})
	m.StatesFor(3) // window 0
	// Long idle gap: the next event lands in window 100.
	closed := m.AdvanceTo(1000)
	if len(closed) != 1 || closed[0].Wid != 0 {
		t.Fatalf("AdvanceTo(1000) = %+v, want only wid 0", closed)
	}
	states := m.StatesFor(1000) // window 100
	if len(states) != 1 || states[0] != 100 {
		t.Fatalf("StatesFor(1000) = %v, want [100]", states)
	}
	if !reflect.DeepEqual(created, []int64{0, 100}) {
		t.Errorf("created windows %v; idle-gap windows materialised", created)
	}
	// The gap windows 1..99 never existed, so nothing further closes
	// until window 100's own close time.
	if closed := m.AdvanceTo(1009); len(closed) != 0 {
		t.Errorf("gap advance closed %v", closed)
	}
	if closed := m.AdvanceTo(1010); len(closed) != 1 || closed[0].Wid != 100 {
		t.Errorf("AdvanceTo(1010) = %+v, want wid 100", closed)
	}
}

// TestManagerFlushAfterAdvanceTo: Flush only emits what AdvanceTo has
// not, never re-emits, and leaves the emitted cursor past everything
// so stragglers cannot resurrect flushed windows.
func TestManagerFlushAfterAdvanceTo(t *testing.T) {
	m := NewManager(Spec{Within: 10, Slide: 5}, func(wid int64) int64 { return wid })
	m.StatesFor(7)  // windows 0, 1
	m.StatesFor(12) // windows 1, 2
	if closed := m.AdvanceTo(12); len(closed) != 1 || closed[0].Wid != 0 {
		t.Fatalf("AdvanceTo(12) = %+v, want wid 0", closed)
	}
	rest := m.Flush()
	if len(rest) != 2 || rest[0].Wid != 1 || rest[1].Wid != 2 {
		t.Fatalf("Flush after AdvanceTo = %+v, want wids 1,2", rest)
	}
	// Late events into flushed windows are dropped...
	if states := m.StatesFor(12); len(states) != 0 {
		t.Errorf("flushed window resurrected: %v", states)
	}
	// ...but genuinely new windows past the flush still open.
	if states := m.StatesFor(15); len(states) != 1 || states[0] != 3 {
		t.Errorf("StatesFor(15) after flush = %v, want [3]", states)
	}
}

// TestManagerLateEventPartialOverlap: an event whose window range
// straddles the emitted boundary contributes only to the still-open
// windows — the emitted prefix is clamped off.
func TestManagerLateEventPartialOverlap(t *testing.T) {
	m := NewManager(Spec{Within: 15, Slide: 5}, func(wid int64) int64 { return wid })
	// t=16 belongs to windows 1 ([5,20)), 2 ([10,25)), 3 ([15,30)).
	if states := m.StatesFor(16); len(states) != 3 {
		t.Fatalf("StatesFor(16) = %v", states)
	}
	// Watermark 21 closes windows 0 (empty, skipped) and 1.
	if closed := m.AdvanceTo(21); len(closed) != 1 || closed[0].Wid != 1 {
		t.Fatalf("AdvanceTo(21) = %+v, want wid 1", closed)
	}
	// Another t=16 event (same watermark) now reaches only 2 and 3.
	states := m.StatesFor(16)
	if len(states) != 2 || states[0] != 2 || states[1] != 3 {
		t.Errorf("late StatesFor(16) = %v, want [2 3]", states)
	}
}

// TestManagerAppendStatesForReusesDst: the append variant fills the
// caller's scratch slice without reallocating when capacity suffices.
func TestManagerAppendStatesForReusesDst(t *testing.T) {
	m := NewManager(Spec{Within: 10, Slide: 5}, func(wid int64) int64 { return wid })
	scratch := make([]int64, 0, 8)
	out := m.AppendStatesFor(scratch, 7)
	if len(out) != 2 || cap(out) != 8 {
		t.Errorf("AppendStatesFor reallocated: len=%d cap=%d", len(out), cap(out))
	}
	out2 := m.AppendStatesFor(out[:0], 7)
	if len(out2) != 2 || &out2[0] != &out[0] {
		t.Error("AppendStatesFor did not reuse the scratch slice")
	}
}

// TestFirstFullWindow pins the partial-first-window semantics of
// mid-stream subscription: a window is fully covered by an observer
// joining at watermark t only if its start lies strictly after t.
func TestFirstFullWindow(t *testing.T) {
	s := Spec{Within: 10, Slide: 5}
	for _, c := range []struct {
		t    int64
		want int64
	}{
		{0, 1},  // window 0 covers time 0: partial
		{4, 1},  // window 1 starts at 5 > 4
		{5, 2},  // window 1 covers time 5: partial
		{14, 3}, // window 3 starts at 15
		{15, 4},
	} {
		if got := s.FirstFullWindow(c.t); got != c.want {
			t.Errorf("FirstFullWindow(%d) = %d, want %d", c.t, got, c.want)
		}
	}
	// Slide > Within leaves gaps but the rule is the same.
	g := Spec{Within: 5, Slide: 20}
	if got := g.FirstFullWindow(19); got != 1 {
		t.Errorf("gapped FirstFullWindow(19) = %d, want 1", got)
	}
}

// countState is a per-window event counter for the SkipBefore tests.
type countState struct {
	wid int64
	n   int
}

// TestManagerSkipBefore: suppressed windows are neither created nor
// emitted, later windows behave normally, and the floor never moves
// backward.
func TestManagerSkipBefore(t *testing.T) {
	m := NewManager(Spec{Within: 10, Slide: 10}, func(wid int64) *countState {
		return &countState{wid: wid}
	})
	m.SkipBefore(2) // observer joined at watermark in window 1
	m.SkipBefore(1) // floor must not regress
	for _, tm := range []int64{5, 15, 25, 35} {
		for _, st := range m.StatesFor(tm) {
			st.n++
		}
	}
	var got []int64
	for _, c := range m.AdvanceTo(40) {
		got = append(got, c.Wid)
		if c.State.n != 1 {
			t.Errorf("window %d counted %d events, want 1", c.Wid, c.State.n)
		}
	}
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("emitted wids = %v, want [2 3]", got)
	}
	if got := m.ActiveWids(); len(got) != 0 {
		t.Errorf("active windows = %v, want none", got)
	}
	// A floor above already-active windows drops them.
	m2 := NewManager(Spec{Within: 10, Slide: 10}, func(wid int64) *countState {
		return &countState{wid: wid}
	})
	m2.StatesFor(5)
	m2.SkipBefore(3)
	if out := m2.Flush(); len(out) != 0 {
		t.Errorf("flushed suppressed windows: %v", out)
	}
}
