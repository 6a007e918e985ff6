package metrics

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestAccountant(t *testing.T) {
	var a Accountant
	a.Add(100)
	a.Add(50)
	if a.Current() != 150 || a.Peak() != 150 {
		t.Errorf("cur=%d peak=%d", a.Current(), a.Peak())
	}
	a.Add(-120)
	if a.Current() != 30 || a.Peak() != 150 {
		t.Errorf("after release: cur=%d peak=%d", a.Current(), a.Peak())
	}
	a.Add(200)
	if a.Peak() != 230 {
		t.Errorf("new peak = %d", a.Peak())
	}
}

func TestTimerAccumulates(t *testing.T) {
	var tm Timer
	tm.Start()
	time.Sleep(time.Millisecond)
	tm.Stop()
	first := tm.Elapsed()
	if first < time.Millisecond {
		t.Errorf("elapsed = %v", first)
	}
	tm.Start()
	time.Sleep(time.Millisecond)
	tm.Stop()
	if tm.Elapsed() <= first {
		t.Error("timer did not accumulate")
	}
}

func TestRunThroughput(t *testing.T) {
	r := Run{Name: "X", Events: 1000, Latency: time.Second}
	if r.Throughput() != 1000 {
		t.Errorf("throughput = %v", r.Throughput())
	}
	if (Run{}).Throughput() != 0 {
		t.Error("zero-latency throughput not zero")
	}
}

func TestRunString(t *testing.T) {
	ok := Run{Name: "COGRA", Events: 10, Latency: time.Millisecond, PeakBytes: 2048}
	s := ok.String()
	for _, frag := range []string{"COGRA", "2.00KiB", "latency"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
	dnf := Run{Name: "SASE", DNF: true}
	if !strings.Contains(dnf.String(), "DNF") {
		t.Errorf("DNF String() = %q", dnf.String())
	}
	erred := Run{Name: "X", Err: errors.New("boom")}
	if !strings.Contains(erred.String(), "boom") {
		t.Errorf("error String() = %q", erred.String())
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		512:     "512B",
		2048:    "2.00KiB",
		3 << 20: "3.00MiB",
		5 << 30: "5.00GiB",
		2 << 40: "2.00TiB",
	}
	for n, want := range cases {
		if got := FormatBytes(n); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestBudget(t *testing.T) {
	b := NewBudget(10)
	if !b.Spend(5) {
		t.Error("within budget misreported")
	}
	if b.Spend(6) {
		t.Error("overspend accepted")
	}
	if b.Used() != 11 {
		t.Errorf("used=%d", b.Used())
	}
	unlimited := NewBudget(0)
	if !unlimited.Spend(1 << 60) {
		t.Error("unlimited budget tripped")
	}
}
