package sessionflags

import (
	"flag"
	"strings"
	"testing"
)

func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestDefaultsProduceNoOptions(t *testing.T) {
	f := parse(t)
	opts, err := f.Options()
	if err != nil {
		t.Fatal(err)
	}
	if len(opts) != 0 {
		t.Fatalf("default flags produced %d options, want 0", len(opts))
	}
}

func TestOptionCounts(t *testing.T) {
	// The helper is shared by two binaries; pin how many options each
	// flag combination yields so a silently-dropped flag fails here
	// rather than in a service's behavior.
	cases := []struct {
		args []string
		want int
	}{
		{[]string{"-workers", "4"}, 1},
		{[]string{"-slack", "0"}, 1},
		{[]string{"-slack", "5", "-late-reject"}, 2},
		{[]string{"-slack", "5", "-max-reorder-depth", "8"}, 2},
		{[]string{"-slack", "5", "-max-reorder-depth", "8", "-reorder-reject"}, 3},
		{[]string{"-workers", "4", "-slack", "1"}, 2},
	}
	for _, c := range cases {
		f := parse(t, c.args...)
		opts, err := f.Options()
		if err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if len(opts) != c.want {
			t.Errorf("%v: %d options, want %d", c.args, len(opts), c.want)
		}
	}
}

func TestCrossFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-late-reject"},
		{"-max-reorder-depth", "4"},
		{"-reorder-reject"},
		{"-slack", "5", "-reorder-reject"}, // reject without a depth cap
		{"-max-reorder-depth", "-1", "-slack", "1"},
	}
	for _, args := range cases {
		f := parse(t, args...)
		if _, err := f.Options(); err == nil {
			t.Errorf("%v: accepted, want a validation error", args)
		}
	}
}

func TestValidationMessagesNameTheFlags(t *testing.T) {
	f := parse(t, "-late-reject")
	_, err := f.Options()
	if err == nil || !strings.Contains(err.Error(), "-slack") {
		t.Fatalf("error %v does not name the missing -slack flag", err)
	}
}
