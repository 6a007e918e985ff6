package pattern

import (
	"reflect"
	"strings"
	"testing"
)

func mustCompile(t *testing.T, p Node) *FSA {
	t.Helper()
	f, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// figure4Pattern is P = (SEQ(A+, B))+ from Figures 2 and 4.
func figure4Pattern() Node {
	return Plus(Seq(Plus(Type("A")), Type("B")))
}

func TestFigure4FSA(t *testing.T) {
	f := mustCompile(t, figure4Pattern())
	if got := f.StartAliases(); !reflect.DeepEqual(got, []string{"A"}) {
		t.Errorf("start = %v, want [A]", got)
	}
	if got := f.EndAliases(); !reflect.DeepEqual(got, []string{"B"}) {
		t.Errorf("end = %v, want [B]", got)
	}
	if got := f.PredTypes("A"); !reflect.DeepEqual(got, []string{"A", "B"}) {
		t.Errorf("predTypes(A) = %v, want [A B]", got)
	}
	if got := f.PredTypes("B"); !reflect.DeepEqual(got, []string{"A"}) {
		t.Errorf("predTypes(B) = %v, want [A]", got)
	}
}

func TestQ2PatternFSA(t *testing.T) {
	// SEQ(Accept, (SEQ(Call, Cancel))+, Finish) from query q2.
	p := Seq(Type("Accept"), Plus(Seq(Type("Call"), Type("Cancel"))), Type("Finish"))
	f := mustCompile(t, p)
	if got := f.StartAliases(); !reflect.DeepEqual(got, []string{"Accept"}) {
		t.Errorf("start = %v", got)
	}
	if got := f.EndAliases(); !reflect.DeepEqual(got, []string{"Finish"}) {
		t.Errorf("end = %v", got)
	}
	wantPred := map[string][]string{
		"Accept": nil,
		"Call":   {"Accept", "Cancel"},
		"Cancel": {"Call"},
		"Finish": {"Cancel"},
	}
	for alias, want := range wantPred {
		got := f.PredTypes(alias)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("predTypes(%s) = %v, want %v", alias, got, want)
		}
	}
}

func TestQ3PatternFSA(t *testing.T) {
	// SEQ(Stock A+, Stock B+) from query q3: same stream type, two aliases.
	p := Seq(Plus(TypeAs("Stock", "A")), Plus(TypeAs("Stock", "B")))
	f := mustCompile(t, p)
	if got := f.PredTypes("A"); !reflect.DeepEqual(got, []string{"A"}) {
		t.Errorf("predTypes(A) = %v", got)
	}
	if got := f.PredTypes("B"); !reflect.DeepEqual(got, []string{"A", "B"}) {
		t.Errorf("predTypes(B) = %v", got)
	}
	if got := f.AliasesForType("Stock"); !reflect.DeepEqual(got, []string{"A", "B"}) {
		t.Errorf("aliasesForType(Stock) = %v", got)
	}
}

func TestSingleTypeKleene(t *testing.T) {
	f := mustCompile(t, Plus(Type("M")))
	if !f.IsStart("M") || !f.IsEnd("M") {
		t.Error("M should be both start and end")
	}
	if got := f.PredTypes("M"); !reflect.DeepEqual(got, []string{"M"}) {
		t.Errorf("predTypes(M) = %v", got)
	}
}

func TestLengthAndHasKleene(t *testing.T) {
	p := Seq(Type("A"), Plus(Seq(Type("B"), Type("C"))), Type("D"))
	if !HasKleene(p) {
		t.Error("HasKleene = false")
	}
	if HasKleene(Seq(Type("A"), Type("B"))) {
		t.Error("event sequence pattern reported as Kleene")
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []Node{
		Seq(),                          // empty SEQ
		Or(),                           // empty OR
		Seq(Type("A"), Type("A")),      // duplicate alias
		Plus(&TypeNode{EventType: ""}), // empty type
		Not(Type("A")),                 // NOT outside SEQ
		&TypeNode{EventType: "A"},      // empty alias
	}
	for i, p := range cases {
		if err := Validate(p); err == nil {
			t.Errorf("case %d (%v): expected validation error", i, p)
		}
	}
	if err := Validate(figure4Pattern()); err != nil {
		t.Errorf("valid pattern rejected: %v", err)
	}
}

func TestCompileRejectsBorderNegation(t *testing.T) {
	if _, err := Compile(Seq(Not(Type("N")), Type("A"))); err == nil {
		t.Error("NOT at start of SEQ accepted")
	}
	if _, err := Compile(Seq(Type("A"), Not(Type("N")))); err == nil {
		t.Error("NOT at end of SEQ accepted")
	}
}

func TestNegationConstraint(t *testing.T) {
	p := Seq(Plus(Type("A")), Not(Type("N")), Type("B"))
	f := mustCompile(t, p)
	if len(f.Negations) != 1 {
		t.Fatalf("negations = %d, want 1", len(f.Negations))
	}
	n := f.Negations[0]
	if !reflect.DeepEqual(n.Pred, []string{"A"}) || !reflect.DeepEqual(n.Follow, []string{"B"}) {
		t.Errorf("negation guard = pred %v follow %v", n.Pred, n.Follow)
	}
	// The positive edge A->B still exists.
	if got := f.PredTypes("B"); !reflect.DeepEqual(got, []string{"A"}) {
		t.Errorf("predTypes(B) = %v", got)
	}
}

func TestDesugarStar(t *testing.T) {
	// SEQ(A*, B) = SEQ(A+, B) OR B (§8).
	p := Seq(Star(Type("A")), Type("B"))
	f := mustCompile(t, p)
	if got := f.StartAliases(); !reflect.DeepEqual(got, []string{"A", "B"}) {
		t.Errorf("start = %v, want [A B]", got)
	}
	if got := f.EndAliases(); !reflect.DeepEqual(got, []string{"B"}) {
		t.Errorf("end = %v", got)
	}
	if got := f.PredTypes("B"); !reflect.DeepEqual(got, []string{"A"}) {
		t.Errorf("predTypes(B) = %v", got)
	}
	if !f.AcceptsAliasSeq([]string{"B"}) {
		t.Error("lone B rejected, star should allow zero As")
	}
	if !f.AcceptsAliasSeq([]string{"A", "A", "B"}) {
		t.Error("AAB rejected")
	}
}

func TestDesugarOptional(t *testing.T) {
	p := Seq(Type("A"), Opt(Type("B")), Type("C"))
	f := mustCompile(t, p)
	if !f.AcceptsAliasSeq([]string{"A", "C"}) || !f.AcceptsAliasSeq([]string{"A", "B", "C"}) {
		t.Error("optional B not handled")
	}
	if f.AcceptsAliasSeq([]string{"A", "B", "B", "C"}) {
		t.Error("B repeated though not Kleene")
	}
}

func TestDesugarRejectsEmptyMatch(t *testing.T) {
	for _, p := range []Node{
		Star(Type("A")),
		Opt(Type("A")),
		Seq(Star(Type("A")), Opt(Type("B"))),
	} {
		if _, err := Compile(p); err == nil {
			t.Errorf("pattern %v matching empty trend accepted", p)
		}
	}
}

func TestUnrollMinLength(t *testing.T) {
	p, err := UnrollMinLength(Plus(Type("A")), 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.String(); got != "SEQ(A A_1, A A_2, A+)" {
		t.Errorf("unrolled = %q", got)
	}
	f := mustCompile(t, p)
	if f.AcceptsAliasSeq([]string{"A_1", "A_2"}) {
		t.Error("length-2 match accepted after unrolling to 3")
	}
	if !f.AcceptsAliasSeq([]string{"A_1", "A_2", "A"}) {
		t.Error("length-3 match rejected")
	}
	if !f.AcceptsAliasSeq([]string{"A_1", "A_2", "A", "A"}) {
		t.Error("length-4 match rejected")
	}
	if _, err := UnrollMinLength(Seq(Type("A"), Type("B")), 3); err == nil {
		t.Error("unrolling a SEQ accepted")
	}
	same, err := UnrollMinLength(Plus(Type("A")), 1)
	if err != nil || same.String() != "A+" {
		t.Errorf("min 1 should be identity, got %v, %v", same, err)
	}
}

func TestAcceptsAliasSeqFigure4(t *testing.T) {
	f := mustCompile(t, figure4Pattern())
	yes := [][]string{{"A", "B"}, {"A", "A", "B"}, {"A", "B", "A", "B"}, {"A", "A", "B", "A", "B"}}
	no := [][]string{{}, {"B"}, {"A"}, {"B", "A"}, {"A", "B", "A"}, {"A", "B", "B"}}
	for _, s := range yes {
		if !f.AcceptsAliasSeq(s) {
			t.Errorf("rejected %v", s)
		}
	}
	for _, s := range no {
		if f.AcceptsAliasSeq(s) {
			t.Errorf("accepted %v", s)
		}
	}
}

func TestFlattenFigure4(t *testing.T) {
	f := mustCompile(t, figure4Pattern())
	got := f.Flatten(4)
	want := [][]string{
		{"A", "B"},
		{"A", "A", "B"},
		{"A", "A", "A", "B"},
		{"A", "B", "A", "B"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Flatten(4) = %v, want %v", got, want)
	}
	for _, seq := range got {
		if !f.AcceptsAliasSeq(seq) {
			t.Errorf("flattened sequence %v not accepted", seq)
		}
	}
}

func TestFlattenMatchesCount(t *testing.T) {
	f := mustCompile(t, figure4Pattern())
	all := f.Flatten(9)
	byLen := map[int]uint64{}
	for _, s := range all {
		byLen[len(s)]++
	}
	for n := 1; n <= 9; n++ {
		if got := f.CountFlattened(n); got != byLen[n] {
			t.Errorf("CountFlattened(%d) = %d, enumeration found %d", n, got, byLen[n])
		}
	}
}

func TestCountFlattenedLinearPattern(t *testing.T) {
	f := mustCompile(t, Plus(Type("A")))
	for n := 1; n <= 5; n++ {
		if got := f.CountFlattened(n); got != 1 {
			t.Errorf("A+ has %d strings of length %d, want 1", got, n)
		}
	}
	if got := f.CountFlattened(0); got != 0 {
		t.Errorf("CountFlattened(0) = %d", got)
	}
}

func TestStringRendering(t *testing.T) {
	p := Plus(Seq(Plus(TypeAs("Stock", "A")), Type("B")))
	if got := p.String(); got != "(SEQ((Stock A)+, B))+" {
		t.Errorf("String = %q", got)
	}
	if got := Or(Type("A"), Type("B")).String(); got != "OR(A, B)" {
		t.Errorf("OR String = %q", got)
	}
	if got := Not(Type("N")).String(); got != "NOT(N)" {
		t.Errorf("NOT String = %q", got)
	}
	if got := Star(Type("A")).String(); got != "A*" {
		t.Errorf("star String = %q", got)
	}
	if got := Opt(Type("A")).String(); got != "A?" {
		t.Errorf("opt String = %q", got)
	}
}

func TestAliasesOrder(t *testing.T) {
	p := Seq(TypeAs("S", "B"), TypeAs("S", "A"), Type("C"))
	if got := Aliases(p); !reflect.DeepEqual(got, []string{"B", "A", "C"}) {
		t.Errorf("Aliases = %v", got)
	}
}

func TestDisjunctionFSA(t *testing.T) {
	// OR(SEQ(A,B), C+) — disjunction support from §8.
	p := Or(Seq(Type("A"), Type("B")), Plus(Type("C")))
	f := mustCompile(t, p)
	if got := f.StartAliases(); !reflect.DeepEqual(got, []string{"A", "C"}) {
		t.Errorf("start = %v", got)
	}
	if got := f.EndAliases(); !reflect.DeepEqual(got, []string{"B", "C"}) {
		t.Errorf("end = %v", got)
	}
	if !f.AcceptsAliasSeq([]string{"A", "B"}) || !f.AcceptsAliasSeq([]string{"C", "C"}) {
		t.Error("valid disjunct rejected")
	}
	if f.AcceptsAliasSeq([]string{"A", "C"}) {
		t.Error("cross-disjunct sequence accepted")
	}
}

func TestFSAStringIsInformative(t *testing.T) {
	f := mustCompile(t, figure4Pattern())
	s := f.String()
	for _, frag := range []string{"start={A}", "end={B}", "A<-{A,B}", "B<-{A}"} {
		if !strings.Contains(s, frag) {
			t.Errorf("FSA.String() = %q missing %q", s, frag)
		}
	}
}
