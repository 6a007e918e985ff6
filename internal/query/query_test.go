package query

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/pattern"
	"repro/internal/predicate"
	"repro/internal/window"
)

const q1Text = `
RETURN patient, MIN(M.rate), MAX(M.rate)
PATTERN Measurement M+
SEMANTICS contiguous
WHERE [patient] AND M.rate < NEXT(M).rate AND M.activity = passive
GROUP-BY patient
WITHIN 10 minutes SLIDE 30 seconds`

const q2Text = `
RETURN driver, COUNT(*)
PATTERN SEQ(Accept, (SEQ(Call, Cancel))+, Finish)
SEMANTICS skip-till-next-match
WHERE [driver] GROUP-BY driver
WITHIN 10 minutes SLIDE 30 seconds`

const q3Text = `
RETURN sector, A.company, B.company, AVG(B.price)
PATTERN SEQ(Stock A+, Stock B+)
SEMANTICS skip-till-any-match
WHERE [A.company] AND [B.company] AND A.price > NEXT(A).price
GROUP-BY sector, A.company, B.company
WITHIN 10 minutes SLIDE 10 seconds`

func TestParseQ1(t *testing.T) {
	q := MustParse(q1Text)
	if q.Semantics != Cont {
		t.Errorf("semantics = %v", q.Semantics)
	}
	if got := q.Pattern.String(); got != "(Measurement M)+" {
		t.Errorf("pattern = %q", got)
	}
	wantReturns := agg.Specs{
		{Func: agg.Min, Alias: "M", Attr: "rate"},
		{Func: agg.Max, Alias: "M", Attr: "rate"},
	}
	if !reflect.DeepEqual(q.Returns, wantReturns) {
		t.Errorf("returns = %v", q.Returns)
	}
	if !reflect.DeepEqual(q.ReturnKeys, []GroupKey{{Attr: "patient"}}) {
		t.Errorf("return keys = %v", q.ReturnKeys)
	}
	if len(q.Where.Equivalences) != 1 || q.Where.Equivalences[0].Attr != "patient" {
		t.Errorf("equivalences = %v", q.Where.Equivalences)
	}
	if len(q.Where.Adjacents) != 1 {
		t.Fatalf("adjacents = %v", q.Where.Adjacents)
	}
	adj := q.Where.Adjacents[0]
	if adj.Left != "M" || adj.Right != "M" || adj.Op != predicate.Lt ||
		adj.LeftAttr != "rate" || adj.RightAttr != "rate" {
		t.Errorf("adjacent = %+v", adj)
	}
	if len(q.Where.Locals) != 1 || q.Where.Locals[0].Value != "passive" {
		t.Errorf("locals = %v", q.Where.Locals)
	}
	if q.Window.Within != 600 || q.Window.Slide != 30 {
		t.Errorf("window = %+v", q.Window)
	}
	if !reflect.DeepEqual(q.GroupBy, []GroupKey{{Attr: "patient"}}) {
		t.Errorf("group by = %v", q.GroupBy)
	}
}

func TestParseQ2(t *testing.T) {
	q := MustParse(q2Text)
	if q.Semantics != Next {
		t.Errorf("semantics = %v", q.Semantics)
	}
	if got := q.Pattern.String(); got != "SEQ(Accept, (SEQ(Call, Cancel))+, Finish)" {
		t.Errorf("pattern = %q", got)
	}
	if len(q.Returns) != 1 || q.Returns[0].Func != agg.CountStar {
		t.Errorf("returns = %v", q.Returns)
	}
	f, err := pattern.Compile(q.Pattern)
	if err != nil {
		t.Fatal(err)
	}
	if !f.IsStart("Accept") || !f.IsEnd("Finish") {
		t.Errorf("FSA start/end wrong: %s", f)
	}
}

func TestParseQ3(t *testing.T) {
	q := MustParse(q3Text)
	if q.Semantics != Any {
		t.Errorf("semantics = %v", q.Semantics)
	}
	if got := q.Pattern.String(); got != "SEQ((Stock A)+, (Stock B)+)" {
		t.Errorf("pattern = %q", got)
	}
	if len(q.Where.Equivalences) != 2 ||
		q.Where.Equivalences[0].Alias != "A" || q.Where.Equivalences[1].Alias != "B" {
		t.Errorf("equivalences = %v", q.Where.Equivalences)
	}
	adj := q.Where.Adjacents[0]
	if adj.Left != "A" || adj.Right != "A" || adj.Op != predicate.Gt {
		t.Errorf("adjacent = %+v", adj)
	}
	want := []GroupKey{{Attr: "sector"}, {Alias: "A", Attr: "company"}, {Alias: "B", Attr: "company"}}
	if !reflect.DeepEqual(q.GroupBy, want) {
		t.Errorf("group by = %v", q.GroupBy)
	}
	if q.Window.Within != 600 || q.Window.Slide != 10 {
		t.Errorf("window = %+v", q.Window)
	}
	if len(q.Returns) != 1 || q.Returns[0].Func != agg.Avg || q.Returns[0].Alias != "B" {
		t.Errorf("returns = %v", q.Returns)
	}
}

func TestParseDefaultsAndShortForms(t *testing.T) {
	q := MustParse(`RETURN COUNT(*) PATTERN A+ WITHIN 100 SLIDE 100`)
	if q.Semantics != Any {
		t.Errorf("default semantics = %v", q.Semantics)
	}
	if q.Window.Within != 100 {
		t.Errorf("bare duration = %d", q.Window.Within)
	}
	q2 := MustParse(`RETURN COUNT(*) PATTERN A+ SEMANTICS next WITHIN 1 hour SLIDE 5 min`)
	if q2.Semantics != Next || q2.Window.Within != 3600 || q2.Window.Slide != 300 {
		t.Errorf("short forms: %v %+v", q2.Semantics, q2.Window)
	}
}

func TestParseCountType(t *testing.T) {
	q := MustParse(`RETURN COUNT(M) PATTERN Measurement M+ WITHIN 10 SLIDE 10`)
	if q.Returns[0].Func != agg.CountType || q.Returns[0].Alias != "M" {
		t.Errorf("COUNT(M) parsed as %v", q.Returns[0])
	}
}

func TestParseNextOnLeftNormalises(t *testing.T) {
	q := MustParse(`RETURN COUNT(*) PATTERN A+ WHERE NEXT(A).x > A.x WITHIN 10 SLIDE 10`)
	adj := q.Where.Adjacents[0]
	// NEXT(A).x > A.x  ==  A.x < NEXT(A).x
	if adj.Left != "A" || adj.Op != predicate.Lt {
		t.Errorf("normalised adjacent = %+v", adj)
	}
}

func TestParsePlainTwoAliasComparison(t *testing.T) {
	// Theorem 5.1 form: E.attr ◦ Ex.attrx between distinct types.
	q := MustParse(`RETURN COUNT(*) PATTERN SEQ(A+, B) WHERE A.x <= B.x WITHIN 10 SLIDE 10`)
	adj := q.Where.Adjacents[0]
	if adj.Left != "A" || adj.Right != "B" || adj.Op != predicate.Le {
		t.Errorf("adjacent = %+v", adj)
	}
}

func TestParseConstantOnLeft(t *testing.T) {
	q := MustParse(`RETURN COUNT(*) PATTERN A+ WHERE 100 < A.price WITHIN 10 SLIDE 10`)
	l := q.Where.Locals[0]
	if l.Alias != "A" || l.Attr != "price" || l.Op != predicate.Gt || l.Value != 100.0 {
		t.Errorf("local = %+v", l)
	}
}

func TestParseQuotedString(t *testing.T) {
	q := MustParse(`RETURN COUNT(*) PATTERN A+ WHERE A.status = 'open trade' WITHIN 10 SLIDE 10`)
	if q.Where.Locals[0].Value != "open trade" {
		t.Errorf("local = %+v", q.Where.Locals[0])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`PATTERN A+ WITHIN 10 SLIDE 10`,        // missing RETURN
		`RETURN COUNT(*) WITHIN 10 SLIDE 10`,   // missing PATTERN
		`RETURN COUNT(*) PATTERN A+ WITHIN 10`, // missing SLIDE
		`RETURN COUNT(*) PATTERN A+ SEMANTICS sometimes WITHIN 10 SLIDE 10`,       // bad semantics
		`RETURN COUNT(*) PATTERN A+ WITHIN 0 SLIDE 10`,                            // zero window
		`RETURN COUNT(*) PATTERN A+ WITHIN 2.5 SLIDE 10`,                          // fractional
		`RETURN MIN(A) PATTERN A+ WITHIN 10 SLIDE 10`,                             // MIN without attr
		`RETURN SUM(*) PATTERN A+ WITHIN 10 SLIDE 10`,                             // SUM(*)
		`RETURN COUNT(A.x) PATTERN A+ WITHIN 10 SLIDE 10`,                         // COUNT(attr)
		`RETURN COUNT(*) PATTERN SEQ(A, A) WITHIN 10 SLIDE 10`,                    // duplicate alias
		`RETURN COUNT(*) PATTERN NOT(A) WITHIN 10 SLIDE 10`,                       // top-level NOT
		`RETURN COUNT(*) PATTERN A+ WHERE A.x < NEXT(B).y AND WITHIN 1 SLIDE 1`,   // dangling AND
		`RETURN COUNT(*) PATTERN A+ WHERE NEXT(A).x < NEXT(A).y WITHIN 1 SLIDE 1`, // double NEXT
		`RETURN COUNT(*) PATTERN A+ WHERE 1 < 2 WITHIN 1 SLIDE 1`,                 // constants only
		`RETURN COUNT(*) PATTERN A+ WHERE A.x < A.y WITHIN 1 SLIDE 1`,             // same alias, no NEXT
		`RETURN MIN(B.x) PATTERN A+ WITHIN 10 SLIDE 10`,                           // unknown type in RETURN
		`RETURN COUNT(*) PATTERN A+ GROUP-BY B.x WITHIN 10 SLIDE 10`,              // unknown type in GROUP-BY
		`RETURN COUNT(*) PATTERN SEQ(A+,B) GROUP-BY A.c WITHIN 10 SLIDE 10`,       // alias group w/o equivalence
		`RETURN k, COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10`,                        // return key not grouped
		`RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10 garbage`,                   // trailing input
		`RETURN COUNT(*) PATTERN A* WITHIN 10 SLIDE 10`,                           // empty-trend pattern (via Validate->Compile path it's fine to parse; kept: builder catches)
	}
	for i, src := range bad {
		if _, err := Parse(src); err == nil {
			// A* parses fine (compile rejects); skip that known case.
			if strings.Contains(src, "A*") {
				continue
			}
			t.Errorf("case %d (%q): parse succeeded", i, src)
		}
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{
		`RETURN COUNT(*) PATTERN A+ WHERE A.x ! 1 WITHIN 1 SLIDE 1`,
		`RETURN 'unterminated`,
		"RETURN \x01",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("%q: lexer accepted", src)
		}
	}
}

// TestQueryStringRoundTrips: String is the one text of a query —
// Parse gives back the same query for parsed queries, whatever their
// clause order, literal spelling or MIN-LENGTH, and for valid ASTs no
// text spells directly (a negative zero, bytes that are not UTF-8,
// nested Kleene plus) — and queries that differ only in a literal's
// type render apart.
func TestQueryStringRoundTrips(t *testing.T) {
	var queries []*Query
	for _, src := range []string{
		q1Text, q2Text, q3Text,
		`RETURN COUNT(*) PATTERN M+ MIN-LENGTH 3 WITHIN 1 hour SLIDE 9223372036854775807`,
		`RETURN COUNT(*), k PATTERN SEQ(A, NOT(N), (B C)?, D*) WHERE [k] AND 100 < A.x AND A.y <= -2 AND D.z != 1e+06 AND C.w > 1.5e-07 GROUP-BY k WITHIN 10 SLIDE 10`,
		`RETURN COUNT(*) PATTERN OR(A, B)+ WHERE A.s = 'it"s' AND B.s = "it's \\ \"q\" \n é" AND A.x > B.y WITHIN 10 SLIDE 10`,
		`RETURN COUNT(*) PATTERN A+ WHERE A.v = 5 WITHIN 10 SLIDE 10`,
		`RETURN COUNT(*) PATTERN A+ WHERE A.v = '5' WITHIN 10 SLIDE 10`,
		`RETURN COUNT(*) PATTERN A AND+ WHERE AND.x > 0 AND AND.s = "" WITHIN 10 SLIDE 10`,
	} {
		queries = append(queries, MustParse(src))
	}
	for _, q := range []*Query{
		{
			Returns: agg.Specs{{Func: agg.Sum, Alias: "Stock", Attr: "price"}},
			Pattern: pattern.Seq(pattern.Plus(pattern.TypeAs("Stock", "Stock")), pattern.Opt(pattern.Seq(pattern.Type("B"), pattern.Plus(pattern.Type("C"))))),
			Where: &predicate.Set{
				Locals: []predicate.Local{
					{Alias: "Stock", Attr: "price", Op: predicate.Ge, Value: math.Copysign(0, -1)},
					{Alias: "B", Attr: "tag", Op: predicate.Ne, Value: "\x00\xff"},
				},
				Adjacents: []predicate.Adjacent{{Left: "Stock", LeftAttr: "price", Op: predicate.Lt, Right: "C", RightAttr: "price"}},
			},
			Window: window.Spec{Within: 1<<62 + 1, Slide: 3},
		},
		{
			Returns:   agg.Specs{{Func: agg.CountType, Alias: "A"}},
			Pattern:   pattern.Plus(pattern.Plus(pattern.Seq(pattern.Type("A")))),
			Semantics: Cont,
			Where:     &predicate.Set{},
			Window:    window.Spec{Within: 4, Slide: 2},
		},
	} {
		if err := q.Validate(); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		queries = append(queries, q)
	}
	// Figure 9's shape: different left and right attributes under <=.
	queries = append(queries, MustParse(`RETURN COUNT(*) PATTERN SEQ(Stock A+, Stock B)
		WHERE [company] AND A.u <= NEXT(A).y AND A.u <= NEXT(B).y GROUP-BY company WITHIN 6000 SLIDE 6000`))
	for _, q := range queries {
		text := q.String()
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("re-parse of %q failed: %v", text, err)
		}
		if !reflect.DeepEqual(back, q) {
			t.Errorf("round trip changed the query:\n%s\nvs\n%s", text, back.String())
		}
	}
	if a, b := queries[6].String(), queries[7].String(); a == b {
		t.Errorf("the number 5 and the string \"5\" render alike: %q", a)
	}
}

// TestParseNestingBound: the parser follows 1000 levels of pattern
// nesting and refuses the 1001st, without lexing the rest of the input.
func TestParseNestingBound(t *testing.T) {
	nested := func(levels int) string {
		return "RETURN COUNT(*) PATTERN " + strings.Repeat("(", levels) + "A" + strings.Repeat(")", levels) + "+ WITHIN 10 SLIDE 10"
	}
	if _, err := Parse(nested(1000)); err != nil {
		t.Errorf("1000 levels: %v", err)
	}
	seqs := "RETURN COUNT(*) PATTERN " + strings.Repeat("SEQ(", 1000) + "A" + strings.Repeat(")", 1000) + " WITHIN 10 SLIDE 10"
	if _, err := Parse(seqs); err != nil {
		t.Errorf("1000 nested SEQs: %v", err)
	}
	for _, levels := range []int{1001, 1 << 22} {
		if _, err := Parse(nested(levels)); err == nil || !strings.Contains(err.Error(), "nesting exceeds 1000") {
			t.Errorf("%d levels: %v, want the nesting bound", levels, err)
		}
	}
}

// TestValidateRefusesWhatNoTextWrites: a query AST that no query text
// can write fails Validate, so String renders every valid query in
// full; so does an aggregate over an alias the pattern lacks.
func TestValidateRefusesWhatNoTextWrites(t *testing.T) {
	deep := pattern.Node(pattern.Type("A"))
	for range 1001 {
		deep = pattern.Plus(deep)
	}
	with := func(edit func(q *Query)) *Query {
		q := &Query{
			Returns: agg.Specs{{Func: agg.CountStar}},
			Pattern: pattern.Plus(pattern.Type("A")),
			Where:   &predicate.Set{},
			Window:  window.Spec{Within: 10, Slide: 10},
		}
		edit(q)
		return q
	}
	if err := with(func(*Query) {}).Validate(); err != nil {
		t.Fatalf("the unedited query fails Validate: %v", err)
	}
	local := func(alias, attr string, v any) *Query {
		return with(func(q *Query) {
			q.Where.Locals = []predicate.Local{{Alias: alias, Attr: attr, Op: predicate.Eq, Value: v}}
		})
	}
	leaf := func(typ, alias string) *Query {
		return with(func(q *Query) { q.Pattern = pattern.Plus(pattern.TypeAs(typ, alias)) })
	}
	for name, q := range map[string]*Query{
		"int value":               local("A", "v", 5),
		"bool value":              local("A", "v", true),
		"NaN":                     local("A", "v", math.NaN()),
		"infinity":                local("A", "v", math.Inf(-1)),
		"local without type":      local("", "v", 5.0),
		"attr with a space":       local("A", "a b", 5.0),
		"empty attr":              local("A", "", 5.0),
		"attr ending in -":        local("A", "x-", 5.0),
		"attr with a digit first": local("A", "1x", 5.0),
		"type with a dot":         leaf("A.b", "A"),
		"alias with a space":      leaf("A", "my alias"),
		"type keyword":            leaf("seq", "A"),
		"alias keyword":           leaf("A", "Where"),
		"alias NEXT":              leaf("A", "next"),
		"too deep":                with(func(q *Query) { q.Pattern = deep }),
		"equivalence attr": with(func(q *Query) {
			q.Where.Equivalences = []predicate.Equivalence{{Attr: "a.b"}}
		}),
		"group-by attr": with(func(q *Query) { q.GroupBy = []GroupKey{{Attr: "a b"}} }),
		"aggregate attr": with(func(q *Query) {
			q.Returns = append(q.Returns, agg.Spec{Func: agg.Sum, Alias: "A", Attr: "v)"})
		}),
		"adjacent attr": with(func(q *Query) {
			q.Where.Adjacents = []predicate.Adjacent{{Left: "A", LeftAttr: "v", Right: "A", RightAttr: "v w"}}
		}),
		"adjacent op": with(func(q *Query) {
			q.Where.Adjacents = []predicate.Adjacent{{Left: "A", LeftAttr: "v", Op: 9, Right: "A", RightAttr: "v"}}
		}),
		"local op": with(func(q *Query) {
			q.Where.Locals = []predicate.Local{{Alias: "A", Attr: "v", Op: -1, Value: 1.0}}
		}),
		"semantics": with(func(q *Query) { q.Semantics = 7 }),
	} {
		if err := q.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %q", name, q.String())
		}
	}
}

// TestValidateRefusesAggregateOverUnknownAlias: a query written as an
// AST, not parsed, is refused when RETURN aggregates over an alias the
// pattern does not bind, and the error names that alias.
func TestValidateRefusesAggregateOverUnknownAlias(t *testing.T) {
	q := &Query{
		Returns: agg.Specs{{Func: agg.Min, Alias: "Z", Attr: "x"}},
		Pattern: pattern.Plus(pattern.Type("A")),
		Where:   &predicate.Set{},
		Window:  window.Spec{Within: 10, Slide: 10},
	}
	err := q.Validate()
	if err == nil {
		t.Fatalf("Validate accepted %q", q.String())
	}
	if !strings.Contains(err.Error(), `"Z"`) {
		t.Errorf("error does not name the unknown alias: %v", err)
	}
}

// TestParseQ3MatchesAST: the parser reads q3 to the query written out
// clause by clause.
func TestParseQ3MatchesAST(t *testing.T) {
	keys := []GroupKey{{Attr: "sector"}, {Alias: "A", Attr: "company"}, {Alias: "B", Attr: "company"}}
	want := &Query{
		Returns:    agg.Specs{{Func: agg.Avg, Alias: "B", Attr: "price"}},
		ReturnKeys: keys,
		Pattern:    pattern.Seq(pattern.Plus(pattern.TypeAs("Stock", "A")), pattern.Plus(pattern.TypeAs("Stock", "B"))),
		Semantics:  Any,
		Where: &predicate.Set{
			Equivalences: []predicate.Equivalence{{Alias: "A", Attr: "company"}, {Alias: "B", Attr: "company"}},
			Adjacents:    []predicate.Adjacent{{Left: "A", LeftAttr: "price", Op: predicate.Gt, Right: "A", RightAttr: "price"}},
		},
		GroupBy: keys,
		Window:  window.Spec{Within: 600, Slide: 10},
	}
	if err := want.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := MustParse(q3Text); got.String() != want.String() {
		t.Errorf("parser and AST disagree:\n%s\nvs\n%s", got.String(), want.String())
	}
}

func TestSemanticsStringAndParse(t *testing.T) {
	for _, s := range []Semantics{Any, Next, Cont} {
		back, err := ParseSemantics(s.String())
		if err != nil || back != s {
			t.Errorf("round trip %v: %v, %v", s, back, err)
		}
	}
	if Semantics(9).String() != "?" {
		t.Error("unknown semantics should render ?")
	}
}

func TestGroupKeyString(t *testing.T) {
	if (GroupKey{Attr: "patient"}).String() != "patient" {
		t.Error("bare key")
	}
	if (GroupKey{Alias: "A", Attr: "company"}).String() != "A.company" {
		t.Error("scoped key")
	}
}

func TestParseMinLength(t *testing.T) {
	q := MustParse(`RETURN COUNT(*) PATTERN M+ MIN-LENGTH 3 WITHIN 10 SLIDE 10`)
	if got := q.Pattern.String(); got != "SEQ(M M_1, M M_2, M+)" {
		t.Errorf("unrolled pattern = %q", got)
	}
	for _, bad := range []string{
		`RETURN COUNT(*) PATTERN M+ MIN-LENGTH 0 WITHIN 10 SLIDE 10`,
		`RETURN COUNT(*) PATTERN M+ MIN-LENGTH 2.5 WITHIN 10 SLIDE 10`,
		`RETURN COUNT(*) PATTERN SEQ(A,B) MIN-LENGTH 3 WITHIN 10 SLIDE 10`,
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}
