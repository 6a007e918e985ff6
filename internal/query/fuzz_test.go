package query_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/query"
)

// FuzzParse drives the SASE-style parser with arbitrary input. The
// invariants: Parse never panics, never returns (nil, nil), and an
// accepted query survives Validate (Parse validates internally) and
// has one text: its String parses back to the same String, and both
// compile to the same plan text and sharing fingerprint (or both fail
// to compile). The seed corpus covers every clause form the grammar accepts — the paper's
// q1–q3, each semantics keyword, negation, disjunction, optional and
// star patterns, both predicate operand orders, quoted strings
// and escapes, negative and exponent literals, durations and the error paths fuzzing mutates from.
func FuzzParse(f *testing.F) {
	seeds := []string{
		// The paper's three example queries.
		"RETURN patient, MIN(M.rate), MAX(M.rate)\nPATTERN Measurement M+\nSEMANTICS contiguous\nWHERE [patient] AND M.rate < NEXT(M).rate AND M.activity = passive\nGROUP-BY patient\nWITHIN 10 minutes SLIDE 30 seconds",
		"RETURN driver, COUNT(*)\nPATTERN SEQ(Accept, (SEQ(Call, Cancel))+, Finish)\nSEMANTICS skip-till-next-match\nWHERE [driver] GROUP-BY driver\nWITHIN 10 minutes SLIDE 30 seconds",
		"RETURN sector, A.company, B.company, AVG(B.price)\nPATTERN SEQ(Stock A+, Stock B+)\nSEMANTICS skip-till-any-match\nWHERE [A.company] AND [B.company] AND A.price > NEXT(A).price\nGROUP-BY sector, A.company, B.company\nWITHIN 10 minutes SLIDE 10 seconds",
		// Minimal and clause-variation forms.
		"RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10",
		"RETURN COUNT(*) PATTERN (SEQ(A+, B))+ SEMANTICS any WITHIN 100 SLIDE 100",
		"RETURN COUNT(*) PATTERN A+ SEMANTICS next WITHIN 1 hour SLIDE 5 min",
		"RETURN COUNT(M) PATTERN Measurement M+ WITHIN 10 SLIDE 10",
		"RETURN SUM(A.v), AVG(A.v) PATTERN SEQ(A*, B?) WITHIN 10 SLIDE 10",
		"RETURN COUNT(*) PATTERN SEQ(A, NOT N, B) WITHIN 10 SLIDE 10",
		"RETURN COUNT(*) PATTERN OR(A, B)+ WITHIN 10 SLIDE 10",
		"RETURN COUNT(*) PATTERN A+ WHERE NEXT(A).x > A.x WITHIN 10 SLIDE 10",
		"RETURN COUNT(*) PATTERN A+ WHERE 100 < A.price WITHIN 10 SLIDE 10",
		"RETURN COUNT(*) PATTERN A+ WHERE A.status = 'open trade' WITHIN 10 SLIDE 10",
		"RETURN COUNT(*) PATTERN A+ WHERE A.x != 3.5 AND A.y >= -2 WITHIN 10 SLIDE 10",
		"RETURN COUNT(*) PATTERN A+ WHERE A.x < 1e+06 AND A.y > -2 AND A.z = 5 WITHIN 10 SLIDE 10",
		`RETURN COUNT(*) PATTERN A+ WHERE A.s = "'\"\\" AND A.t = '5' WITHIN 10 SLIDE 10`,
		"RETURN COUNT(*) PATTERN (((A))) MIN-LENGTH 2 WITHIN 9223372036854775807 SLIDE 2 hours",
		// Error-shaped inputs that must fail cleanly.
		"", "RETURN", "RETURN COUNT(* PATTERN A+", "PATTERN A+ RETURN COUNT(*)",
		"RETURN COUNT(*) PATTERN A+ WITHIN 0 SLIDE 0",
		"RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10 trailing",
		"RETURN COUNT(*) PATTERN SEQ(NOT A) WITHIN 10 SLIDE 10",
		"RETURN COUNT(*) PATTERN A+ WHERE [A.] WITHIN 10 SLIDE 10",
		"RETURN COUNT(*) PATTERN A+ WHERE 'a' = 'b' WITHIN 10 SLIDE 10",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := query.Parse(src)
		if err != nil {
			if q != nil {
				t.Fatalf("Parse returned both a query and an error: %v", err)
			}
			return
		}
		if q == nil {
			t.Fatal("Parse returned (nil, nil)")
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("accepted query fails Validate: %v", err)
		}
		text := q.String()
		back, err := query.Parse(text)
		if err != nil {
			t.Fatalf("the text of an accepted query does not parse: %v\n%s", err, text)
		}
		if again := back.String(); again != text {
			t.Fatalf("the text changed on a round trip:\n%s\nvs\n%s", text, again)
		}
		p1, err1 := core.NewPlan(q)
		p2, err2 := core.NewPlan(back)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("the query compiles %v, its text's %v", err1, err2)
		}
		if err1 == nil && (p1.Text() != text || p2.Text() != text || p1.Fingerprint() != p2.Fingerprint()) {
			t.Fatalf("plans differ: texts %q and %q, fingerprints %q and %q", p1.Text(), p2.Text(), p1.Fingerprint(), p2.Fingerprint())
		}
	})
}
