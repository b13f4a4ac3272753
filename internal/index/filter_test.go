package index

import (
	"math/rand"
	"testing"
	"testing/quick"

	"starts/internal/query"
	"starts/internal/text"
)

func evalf(t *testing.T, ix *Index, src string) map[int]bool {
	t.Helper()
	e, err := query.ParseFilter(src)
	if err != nil {
		t.Fatalf("ParseFilter(%q): %v", src, err)
	}
	set, err := evalBoth(t, ix, e, defaultOpts())
	if err != nil {
		t.Fatalf("EvalFilter(%q): %v", src, err)
	}
	return set
}

// evalBoth evaluates a filter with the oracle and with the cursors, which
// must agree: the same error, or the same documents, in ascending order
// from the iterator.
func evalBoth(t *testing.T, ix *Index, e query.Expr, opts LookupOptions) (map[int]bool, error) {
	t.Helper()
	set, err := ix.EvalFilter(e, opts)
	m, cerr := ix.Match(new(Scratch), e, nil, opts)
	if (err == nil) != (cerr == nil) {
		t.Fatalf("filter %v: oracle error %v, cursor error %v", e, err, cerr)
	}
	if err != nil {
		return nil, err
	}
	n, last := 0, -1
	for id, ok := m.Next(); ok; id, ok = m.Next() {
		if !set[id] || id <= last {
			t.Fatalf("filter %v: cursors yield %d after %d, oracle matches %v", e, id, last, set)
		}
		n, last = n+1, id
	}
	if n != len(set) {
		t.Fatalf("filter %v: cursors yield %d documents, oracle %d", e, n, len(set))
	}
	return set, nil
}

// TestPaperExample1Filter evaluates the paper's Example 1 filter: authors
// containing Ullman AND title containing databases.
func TestPaperExample1Filter(t *testing.T) {
	ix := testIndex(t)
	set := evalf(t, ix, `((author "Ullman") and (title "databases"))`)
	if len(set) != 2 || !set[0] || !set[1] {
		t.Errorf("filter matches %v", set)
	}
}

func TestBooleanOperators(t *testing.T) {
	ix := testIndex(t)
	and := evalf(t, ix, `((body-of-text "distributed") and (body-of-text "deductive"))`)
	if len(and) != 1 || !and[0] {
		t.Errorf("and = %v", and)
	}
	// "distributed" appears in docs 0 and 1 only (doc 3 is Spanish
	// "distribuidos", a different stem), "deductive" in doc 0.
	or := evalf(t, ix, `((body-of-text "distributed") or (body-of-text "deductive"))`)
	if len(or) != 2 || !or[0] || !or[1] {
		t.Errorf("or = %v", or)
	}
	andnot := evalf(t, ix, `((body-of-text "distributed") and-not (author "Ullman"))`)
	// Distributed appears in docs 0,1,2,3 (doc 3 via stem of
	// "distribuidos"? no — Spanish, different word; doc2 "GlOSS
	// chooses..." has no "distributed" — check: doc2 body has no
	// "distributed". So docs 0,1; minus Ullman docs 0,1 -> empty... but
	// doc3 "distribuidos" stems differently. Recompute: and-not should
	// remove docs 0 and 1.
	for id := range andnot {
		if id == 0 || id == 1 {
			t.Errorf("and-not kept Ullman doc %d", id)
		}
	}
}

func TestProxFilter(t *testing.T) {
	ix := testIndex(t)
	// Doc 1 body: "... delivered distributed databases, parallel ..." —
	// "distributed" immediately precedes "databases".
	set := evalf(t, ix, `((body-of-text "distributed") prox[0,T] (body-of-text "databases"))`)
	if !set[1] {
		t.Errorf("adjacent ordered prox = %v", set)
	}
	// Reversed order with T fails for doc 1 pairs that only occur one way.
	rev := evalf(t, ix, `((body-of-text "databases") prox[0,T] (body-of-text "distributed"))`)
	if rev[1] {
		// Doc 1: "databases, parallel databases and more. The distributed
		// systems" — "databases" (pos?) ... "distributed" gap > 0, so no.
		t.Errorf("reversed prox unexpectedly matched: %v", rev)
	}
	// Unordered with a wide window matches.
	un := evalf(t, ix, `((body-of-text "databases") prox[5,F] (body-of-text "distributed"))`)
	if !un[1] {
		t.Errorf("unordered prox = %v", un)
	}
	// Different concrete fields can never satisfy prox.
	cross := evalf(t, ix, `((title "database") prox[3,F] (body-of-text "databases"))`)
	if len(cross) != 0 {
		t.Errorf("cross-field prox = %v", cross)
	}
}

func TestProxDistanceSemantics(t *testing.T) {
	// Example 3: t1 prox[3,T] t2 means t1 followed by t2 with at most
	// three words in between.
	a := build(t, &text.Analyzer{Tokenizer: mustTok(t, "Acme-2")},
		&Document{Linkage: "u1", Body: "alpha one two three beta"},
		&Document{Linkage: "u2", Body: "alpha one two three four beta"})
	e, err := query.ParseFilter(`((body-of-text "alpha") prox[3,T] (body-of-text "beta"))`)
	if err != nil {
		t.Fatal(err)
	}
	set, err := evalBoth(t, a, e, LookupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !set[0] || set[1] {
		t.Errorf("prox[3,T]: three-word gap should match, four-word gap should not: %v", set)
	}
}

func TestFilterErrors(t *testing.T) {
	ix := testIndex(t)
	// A list node cannot reach filter evaluation through the parser, but
	// guard against hand-built trees.
	l := &query.List{Items: []query.Expr{&query.TermExpr{}}}
	if _, err := evalBoth(t, ix, l, defaultOpts()); err == nil {
		t.Error("list accepted in filter evaluation")
	}
	// Prox over a non-text field fails.
	e, err := query.ParseFilter(`((date-last-modified "1996-01-01") prox[1,T] (date-last-modified "1996-01-02"))`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := evalBoth(t, ix, e, defaultOpts()); err == nil {
		t.Error("prox over dates accepted")
	}
}

func TestAllDocs(t *testing.T) {
	ix := testIndex(t)
	if got := ix.AllDocs(); len(got) != 4 {
		t.Errorf("AllDocs = %v", got)
	}
}

// Properties over random expressions: AND ⊆ each operand, operands ⊆ OR,
// AND-NOT disjoint from right operand, PROX ⊆ AND of its terms.
func TestQuickFilterAlgebra(t *testing.T) {
	ix := testIndex(t)
	opts := defaultOpts()
	words := []string{"databases", "distributed", "deductive", "research", "GlOSS", "text", "systems", "Ullman"}
	fields := []string{"", "title ", "body-of-text ", "author ", "any "}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mk := func() string {
			return "(" + fields[r.Intn(len(fields))] + `"` + words[r.Intn(len(words))] + `")`
		}
		a, b := mk(), mk()
		parse := func(src string) map[int]bool {
			e, err := query.ParseFilter(src)
			if err != nil {
				t.Fatalf("parse %q: %v", src, err)
			}
			s, err := evalBoth(t, ix, e, opts)
			if err != nil {
				t.Fatalf("eval %q: %v", src, err)
			}
			return s
		}
		sa, sb := parse(a), parse(b)
		and := parse("(" + a + " and " + b + ")")
		or := parse("(" + a + " or " + b + ")")
		not := parse("(" + a + " and-not " + b + ")")
		for id := range and {
			if !sa[id] || !sb[id] {
				return false
			}
		}
		for id := range sa {
			if !or[id] {
				return false
			}
		}
		for id := range sb {
			if !or[id] {
				return false
			}
		}
		for id := range not {
			if sb[id] || !sa[id] {
				return false
			}
		}
		prox := parse("(" + a + " prox[4,F] " + b + ")")
		for id := range prox {
			if !and[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
