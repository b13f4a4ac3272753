package query

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// paperExpressions are the filter and ranking expressions of the paper's
// Examples 1–12, in its “...” quoting and in plain quotes: the seed
// corpus of both parser fuzz targets.
var paperExpressions = []string{
	"((author ``Ullman'') and (title ``databases''))",
	"list((body-of-text ``distributed'') (body-of-text ``databases''))",
	"(title stem ``databases'')",
	"(``digital'' prox[3,T] ``libraries'')",
	"((title ``digital'') prox[1,F] (title ``libraries''))",
	"(``distributed'' and ``databases'')",
	"list(``distributed'' ``databases'')",
	"list((``distributed'' 0.7) (``databases'' 0.3))",
	`((author "Ullman") and (title stem "databases"))`,
	`(body-of-text "databases")`,
	`((title "a") or ((title "b") and-not (any "c")))`,
	`(date-last-modified > "1996-08-01")`,
	`(body-of-text [en-US "behavior"])`,
	// Weights the printer writes with an exponent.
	`list(("a" 0.00001) (title "b" 0.0000001234))`,
}

// fuzzParse is the property both targets check: whatever the input, the
// parser returns (never panics, never exhausts the stack), and what it
// accepts prints to a form that parses again and prints the same. Both
// also hold ScanTerm, whose common form builds no node, to the whole
// parse it replaced (scanTermOracle), and the query encoder, over the
// expression as a filter or a ranking, to the one it replaced
// (oracleToSOIF).
func fuzzParse(f *testing.F, parse func(string) (Expr, error), ranking bool) {
	for _, src := range paperExpressions {
		f.Add(src)
	}
	f.Add(strings.Repeat("(", 4*maxNesting))
	f.Add(strings.Repeat("list(", 4*maxNesting))
	f.Add(`((("a" 0.5)) 0.25) 10 0.31 190`)
	f.Add(`((title stem "a")) and`)
	f.Fuzz(func(t *testing.T, src string) {
		requireScanTermMatchesOracle(t, src)
		e, err := parse(src)
		if err != nil || e == nil {
			return
		}
		printed := e.String()
		back, err := parse(printed)
		if err != nil {
			t.Fatalf("%q parsed, but its printed form %q does not: %v", src, printed, err)
		}
		if again := back.String(); again != printed {
			t.Errorf("print/parse not stable for %q: %q then %q", src, printed, again)
		}
		for _, q := range variants(e, ranking) {
			requireEncoderMatchesOracle(t, q)
		}
	})
}

func FuzzParseFilter(f *testing.F)  { fuzzParse(f, ParseFilter, false) }
func FuzzParseRanking(f *testing.F) { fuzzParse(f, ParseRanking, true) }

// TestParseNestingBound pins the recursion bound: nesting past
// maxNesting is a parse error whichever production does the nesting —
// one stack frame per level would make inputs this long a stack
// overflow, which is fatal, not a panic — and nesting within it still
// parses.
func TestParseNestingBound(t *testing.T) {
	const deep = 1 << 20
	rightAnd := strings.Repeat(`("a" and `, deep) + `"b"` + strings.Repeat(")", deep)
	for name, src := range map[string]string{
		"parens":           strings.Repeat("(", deep),
		"lists":            strings.Repeat("list(", deep),
		"right-nested and": rightAnd,
	} {
		if _, err := ParseRanking(src); err == nil || !strings.Contains(err.Error(), "nested deeper") {
			t.Errorf("%s: err = %v, want the nesting bound", name, err)
		}
	}
	ok := strings.Repeat(`("a" and `, maxNesting-1) + `"b"` + strings.Repeat(")", maxNesting-1)
	if _, err := ParseFilter(ok); err != nil {
		t.Errorf("%d levels of and: %v", maxNesting-1, err)
	}
	if _, err := ParseFilter(`("a" and ` + ok + `)`); err == nil {
		t.Errorf("%d levels of and accepted", maxNesting)
	}
}

// scanTermOracle is ScanTerm as it was: a whole expression parsed, then
// required to be a term.
func scanTermOracle(src string) (Term, string, error) {
	p := &parser{src: src}
	e, err := p.parseExpr()
	if err != nil {
		return Term{}, "", err
	}
	te, ok := e.(*TermExpr)
	if !ok {
		return Term{}, "", fmt.Errorf("query: expected a term, found %s", e)
	}
	return te.Term, p.rest(), nil
}

// requireScanTermMatchesOracle: ScanTerm returns what its oracle returns
// for src — the same term and remainder, or the same error.
func requireScanTermMatchesOracle(t *testing.T, src string) {
	t.Helper()
	tm, rest, err := ScanTerm(src)
	otm, orest, oerr := scanTermOracle(src)
	if (err == nil) != (oerr == nil) || err != nil && err.Error() != oerr.Error() {
		t.Fatalf("ScanTerm(%q): error %v, oracle %v", src, err, oerr)
	}
	if !reflect.DeepEqual(tm, otm) || rest != orest {
		t.Fatalf("ScanTerm(%q) = %+v, %q; oracle %+v, %q", src, tm, rest, otm, orest)
	}
}
