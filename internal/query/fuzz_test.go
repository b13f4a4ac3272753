package query

import (
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
// accepts prints to a form that parses again and prints the same.
func fuzzParse(f *testing.F, parse func(string) (Expr, error)) {
	for _, src := range paperExpressions {
		f.Add(src)
	}
	f.Add(strings.Repeat("(", 4*maxNesting))
	f.Add(strings.Repeat("list(", 4*maxNesting))
	f.Fuzz(func(t *testing.T, src string) {
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
	})
}

func FuzzParseFilter(f *testing.F)  { fuzzParse(f, ParseFilter) }
func FuzzParseRanking(f *testing.F) { fuzzParse(f, ParseRanking) }

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
