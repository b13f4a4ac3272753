package query

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"starts/internal/attr"
	"starts/internal/lang"
)

func mustFilter(t *testing.T, src string) Expr {
	t.Helper()
	e, err := ParseFilter(src)
	if err != nil {
		t.Fatalf("ParseFilter(%q): %v", src, err)
	}
	return e
}

func mustRanking(t *testing.T, src string) Expr {
	t.Helper()
	e, err := ParseRanking(src)
	if err != nil {
		t.Fatalf("ParseRanking(%q): %v", src, err)
	}
	return e
}

// TestPaperExample1 parses the filter and ranking expressions of the
// paper's Example 1 exactly as typeset (with “...” quoting).
func TestPaperExample1(t *testing.T) {
	f := mustFilter(t, "((author ``Ullman'') and (title ``databases''))")
	bin, ok := f.(*Bin)
	if !ok || bin.Op != OpAnd {
		t.Fatalf("filter = %T %v", f, f)
	}
	l := bin.L.(*TermExpr)
	if l.Field != attr.FieldAuthor || l.Value.Text != "Ullman" {
		t.Errorf("left term = %+v", l.Term)
	}
	r := bin.R.(*TermExpr)
	if r.Field != attr.FieldTitle || r.Value.Text != "databases" {
		t.Errorf("right term = %+v", r.Term)
	}

	rk := mustRanking(t, "list((body-of-text ``distributed'') (body-of-text ``databases''))")
	list, ok := rk.(*List)
	if !ok || len(list.Items) != 2 {
		t.Fatalf("ranking = %T %v", rk, rk)
	}
	for i, want := range []string{"distributed", "databases"} {
		te := list.Items[i].(*TermExpr)
		if te.Field != attr.FieldBodyOfText || te.Value.Text != want {
			t.Errorf("item %d = %+v", i, te.Term)
		}
	}
}

// TestPaperExample2 parses the stem-modifier filter expression.
func TestPaperExample2(t *testing.T) {
	f := mustFilter(t, "(title stem ``databases'')")
	te := f.(*TermExpr)
	if te.Field != attr.FieldTitle || !te.HasMod(attr.ModStem) || te.Value.Text != "databases" {
		t.Errorf("term = %+v", te.Term)
	}
}

// TestPaperExample3 parses the proximity expression (t1 prox[3,T] t2).
func TestPaperExample3(t *testing.T) {
	f := mustFilter(t, "(``digital'' prox[3,T] ``libraries'')")
	p, ok := f.(*Prox)
	if !ok {
		t.Fatalf("filter = %T", f)
	}
	if p.Dist != 3 || !p.Ordered {
		t.Errorf("prox = dist %d ordered %v", p.Dist, p.Ordered)
	}
	if p.L.Value.Text != "digital" || p.R.Value.Text != "libraries" {
		t.Errorf("operands = %v, %v", p.L, p.R)
	}
	// Unordered variant and parenthesized-term operands.
	f2 := mustFilter(t, "((title ``digital'') prox[1,F] (title ``libraries''))")
	p2 := f2.(*Prox)
	if p2.Ordered || p2.L.Field != attr.FieldTitle {
		t.Errorf("prox2 = %+v", p2)
	}
}

// TestPaperExample4 parses both ranking styles: Boolean-like and list.
func TestPaperExample4(t *testing.T) {
	r1 := mustRanking(t, "(``distributed'' and ``databases'')")
	if b, ok := r1.(*Bin); !ok || b.Op != OpAnd {
		t.Fatalf("R1 = %T %v", r1, r1)
	}
	r2 := mustRanking(t, "list(``distributed'' ``databases'')")
	if l, ok := r2.(*List); !ok || len(l.Items) != 2 {
		t.Fatalf("R2 = %T %v", r2, r2)
	}
}

// TestPaperExample5 parses weighted ranking terms.
func TestPaperExample5(t *testing.T) {
	r := mustRanking(t, "list((``distributed'' 0.7) (``databases'' 0.3))")
	l := r.(*List)
	t0 := l.Items[0].(*TermExpr)
	t1 := l.Items[1].(*TermExpr)
	if t0.Weight != 0.7 || t1.Weight != 0.3 {
		t.Errorf("weights = %g, %g", t0.Weight, t1.Weight)
	}
	if t0.EffectiveWeight() != 0.7 {
		t.Errorf("EffectiveWeight = %g", t0.EffectiveWeight())
	}
	if (Term{}).EffectiveWeight() != 1 {
		t.Error("unset weight should default to 1")
	}
}

func TestParseComparisons(t *testing.T) {
	f := mustFilter(t, `(date-last-modified > "1996-08-01")`)
	te := f.(*TermExpr)
	if te.Field != attr.FieldDateLastModified || te.Comparison() != attr.ModGT {
		t.Errorf("term = %+v comparison %s", te.Term, te.Comparison())
	}
	// The paper also spells the field "Date/time-last-modified".
	f2 := mustFilter(t, `(Date/time-last-modified >= "1996-08-01")`)
	if f2.(*TermExpr).Field != attr.FieldDateLastModified {
		t.Errorf("long spelling not normalized: %+v", f2)
	}
	for _, cmp := range []string{"<", "<=", "=", ">=", ">", "!="} {
		src := `(date-last-modified ` + cmp + ` "1996-01-01")`
		te := mustFilter(t, src).(*TermExpr)
		if string(te.Comparison()) != cmp {
			t.Errorf("comparison %q parsed as %q", cmp, te.Comparison())
		}
	}
	// Default comparison is "=".
	if mustFilter(t, `(title "x")`).(*TermExpr).Comparison() != attr.ModEQ {
		t.Error("default comparison should be =")
	}
}

func TestParseLanguageQualified(t *testing.T) {
	f := mustFilter(t, `(body-of-text [en-US "behavior"])`)
	te := f.(*TermExpr)
	if te.Value.Tag != lang.EnglishUS || te.Value.Text != "behavior" {
		t.Errorf("l-string = %v", te.Value)
	}
	r := mustRanking(t, `list([es "taco"] "weekend")`)
	l := r.(*List)
	if l.Items[0].(*TermExpr).Value.Tag != lang.Spanish {
		t.Errorf("first item = %v", l.Items[0])
	}
	if !l.Items[1].(*TermExpr).Value.Tag.IsZero() {
		t.Errorf("second item should be unqualified")
	}
}

func TestParseNested(t *testing.T) {
	src := `(((author "Ullman") or (author "Garcia-Molina")) and-not (title "survey"))`
	f := mustFilter(t, src)
	outer := f.(*Bin)
	if outer.Op != OpAndNot {
		t.Fatalf("outer op = %s", outer.Op)
	}
	inner := outer.L.(*Bin)
	if inner.Op != OpOr {
		t.Fatalf("inner op = %s", inner.Op)
	}
	terms := f.Terms(nil)
	if len(terms) != 3 {
		t.Errorf("Terms = %v", terms)
	}
}

func TestParseRankingBooleanOperators(t *testing.T) {
	// Ranking expressions support all filter operators plus list, nested.
	src := `list((("distributed" and "databases") or "federated") (title "systems" 0.5))`
	r := mustRanking(t, src)
	l := r.(*List)
	if len(l.Items) != 2 {
		t.Fatalf("items = %d", len(l.Items))
	}
	if _, ok := l.Items[0].(*Bin); !ok {
		t.Errorf("first item = %T", l.Items[0])
	}
	if w := l.Items[1].(*TermExpr).Weight; w != 0.5 {
		t.Errorf("weight = %g", w)
	}
}

func TestParseEmpty(t *testing.T) {
	for _, src := range []string{"", "   ", "\n\t"} {
		e, err := ParseFilter(src)
		if err != nil || e != nil {
			t.Errorf("ParseFilter(%q) = %v, %v; want nil, nil", src, e, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"(title",                        // unterminated term
		`(title "a") extra`,             // trailing input
		`((title "a") xor (title "b"))`, // unknown operator
		`((title "a") and)`,             // missing right operand
		`("a" prox[x,T] "b")`,           // non-numeric distance
		`("a" prox[3,Q] "b")`,           // bad order flag
		`("a" prox[-1,T] "b")`,          // negative distance
		`("a" prox[3,T] ("b" and "c"))`, // prox operand not a term
		`(("b" and "c") prox[3,T] "a")`, // prox left operand not a term
		"list()",                        // empty list
		"list((title \"a\")",            // unterminated list
		`(stem title "a")`,              // field after modifier
		`(title author "a")`,            // two fields
		`)`,                             // stray paren
		`(title "a" 1.5.2)`,             // malformed weight
		`98`,                            // not an expression
	}
	for _, src := range bad {
		if _, err := ParseFilter(src); err == nil {
			t.Errorf("ParseFilter(%q) succeeded, want error", src)
		}
	}
}

func TestValidateFilterRejectsListAndWeights(t *testing.T) {
	if _, err := ParseFilter(`list("a" "b")`); err == nil {
		t.Error("filter accepted list operator")
	}
	if _, err := ParseFilter(`(("a" 0.7) and "b")`); err == nil {
		t.Error("filter accepted weighted term")
	}
	// Both are fine in ranking expressions.
	if _, err := ParseRanking(`list(("a" 0.7) "b")`); err != nil {
		t.Errorf("ranking rejected weighted list: %v", err)
	}
}

func TestValidateRankingWeightRange(t *testing.T) {
	if _, err := ParseRanking(`list(("a" 1.5))`); err == nil {
		t.Error("ranking accepted weight > 1")
	}
}

func TestPrintParseRoundTrip(t *testing.T) {
	srcs := []string{
		`((author "Ullman") and (title stem "databases"))`,
		`list((body-of-text "distributed") (body-of-text "databases"))`,
		`("digital" prox[3,T] "libraries")`,
		`((title "a") or ((title "b") and-not (any "c")))`,
		`list(("distributed" 0.7) ("databases" 0.3))`,
		`(date-last-modified > "1996-08-01")`,
		`(body-of-text [en-US "behavior"])`,
		`(author phonetic "Smith")`,
		`(title right-truncation case-sensitive "Data")`,
		// Below 1e-4 the printer writes an exponent; failed to reparse once.
		`list(("a" 1e-05) (title "b" 1.234e-07))`,
	}
	for _, src := range srcs {
		e1, err := ParseRanking(src)
		if err != nil {
			t.Errorf("parse %q: %v", src, err)
			continue
		}
		printed := e1.String()
		e2, err := ParseRanking(printed)
		if err != nil {
			t.Errorf("reparse %q (printed from %q): %v", printed, src, err)
			continue
		}
		if !reflect.DeepEqual(e1, e2) {
			t.Errorf("round trip changed AST:\nsrc    %q\nprint  %q\n ast1 %#v\n ast2 %#v", src, printed, e1, e2)
		}
	}
}

// genExpr builds a random valid ranking expression for property testing.
func genExpr(r *rand.Rand, depth int, ranking bool) Expr {
	fields := []attr.Field{"", attr.FieldTitle, attr.FieldAuthor, attr.FieldBodyOfText, attr.FieldAny}
	words := []string{"databases", "distributed", "systems", "query", "rank", "Z39", "meta search", `quo"te`}
	tags := []lang.Tag{{}, lang.EnglishUS, lang.Spanish}
	mkTerm := func() *TermExpr {
		t := Term{
			Field: fields[r.Intn(len(fields))],
			Value: lang.LString{Tag: tags[r.Intn(len(tags))], Text: words[r.Intn(len(words))]},
		}
		if r.Intn(3) == 0 {
			t.Mods = append(t.Mods, attr.ModStem)
		}
		if ranking && r.Intn(3) == 0 {
			t.Weight = float64(1+r.Intn(9)) / 10
		}
		return &TermExpr{t}
	}
	if depth <= 0 {
		return mkTerm()
	}
	switch r.Intn(5) {
	case 0:
		return mkTerm()
	case 1:
		return &Bin{Op: OpAnd, L: genExpr(r, depth-1, ranking), R: genExpr(r, depth-1, ranking)}
	case 2:
		return &Bin{Op: OpOr, L: genExpr(r, depth-1, ranking), R: genExpr(r, depth-1, ranking)}
	case 3:
		return &Prox{L: mkTerm(), R: mkTerm(), Dist: r.Intn(10), Ordered: r.Intn(2) == 0}
	default:
		if !ranking {
			return &Bin{Op: OpAndNot, L: genExpr(r, depth-1, ranking), R: genExpr(r, depth-1, ranking)}
		}
		n := 1 + r.Intn(3)
		l := &List{}
		for i := 0; i < n; i++ {
			l.Items = append(l.Items, genExpr(r, depth-1, ranking))
		}
		return l
	}
}

// Property: print-then-parse is the identity over random expression trees.
func TestQuickExprRoundTrip(t *testing.T) {
	f := func(seed int64, rankFlag bool) bool {
		r := rand.New(rand.NewSource(seed))
		e := genExpr(r, 3, rankFlag)
		var back Expr
		var err error
		if rankFlag {
			back, err = ParseRanking(e.String())
		} else {
			back, err = ParseFilter(e.String())
		}
		if err != nil {
			t.Logf("parse %q: %v", e.String(), err)
			return false
		}
		// Weighted bare terms print in parens; reparse keeps structure.
		return reflect.DeepEqual(e, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Error(err)
	}
}

func BenchmarkQueryParse(b *testing.B) {
	src := `((author "Ullman") and (title stem "databases"))`
	rk := `list((body-of-text "distributed") (body-of-text "databases"))`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseFilter(src); err != nil {
			b.Fatal(err)
		}
		if _, err := ParseRanking(rk); err != nil {
			b.Fatal(err)
		}
	}
}

func TestScanTerm(t *testing.T) {
	tm, rest, err := ScanTerm(`(body-of-text "distributed") 10 0.31 190`)
	if err != nil {
		t.Fatal(err)
	}
	if tm.Field != attr.FieldBodyOfText || tm.Value.Text != "distributed" {
		t.Errorf("term = %+v", tm)
	}
	if strings.TrimSpace(rest) != "10 0.31 190" {
		t.Errorf("rest = %q", rest)
	}
	// Bare l-strings scan as terms too.
	tm2, _, err := ScanTerm(`"databases" trailing`)
	if err != nil || tm2.Value.Text != "databases" {
		t.Errorf("bare term = %+v, %v", tm2, err)
	}
	// Compound expressions are not terms.
	if _, _, err := ScanTerm(`("a" and "b")`); err == nil {
		t.Error("compound accepted as term")
	}
	if _, _, err := ScanTerm(`garbage`); err == nil {
		t.Error("garbage accepted as term")
	}
}

// TestParserNeverPanics feeds the parser random byte soup; it must fail
// gracefully, never panic.
func TestParserNeverPanics(t *testing.T) {
	alphabet := []byte(`()[]{}"` + "`'" + `list and or not prox stem title 0.5,T \ xyz`)
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 5000; i++ {
		n := r.Intn(60)
		b := make([]byte, n)
		for j := range b {
			b[j] = alphabet[r.Intn(len(alphabet))]
		}
		src := string(b)
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("parser panicked on %q: %v", src, p)
				}
			}()
			_, _ = ParseFilter(src)
			_, _ = ParseRanking(src)
		}()
	}
	// Mutations of valid queries must not panic either.
	valid := `((author "Ullman") and (title stem "databases"))`
	for i := 0; i < len(valid); i++ {
		for _, c := range []byte{'(', ')', '"', ' ', 'x'} {
			mut := valid[:i] + string(c) + valid[i+1:]
			_, _ = ParseFilter(mut)
		}
	}
}
