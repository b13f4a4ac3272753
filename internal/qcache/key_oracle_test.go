package qcache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"starts/internal/attr"
	"starts/internal/lang"
	"starts/internal/query"
)

// The fingerprint printer Canonical replaced — strings.Builder, Sprintf,
// Join, one string per node — kept as the oracle: the append printer must
// produce the same bytes, and Keyer.Key the same digest of them.

func oracleKey(scope string, q *query.Query) string {
	sum := sha256.Sum256([]byte(scope + "\x00" + oracleCanonical(q)))
	return hex.EncodeToString(sum[:16])
}

// oracleCanonical is Canonical as it was.
func oracleCanonical(q *query.Query) string {
	var b strings.Builder
	b.WriteString("f=")
	b.WriteString(oracleExpr(q.Filter))
	b.WriteString(";r=")
	b.WriteString(oracleExpr(q.Ranking))
	fmt.Fprintf(&b, ";stop=%t;set=%s;lang=%s",
		q.DropStopWords, strings.ToLower(string(q.DefaultAttrSet)), q.DefaultLanguage.String())
	srcs := append([]string(nil), q.Sources...)
	sort.Strings(srcs)
	b.WriteString(";srcs=")
	b.WriteString(strings.Join(srcs, ","))
	b.WriteString(";ans=")
	for i, f := range q.AppendAnswerFields(nil) {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(string(f))
	}
	b.WriteString(";sort=")
	for i, s := range q.EffectiveSort() {
		if i > 0 {
			b.WriteByte(',')
		}
		dir := "d"
		if s.Ascending {
			dir = "a"
		}
		b.WriteString(string(s.Field) + " " + dir)
	}
	fmt.Fprintf(&b, ";min=%g;max=%d", q.MinScore, q.EffectiveMaxResults())
	return b.String()
}

// canonExpr renders one expression tree canonically. Chains of the same
// commutative operator (and, or) are flattened and their operands sorted;
// everything else keeps its structure.
func oracleExpr(e query.Expr) string {
	switch n := e.(type) {
	case nil:
		return ""
	case *query.TermExpr:
		return oracleTerm(n.Term)
	case *query.Bin:
		if n.Op == query.OpAnd || n.Op == query.OpOr {
			ops := oracleFlatten(n.Op, n, nil)
			sort.Strings(ops)
			return "(" + string(n.Op) + " " + strings.Join(ops, " ") + ")"
		}
		return "(" + string(n.Op) + " " + oracleExpr(n.L) + " " + oracleExpr(n.R) + ")"
	case *query.Prox:
		return fmt.Sprintf("(prox[%d,%t] %s %s)", n.Dist, n.Ordered, oracleTerm(n.L.Term), oracleTerm(n.R.Term))
	case *query.List:
		parts := make([]string, len(n.Items))
		for i, it := range n.Items {
			parts[i] = oracleExpr(it)
		}
		return "list(" + strings.Join(parts, " ") + ")"
	default:
		// Unknown node types fall back to their printed form.
		return e.String()
	}
}

// flatten collects the canonical operand strings of a same-operator
// chain: (a and (b and c)) and ((a and b) and c) both yield [a b c].
func oracleFlatten(op query.Op, e query.Expr, dst []string) []string {
	if b, ok := e.(*query.Bin); ok && b.Op == op {
		return oracleFlatten(op, b.R, oracleFlatten(op, b.L, dst))
	}
	return append(dst, oracleExpr(e))
}

// canonTerm renders a term with defaults applied (unset field = any,
// weight 0 = 1, implicit "=" comparison) and modifiers sorted, so
// spelled-out defaults and omitted ones fingerprint identically.
func oracleTerm(t query.Term) string {
	mods := make([]string, 0, len(t.Mods))
	hasCmp := false
	for _, m := range t.Mods {
		if m.IsComparison() {
			hasCmp = true
		}
		mods = append(mods, m.String())
	}
	if !hasCmp {
		mods = append(mods, attr.ModEQ.String())
	}
	sort.Strings(mods)
	return "(" + string(t.EffectiveField()) + " " + strings.Join(mods, " ") +
		" " + t.Value.String() + " " + strconv.FormatFloat(t.EffectiveWeight(), 'g', -1, 64) + ")"
}

// canonicalSeeds are the seed corpus of the expression parser's fuzz
// targets (internal/query/fuzz_test.go: the paper's Examples 1–12 and the
// exponent-weight regression), plus shapes the canonical form treats
// specially: chains that need sorting, nested and mixed operators,
// duplicate operands, more operands and modifiers than the printer's
// on-stack arrays hold.
var canonicalSeeds = []string{
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
	`list(("a" 0.00001) (title "b" 0.0000001234))`,
	`((title "z") and ((title "m") and ((title "a") and (title "m"))))`,
	`(((title "c") or (title "b")) and ((title "z") or ((title "y") and (title "x"))))`,
	`(("j") and (("i") and (("h") and (("g") and (("f") and (("e") and (("d") and (("c") and (("b") and ("a"))))))))))`,
	`(title stem phonetic thesaurus right-truncation left-truncation case-sensitive > "q")`,
	`list(((title "b") and (title "a")) ((title "d") or (title "c")))`,
	`((title "b") and-not ((title "z") and (title "a")))`,
	`(title "caf\u00e9 \"quoted\" back\\slash")`,
}

// checkCanonical holds one query to the oracle.
func checkCanonical(t *testing.T, q *query.Query) {
	t.Helper()
	if got, want := Canonical(q), oracleCanonical(q); got != want {
		t.Fatalf("Canonical differs from the oracle\n got %q\nwant %q", got, want)
	}
	for _, scope := range []string{"", "search/vGlOSS-Sum(0)/term-stats/3/false/a b c"} {
		if got, want := (Keyer{Scope: scope}).Key(q), oracleKey(scope, q); got != want {
			t.Fatalf("Key under scope %q = %s, oracle %s", scope, got, want)
		}
	}
}

// seedQueries parses src both ways and dresses each result in a few
// result specifications, defaults and not.
func seedQueries(src string) []*query.Query {
	var out []*query.Query
	f, ferr := query.ParseFilter(src)
	r, rerr := query.ParseRanking(src)
	specs := []func(*query.Query){
		func(*query.Query) {},
		func(q *query.Query) {
			q.DropStopWords = false
			q.DefaultAttrSet = "Basic-1"
			q.DefaultLanguage = lang.Tag{Language: "es"}
			q.Sources = []string{"s2", "s1", "s3"}
			q.AnswerFields = []attr.Field{"Author", attr.FieldLinkage, "date/time-last-modified"}
			q.SortBy = []query.SortKey{{Field: attr.FieldTitle, Ascending: true}, {Field: query.ScoreSortField}}
			q.MinScore, q.MaxResults = 0.25, 7
		},
		func(q *query.Query) {
			q.DefaultAttrSet, q.DefaultLanguage = "", lang.Tag{}
			q.Sources = []string{"only"}
			q.AnswerFields, q.SortBy = nil, nil
			q.MinScore, q.MaxResults = math.Inf(1), -3
		},
		func(q *query.Query) { q.MinScore = math.NaN() },
		func(q *query.Query) { q.MinScore = math.Inf(-1) },
		func(q *query.Query) { q.MinScore = 1e21 },
	}
	for _, spec := range specs {
		q := query.New()
		if ferr == nil {
			q.Filter = f
		}
		if rerr == nil {
			q.Ranking = r
		}
		spec(q)
		out = append(out, q)
	}
	return out
}

func TestCanonicalMatchesOracle(t *testing.T) {
	for _, src := range canonicalSeeds {
		for _, q := range seedQueries(src) {
			checkCanonical(t, q)
		}
	}
	checkCanonical(t, &query.Query{}) // no expression at all
}

// FuzzCanonicalMatchesOracle feeds the parser's own corpus through both
// printers.
func FuzzCanonicalMatchesOracle(f *testing.F) {
	for _, src := range canonicalSeeds {
		f.Add(src, src)
	}
	f.Add(`(title "b")`, `list((body-of-text "a") (body-of-text "b" 2))`)
	f.Fuzz(func(t *testing.T, filter, ranking string) {
		q := query.New()
		if e, err := query.ParseFilter(filter); err == nil {
			q.Filter = e
		}
		if e, err := query.ParseRanking(ranking); err == nil {
			q.Ranking = e
		}
		checkCanonical(t, q)
	})
}

// TestKeyAllocations pins what the hit path pays to fingerprint a query:
// the key string and the effective answer-field list, nothing per node
// (the old printer: 35). One more is allowed for a printer the pool
// dropped, which the race detector makes it do.
func TestKeyAllocations(t *testing.T) {
	q := query.New()
	q.Filter, _ = query.ParseFilter(`((title "z") and ((title "m") and (title "a")))`)
	q.Ranking, _ = query.ParseRanking(`list((body-of-text "distributed") (body-of-text "databases" 0.3))`)
	k := Keyer{Scope: "search/vGlOSS-Sum(0)/term-stats/3/false/a b c"}
	if n := testing.AllocsPerRun(100, func() { k.Key(q) }); n > 3 {
		t.Errorf("Key allocates %.0f objects, want 2", n)
	}
}
