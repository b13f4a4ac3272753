package query

import (
	"math/rand"
	"reflect"
	"testing"

	"starts/internal/attr"
	"starts/internal/lang"
)

// transformOracle is the copying walker ResolveAttributeSet used before
// Rewrite: a structurally identical copy with fn applied to every term.
func transformOracle(e Expr, fn func(Term) Term) Expr {
	switch n := e.(type) {
	case *TermExpr:
		return &TermExpr{Term: fn(n.Term)}
	case *Bin:
		return &Bin{Op: n.Op, L: transformOracle(n.L, fn), R: transformOracle(n.R, fn)}
	case *Prox:
		return &Prox{L: &TermExpr{Term: fn(n.L.Term)}, R: &TermExpr{Term: fn(n.R.Term)}, Dist: n.Dist, Ordered: n.Ordered}
	case *List:
		out := &List{Items: make([]Expr, len(n.Items))}
		for i, it := range n.Items {
			out.Items[i] = transformOracle(it, fn)
		}
		return out
	default:
		return e
	}
}

// sameNodes reports whether a and b are one tree: the same pointer at
// every node.
func sameNodes(a, b Expr) bool {
	if a != b {
		return false
	}
	switch n := a.(type) {
	case *Bin:
		m := b.(*Bin)
		return sameNodes(n.L, m.L) && sameNodes(n.R, m.R)
	case *List:
		for i, it := range n.Items {
			if !sameNodes(it, b.(*List).Items[i]) {
				return false
			}
		}
	}
	return true
}

// TestRewriteIdentitySharesEveryNode: a rewrite that keeps every term
// returns the expression it was given, and ResolveAttributeSet on a
// Basic-1 query or a dc-1 query without dc-1 fields allocates nothing.
func TestRewriteIdentitySharesEveryNode(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	keep := func(te *TermExpr) Expr { return te }
	for i := 0; i < 200; i++ {
		e := genExpr(r, 4, i%2 == 0)
		if got := Rewrite(e, keep); !sameNodes(got, e) {
			t.Fatalf("identity rewrite of %s built new nodes", e)
		}
	}
	q := New()
	q.Filter = mustFilter(t, `((title "a") and ((author "b") prox[2,T] "c"))`)
	q.Ranking = mustRanking(t, `list((body-of-text "d") ("e" 0.5))`)
	for _, set := range []attr.SetName{attr.SetBasic1, attr.SetDC1} {
		q.DefaultAttrSet = set
		if n := testing.AllocsPerRun(10, func() {
			f, r := q.ResolveAttributeSet()
			if f != q.Filter || r != q.Ranking {
				t.Fatalf("%s: resolving fields that do not map built new nodes", set)
			}
		}); n != 0 {
			t.Errorf("%s: resolving fields that do not map allocates %.0f objects", set, n)
		}
	}
}

// TestRewriteCollapses holds Rewrite to its rule table, dropping every
// term whose value is "x" and renaming every "y" to "z", and checks that
// the subtrees no term of which changed are shared.
func TestRewriteCollapses(t *testing.T) {
	term := func(te *TermExpr) Expr {
		switch te.Value.Text {
		case "x":
			return nil
		case "y":
			c := te.Term
			c.Value.Text = "z"
			return &TermExpr{Term: c}
		}
		return te
	}
	for _, tc := range []struct{ in, want string }{
		{`("a" and "x")`, `"a"`},
		{`("x" or "a")`, `"a"`},
		{`("x" and-not "a")`, ``},
		{`("a" and-not "x")`, `"a"`},
		{`("x" and "x")`, ``},
		{`("a" prox[3,T] "x")`, `"a"`},
		{`("x" prox[3,T] "a")`, `"a"`},
		{`("x" prox[3,T] "x")`, ``},
		{`("y" prox[3,T] "a")`, `("z" prox[3,T] "a")`},
		{`list("x" "a" "x" ("b" and "x"))`, `list("a" "b")`},
		{`list("x" "x")`, ``},
		{`list(("a" and "b") "y" ("c" or "d"))`, `list(("a" and "b") "z" ("c" or "d"))`},
		{`((("a" or "b") and "y") and-not ("c" and "x"))`, `((("a" or "b") and "z") and-not "c")`},
	} {
		in := mustRanking(t, tc.in)
		before := in.String()
		got := Rewrite(in, term)
		printed := ""
		if got != nil {
			printed = got.String()
		}
		if printed != tc.want {
			t.Errorf("Rewrite(%s) = %q, want %q", tc.in, printed, tc.want)
		}
		if in.String() != before {
			t.Errorf("Rewrite(%s) changed its input to %s", tc.in, in)
		}
	}
	// Only the spine above the changed term is new.
	in := mustRanking(t, `list(("a" and "b") "y" ("c" or "d"))`).(*List)
	got := Rewrite(in, term).(*List)
	if got == in || got.Items[0] != in.Items[0] || got.Items[2] != in.Items[2] || got.Items[1] == in.Items[1] {
		t.Errorf("rewriting one item of %s shared %v, want all but that item shared", in, got)
	}
	bin := mustRanking(t, `(("a" and "b") or "y")`).(*Bin)
	if got := Rewrite(bin, term).(*Bin); got == bin || got.L != bin.L {
		t.Errorf("rewriting the right operand of %s did not share the left one", bin)
	}
	if Rewrite(&List{}, term) != nil {
		t.Error("an empty list survived the rewrite")
	}
}

// TestResolveAttributeSetMatchesOracle: dc-1 fields resolve to their
// Basic-1 fields exactly as the copying walker resolved them, and the
// subtrees without a dc-1 field are shared.
func TestResolveAttributeSetMatchesOracle(t *testing.T) {
	q := New()
	q.DefaultAttrSet = attr.SetDC1
	q.Filter = mustFilter(t, `(((creator "Ullman") and (title "x")) or ((description "a") prox[3,F] "b"))`)
	q.Ranking = mustRanking(t, `list(((Creator "c") and "d") ("e" 0.5) (date > "1996"))`)
	resolve := func(tm Term) Term {
		if tm.Field != "" {
			tm.Field = attr.ResolveField(attr.SetDC1, tm.Field)
		}
		return tm
	}
	f, r := q.ResolveAttributeSet()
	if want := transformOracle(q.Filter, resolve); !reflect.DeepEqual(f, want) {
		t.Errorf("filter resolves to %s, want %s", f, want)
	}
	if want := transformOracle(q.Ranking, resolve); !reflect.DeepEqual(r, want) {
		t.Errorf("ranking resolves to %s, want %s", r, want)
	}
	if got := f.String(); got != `(((author "Ullman") and (title "x")) or ((body-of-text "a") prox[3,F] "b"))` {
		t.Errorf("filter resolves to %s", got)
	}
	if got, want := r.(*List).Items[1], q.Ranking.(*List).Items[1]; got != want {
		t.Error("a term without a dc-1 field was rebuilt")
	}
	if q.Filter.String() != `(((creator "Ullman") and (title "x")) or ((description "a") prox[3,F] "b"))` {
		t.Errorf("resolving changed the query's filter to %s", q.Filter)
	}
}

// TestKeepModsCopiesOnlyWhenStripping: a term keep accepts whole comes
// back with its own modifier slice; one it strips gets a new slice, in
// order, and the term's own slice is left as it was.
func TestKeepModsCopiesOnlyWhenStripping(t *testing.T) {
	tm := NewTerm(attr.FieldTitle, lang.L("x"), attr.ModStem, attr.ModPhonetic, attr.ModThesaurus)
	all := func(attr.Modifier) bool { return true }
	if got, stripped := tm.KeepMods(all); stripped || &got.Mods[0] != &tm.Mods[0] {
		t.Errorf("keeping every modifier stripped %v or copied the slice", stripped)
	}
	got, stripped := tm.KeepMods(func(m attr.Modifier) bool { return m != attr.ModPhonetic })
	if !stripped || !reflect.DeepEqual(got.Mods, []attr.Modifier{attr.ModStem, attr.ModThesaurus}) {
		t.Errorf("stripping phonetic gave %v (stripped %v)", got.Mods, stripped)
	}
	if !reflect.DeepEqual(tm.Mods, []attr.Modifier{attr.ModStem, attr.ModPhonetic, attr.ModThesaurus}) {
		t.Errorf("stripping wrote the term's own modifiers: %v", tm.Mods)
	}
	if got, _ := tm.KeepMods(func(attr.Modifier) bool { return false }); got.Mods != nil {
		t.Errorf("stripping every modifier left %v, want nil", got.Mods)
	}
}
