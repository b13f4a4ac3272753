// Package query implements the STARTS query language of Section 4.1:
// atomic terms (l-strings adorned with a field and modifiers), complex
// filter expressions (the Boolean component, with and/or/and-not/prox
// operators), complex ranking expressions (the vector-space component,
// which adds the list operator and per-term weights), and the SQuery
// object that carries a complete query with its result specification.
//
// An Expr is immutable once built: every rewrite goes through Rewrite,
// which returns unchanged nodes as they are, so a translated query, a
// source's actual query and a cached answer may all share the nodes of
// the query they came from.
package query

import (
	"fmt"
	"strconv"

	"starts/internal/attr"
	"starts/internal/lang"
)

// Term is an atomic query term: an l-string modified by at most one field
// and zero or more modifiers, optionally weighted when used inside a
// ranking expression.
//
//	(author "Ullman")
//	(title stem "databases")
//	(date-last-modified > "1996-08-01")
//	("distributed" 0.7)
type Term struct {
	Field  attr.Field // "" means unspecified, interpreted as "any"
	Mods   []attr.Modifier
	Value  lang.LString
	Weight float64 // relative importance in ranking expressions; 0 means unset (treated as 1)
}

// NewTerm builds an unweighted term.
func NewTerm(field attr.Field, value lang.LString, mods ...attr.Modifier) Term {
	return Term{Field: field, Mods: mods, Value: value}
}

// EffectiveField returns the term's field, defaulting to "any".
func (t Term) EffectiveField() attr.Field {
	if t.Field == "" {
		return attr.FieldAny
	}
	return attr.Normalize(t.Field)
}

// EffectiveWeight returns the term's ranking weight, defaulting to 1.
func (t Term) EffectiveWeight() float64 {
	if t.Weight == 0 {
		return 1
	}
	return t.Weight
}

// HasMod reports whether the term carries the given modifier.
func (t Term) HasMod(m attr.Modifier) bool {
	for _, x := range t.Mods {
		if x == m {
			return true
		}
	}
	return false
}

// KeepMods returns t with only the modifiers keep accepts, and whether
// keep refused any. The kept modifiers are a new slice only then: t's own
// is never written.
func (t Term) KeepMods(keep func(attr.Modifier) bool) (Term, bool) {
	var kept []attr.Modifier
	stripped := false
	for i, m := range t.Mods {
		switch {
		case keep(m):
			if stripped {
				kept = append(kept, m)
			}
		case !stripped:
			kept, stripped = append(kept, t.Mods[:i]...), true
		}
	}
	if stripped {
		t.Mods = kept
	}
	return t, stripped
}

// Comparison returns the term's comparison modifier, defaulting to "=" as
// the paper's modifier table specifies.
func (t Term) Comparison() attr.Modifier {
	for _, m := range t.Mods {
		if m.IsComparison() {
			return m
		}
	}
	return attr.ModEQ
}

// bare reports whether the term can print as a bare l-string.
func (t Term) bare() bool {
	return t.Field == "" && len(t.Mods) == 0 && t.Weight == 0
}

// String renders the term in query syntax.
func (t Term) String() string {
	var buf [printBuf]byte
	return string(t.Append(buf[:0]))
}

// Append appends the term to dst in query syntax.
func (t Term) Append(dst []byte) []byte {
	if t.bare() {
		return t.Value.Append(dst)
	}
	dst = append(dst, '(')
	if t.Field != "" {
		dst = append(dst, attr.Normalize(t.Field)...)
		dst = append(dst, ' ')
	}
	for _, m := range t.Mods {
		dst = append(dst, m.String()...)
		dst = append(dst, ' ')
	}
	dst = t.Value.Append(dst)
	if t.Weight != 0 {
		dst = strconv.AppendFloat(append(dst, ' '), t.Weight, 'g', -1, 64)
	}
	return append(dst, ')')
}

// printBuf is the stack buffer an expression is printed into before it
// becomes a string; the paper's longest example expression is 61 bytes.
const printBuf = 256

// AppendExpr is the one printer of expressions: it appends e to dst in
// query syntax.
func AppendExpr(dst []byte, e Expr) []byte {
	switch n := e.(type) {
	case *TermExpr:
		return n.Term.Append(dst)
	case *Bin:
		dst = AppendExpr(append(dst, '('), n.L)
		dst = append(append(append(dst, ' '), n.Op...), ' ')
		return append(AppendExpr(dst, n.R), ')')
	case *Prox:
		dst = n.L.Term.Append(append(dst, '('))
		dst = strconv.AppendInt(append(dst, " prox["...), int64(n.Dist), 10)
		if n.Ordered {
			dst = append(dst, ",T] "...)
		} else {
			dst = append(dst, ",F] "...)
		}
		return append(n.R.Term.Append(dst), ')')
	case *List:
		dst = append(dst, "list("...)
		for i, it := range n.Items {
			if i > 0 {
				dst = append(dst, ' ')
			}
			dst = AppendExpr(dst, it)
		}
		return append(dst, ')')
	default:
		return append(dst, e.String()...)
	}
}

func exprString(e Expr) string {
	var buf [printBuf]byte
	return string(AppendExpr(buf[:0], e))
}

// Op is a Boolean(-like) operator combining query expressions.
type Op string

// The Basic-1 operators. If a source supports filter expressions it must
// support all of and, or, and-not and prox; ranking expressions add list.
// There deliberately is no bare "not": every query has a positive
// component, so sources never evaluate pure negations.
const (
	OpAnd    Op = "and"
	OpOr     Op = "or"
	OpAndNot Op = "and-not"
)

// Expr is a node of a filter or ranking expression tree: a Term, a binary
// Bin, a Prox, or (ranking only) a List.
type Expr interface {
	fmt.Stringer
	// Terms appends every term in the expression to dst, in left-to-right
	// order, and returns the extended slice.
	Terms(dst []Term) []Term
}

// TermExpr is a leaf expression holding one term.
type TermExpr struct {
	Term
}

// Terms implements Expr.
func (t *TermExpr) Terms(dst []Term) []Term { return append(dst, t.Term) }

// Bin is a binary combination of two expressions with and, or, or and-not.
// Search engines interpret these as set operations in filter expressions
// and typically as fuzzy-logic operators (min/max) in ranking expressions.
type Bin struct {
	Op   Op
	L, R Expr
}

// String implements Expr.
func (b *Bin) String() string { return exprString(b) }

// Terms implements Expr.
func (b *Bin) Terms(dst []Term) []Term { return b.R.Terms(b.L.Terms(dst)) }

// Prox requires its two terms within Dist words of each other;
// when Ordered, the left term must precede the right one.
//
//	(t1 prox[3,T] t2)
type Prox struct {
	L, R    *TermExpr
	Dist    int
	Ordered bool
}

// String implements Expr.
func (p *Prox) String() string { return exprString(p) }

// Terms implements Expr.
func (p *Prox) Terms(dst []Term) []Term { return p.R.Terms(p.L.Terms(dst)) }

// List groups terms (or sub-expressions) into the flat term list that is
// the most common form of vector-space query. Lists are only legal in
// ranking expressions.
//
//	list(("distributed" 0.7) ("databases" 0.3))
type List struct {
	Items []Expr
}

// String implements Expr.
func (l *List) String() string { return exprString(l) }

// Terms implements Expr.
func (l *List) Terms(dst []Term) []Term {
	for _, it := range l.Items {
		dst = it.Terms(dst)
	}
	return dst
}

// ValidateFilter checks that expr is a legal Basic-1 filter expression: no
// list operator and no term weights.
func ValidateFilter(expr Expr) error {
	return walk(expr, func(e Expr) error {
		switch n := e.(type) {
		case *List:
			return fmt.Errorf("query: list operator is not allowed in filter expressions")
		case *TermExpr:
			if n.Weight != 0 {
				return fmt.Errorf("query: term %s carries a weight, which is only allowed in ranking expressions", n)
			}
		}
		return nil
	})
}

// ValidateRanking checks that expr is a legal Basic-1 ranking expression:
// term weights, when present, must lie in (0, 1].
func ValidateRanking(expr Expr) error {
	return walk(expr, func(e Expr) error {
		if t, ok := e.(*TermExpr); ok {
			if t.Weight < 0 || t.Weight > 1 {
				return fmt.Errorf("query: ranking weight %g of term %s outside [0,1]", t.Weight, t)
			}
		}
		return nil
	})
}

func walk(e Expr, fn func(Expr) error) error {
	if e == nil {
		return nil
	}
	if err := fn(e); err != nil {
		return err
	}
	switch n := e.(type) {
	case *Bin:
		if err := walk(n.L, fn); err != nil {
			return err
		}
		return walk(n.R, fn)
	case *Prox:
		if err := walk(n.L, fn); err != nil {
			return err
		}
		return walk(n.R, fn)
	case *List:
		for _, it := range n.Items {
			if err := walk(it, fn); err != nil {
				return err
			}
		}
	}
	return nil
}

// Rewrite is the one walker of every query rewrite: attribute-set
// resolution, translation for a source, and a source's actual query. It
// asks term what replaces each term node — the node itself, a new
// expression, or nil to drop it — and collapses each operator an operand
// of which was dropped:
//
//	and(a, dropped)      -> a
//	or(a, dropped)       -> a
//	and-not(dropped, b)  -> dropped (no positive component survives)
//	and-not(a, dropped)  -> a
//	prox(a, dropped)     -> a (an operand that is no longer a term is dropped)
//	list(... dropped ...)-> list without the item; an empty list is dropped
//
// Rewrite is copy-on-write: a node none of whose terms changed is
// returned as it is, and only the nodes above a changed term are new, so
// the result shares every unchanged subtree with e. A nil result means
// the whole expression was dropped.
func Rewrite(e Expr, term func(*TermExpr) Expr) Expr {
	switch n := e.(type) {
	case *TermExpr:
		return term(n)
	case *Bin:
		l, r := Rewrite(n.L, term), Rewrite(n.R, term)
		switch {
		case l == nil && r == nil:
			return nil
		case l == nil:
			if n.Op == OpAndNot {
				return nil
			}
			return r
		case r == nil:
			return l
		case l == n.L && r == n.R:
			return n
		default:
			return &Bin{Op: n.Op, L: l, R: r}
		}
	case *Prox:
		l, r := term(n.L), term(n.R)
		lt, lok := l.(*TermExpr)
		rt, rok := r.(*TermExpr)
		switch {
		case lok && rok && lt == n.L && rt == n.R:
			return n
		case lok && rok:
			return &Prox{L: lt, R: rt, Dist: n.Dist, Ordered: n.Ordered}
		case lok:
			return lt
		case rok:
			return rt
		default:
			return nil
		}
	case *List:
		var items []Expr // nil until an item changes
		for i, it := range n.Items {
			kept := Rewrite(it, term)
			if items == nil && kept != it {
				items = append(make([]Expr, 0, len(n.Items)), n.Items[:i]...)
			}
			if items != nil && kept != nil {
				items = append(items, kept)
			}
		}
		if items == nil && len(n.Items) > 0 {
			return n
		}
		if len(items) == 0 {
			return nil
		}
		return &List{Items: items}
	default:
		return nil
	}
}

// ResolveAttributeSet returns the query's expressions with every term
// field interpreted in the query's default attribute set (DC-1 creator
// becomes author, and so on). Basic-1 and unset default sets are the
// identity; a term whose field does not map is kept as it is.
func (q *Query) ResolveAttributeSet() (filter, ranking Expr) {
	set := q.DefaultAttrSet
	if set == "" || set == attr.SetBasic1 {
		return q.Filter, q.Ranking
	}
	fn := func(te *TermExpr) Expr {
		if te.Field == "" {
			return te
		}
		if f := attr.ResolveField(set, te.Field); f != te.Field {
			t := te.Term
			t.Field = f
			return &TermExpr{Term: t}
		}
		return te
	}
	return Rewrite(q.Filter, fn), Rewrite(q.Ranking, fn)
}
