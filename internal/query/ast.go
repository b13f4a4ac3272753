// Package query implements the STARTS query language of Section 4.1:
// atomic terms (l-strings adorned with a field and modifiers), complex
// filter expressions (the Boolean component, with and/or/and-not/prox
// operators), complex ranking expressions (the vector-space component,
// which adds the list operator and per-term weights), and the SQuery
// object that carries a complete query with its result specification.
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

// appendExpr is the one printer of expressions: it appends e to dst in
// query syntax.
func appendExpr(dst []byte, e Expr) []byte {
	switch n := e.(type) {
	case *TermExpr:
		return n.Term.Append(dst)
	case *Bin:
		dst = appendExpr(append(dst, '('), n.L)
		dst = append(append(append(dst, ' '), n.Op...), ' ')
		return append(appendExpr(dst, n.R), ')')
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
			dst = appendExpr(dst, it)
		}
		return append(dst, ')')
	default:
		return append(dst, e.String()...)
	}
}

func exprString(e Expr) string {
	var buf [printBuf]byte
	return string(appendExpr(buf[:0], e))
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

// TransformTerms returns a structurally identical copy of expr with fn
// applied to every term — used, for example, to resolve fields from a
// non-default attribute set into the Basic-1 fields engines evaluate.
// A nil expr stays nil.
func TransformTerms(e Expr, fn func(Term) Term) Expr {
	switch n := e.(type) {
	case nil:
		return nil
	case *TermExpr:
		return &TermExpr{Term: fn(n.Term)}
	case *Bin:
		return &Bin{Op: n.Op, L: TransformTerms(n.L, fn), R: TransformTerms(n.R, fn)}
	case *Prox:
		return &Prox{
			L:    &TermExpr{Term: fn(n.L.Term)},
			R:    &TermExpr{Term: fn(n.R.Term)},
			Dist: n.Dist, Ordered: n.Ordered,
		}
	case *List:
		out := &List{Items: make([]Expr, len(n.Items))}
		for i, it := range n.Items {
			out.Items[i] = TransformTerms(it, fn)
		}
		return out
	default:
		return e
	}
}

// ResolveAttributeSet returns the query's expressions with every term
// field interpreted in the query's default attribute set (DC-1 creator
// becomes author, and so on). Basic-1 and unset default sets are the
// identity.
func (q *Query) ResolveAttributeSet() (filter, ranking Expr) {
	set := q.DefaultAttrSet
	if set == "" || set == attr.SetBasic1 {
		return q.Filter, q.Ranking
	}
	fn := func(t Term) Term {
		if t.Field != "" {
			t.Field = attr.ResolveField(set, t.Field)
		}
		return t
	}
	return TransformTerms(q.Filter, fn), TransformTerms(q.Ranking, fn)
}
