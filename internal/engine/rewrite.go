package engine

import (
	"starts/internal/attr"
	"starts/internal/index"
	"starts/internal/query"
)

// rewrite reduces an expression to the parts this engine supports — the
// "actual query" of Section 4.2. Terms with unsupported fields are
// dropped; unsupported modifiers and illegal field-modifier combinations
// are stripped from terms; terms consisting entirely of stop words are
// dropped when stop-word elimination is in force. Dropping an operand
// collapses its operator:
//
//	and(a, dropped)      -> a
//	or(a, dropped)       -> a
//	and-not(dropped, b)  -> dropped (no positive component survives)
//	and-not(a, dropped)  -> a
//	prox(a, dropped)     -> a
//	list(... dropped ...)-> list without the item
//
// A nil result means the whole expression was dropped. In ranking
// expressions, Document-text terms expand into relevance-feedback lists.
func (e *Engine) rewrite(s *search, expr query.Expr, opts index.LookupOptions, ranking bool) query.Expr {
	switch n := expr.(type) {
	case nil:
		return nil
	case *query.TermExpr:
		return e.rewriteTerm(s, n, opts, ranking)
	case *query.Bin:
		l := e.rewrite(s, n.L, opts, ranking)
		r := e.rewrite(s, n.R, opts, ranking)
		switch {
		case l == nil && r == nil:
			return nil
		case l == nil:
			if n.Op == query.OpAndNot {
				// The positive component is gone; the negation alone is
				// not a legal query.
				return nil
			}
			return r
		case r == nil:
			return l
		default:
			return &query.Bin{Op: n.Op, L: l, R: r}
		}
	case *query.Prox:
		l := e.rewrite(s, n.L, opts, ranking)
		r := e.rewrite(s, n.R, opts, ranking)
		lt, lok := l.(*query.TermExpr)
		rt, rok := r.(*query.TermExpr)
		switch {
		case lok && rok:
			return &query.Prox{L: lt, R: rt, Dist: n.Dist, Ordered: n.Ordered}
		case lok:
			return lt
		case rok:
			return rt
		default:
			return nil
		}
	case *query.List:
		out := &query.List{Items: make([]query.Expr, 0, len(n.Items))}
		for _, it := range n.Items {
			if kept := e.rewrite(s, it, opts, ranking); kept != nil {
				out.Items = append(out.Items, kept)
			}
		}
		if len(out.Items) == 0 {
			return nil
		}
		return out
	default:
		return nil
	}
}

func (e *Engine) rewriteTerm(s *search, te *query.TermExpr, opts index.LookupOptions, ranking bool) query.Expr {
	t := te.Term
	if !e.SupportsField(t.EffectiveField()) {
		return nil
	}
	if t.EffectiveField() == attr.FieldDocumentText {
		// Relevance feedback only has ranking semantics: a passed
		// document cannot be a Boolean condition.
		if !ranking {
			return nil
		}
		return e.expandDocumentText(t, opts)
	}
	// Strip unsupported modifiers and illegal combinations, keeping the
	// term itself.
	var mods []attr.Modifier
	for _, m := range t.Mods {
		if e.SupportsModifier(m) && e.AllowsCombination(t.EffectiveField(), m) {
			mods = append(mods, m)
		}
	}
	t.Mods = mods
	if e.eliminated(s, t, opts) {
		return nil
	}
	return &query.TermExpr{Term: t}
}

// eliminated reports whether every word of a text term's value is a stop
// word under the effective stop-word policy.
func (e *Engine) eliminated(s *search, t query.Term, opts index.LookupOptions) bool {
	if !opts.DropStopWords || e.cfg.Analyzer.Stop == nil {
		return false
	}
	switch t.EffectiveField() {
	case attr.FieldTitle, attr.FieldAuthor, attr.FieldBodyOfText, attr.FieldAny:
	default:
		return false // dates, linkage etc. have no stop words
	}
	toks := s.sc.Tokens(e.cfg.Analyzer, t.Value.Text)
	if len(toks) == 0 {
		return false
	}
	for _, tok := range toks {
		if !e.cfg.Analyzer.Stop.Contains(tok.Text) {
			return false
		}
	}
	return true
}
