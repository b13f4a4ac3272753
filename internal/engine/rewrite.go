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
// collapses its operator by query.Rewrite's rules, and the nodes no term
// of which changed are shared with expr.
//
// A nil result means the whole expression was dropped, as is every
// expression of a kind the engine does not evaluate. In ranking
// expressions, Document-text terms expand into relevance-feedback lists.
func (e *Engine) rewrite(s *search, expr query.Expr, opts index.LookupOptions, ranking bool) query.Expr {
	if ranking && !e.cfg.QueryParts.SupportsRanking() || !ranking && !e.cfg.QueryParts.SupportsFilter() {
		return nil
	}
	return query.Rewrite(expr, func(te *query.TermExpr) query.Expr { return e.rewriteTerm(s, te, opts, ranking) })
}

// rewriteTerm is rewrite's answer for one term; a term it keeps whole is
// returned as it is.
func (e *Engine) rewriteTerm(s *search, te *query.TermExpr, opts index.LookupOptions, ranking bool) query.Expr {
	t := te.Term
	if !e.caps.SupportsField(t.EffectiveField()) {
		return nil
	}
	if t.EffectiveField() == attr.FieldDocumentText {
		// Relevance feedback only has ranking semantics: a passed
		// document cannot be a Boolean condition.
		if !ranking {
			return nil
		}
		return e.expandDocumentText(s.ix, t, opts)
	}
	// Strip unsupported modifiers and illegal combinations, keeping the
	// term itself.
	t, stripped := t.KeepMods(func(m attr.Modifier) bool { return e.caps.AllowsCombination(te.EffectiveField(), m) })
	if e.eliminated(s, t, opts) {
		return nil
	}
	if !stripped {
		return te
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
