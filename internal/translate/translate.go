// Package translate implements metasearcher-side query translation — the
// second metasearch task. Using nothing but a source's exported MBasic-1
// metadata, it rewrites a query down to what the source supports, predicts
// stop-word eliminations, and reports exactly what was lost so the
// metasearcher can post-filter results client-side ("verification mode",
// as MetaCrawler does for features the sources lack).
package translate

import (
	"strings"

	"starts/internal/attr"
	"starts/internal/meta"
	"starts/internal/query"
	"starts/internal/result"
	"starts/internal/text"
)

// Report records what translation changed, so the metasearcher can judge
// result fidelity and decide what to verify client-side.
type Report struct {
	// DroppedFilter / DroppedRanking are set when the source supports no
	// expression of that kind at all.
	DroppedFilter  bool
	DroppedRanking bool
	// DroppedTerms lists terms removed because their field is unsupported
	// or they consist entirely of source stop words.
	DroppedTerms []query.Term
	// StrippedMods lists modifiers removed from surviving terms.
	StrippedMods []ModStrip
	// KeepStopWordsDenied is set when the query asked to keep stop words
	// but the source cannot turn elimination off.
	KeepStopWordsDenied bool
	// SynthesizedFilter is set when a ranking-only query was downgraded
	// to an OR filter for a filter-only source, so the source still
	// contributes (unranked) candidates.
	SynthesizedFilter bool
	// SynthesizedRanking is set when a filter-only query was recast as a
	// ranking list for a ranking-only source; the metasearcher should
	// post-filter, since ranking semantics are weaker than the filter's.
	SynthesizedRanking bool
}

// ModStrip is one modifier removed from one term.
type ModStrip struct {
	Term query.Term
	Mod  attr.Modifier
}

// Clean reports whether translation was lossless.
func (r *Report) Clean() bool {
	return !r.DroppedFilter && !r.DroppedRanking && len(r.DroppedTerms) == 0 &&
		len(r.StrippedMods) == 0 && !r.KeepStopWordsDenied &&
		!r.SynthesizedFilter && !r.SynthesizedRanking
}

// ForSource rewrites q for the source described by m. The returned query
// is what should be sent; the report describes the losses. The original
// query is not modified.
func ForSource(q *query.Query, m *meta.SourceMeta) (*query.Query, *Report) {
	out := q.Clone()
	// Resolve non-default attribute sets up front so capability checks
	// run against the Basic-1 fields sources advertise.
	out.Filter, out.Ranking = out.ResolveAttributeSet()
	out.DefaultAttrSet = attr.SetBasic1
	rep := &Report{}
	dropStop := q.DropStopWords
	if !q.DropStopWords && !m.TurnOffStopWords {
		rep.KeepStopWordsDenied = true
		dropStop = true
	}

	tr := &translator{m: m, rep: rep, stop: m.StopList(), dropStop: dropStop}
	if !m.QueryParts.SupportsFilter() {
		if out.Filter != nil {
			rep.DroppedFilter = true
			collectTerms(out.Filter, rep)
			out.Filter = nil
		}
	} else {
		out.Filter = tr.rewrite(out.Filter)
	}
	if !m.QueryParts.SupportsRanking() {
		if out.Ranking != nil {
			rep.DroppedRanking = true
			out.Ranking = nil
		}
	} else {
		out.Ranking = tr.rewrite(out.Ranking)
	}
	// Locally implement the missing query part where possible
	// (MetaCrawler-style): a ranking-only query at a filter-only source
	// becomes an OR filter over the ranking terms; a filter-only query at
	// a ranking-only source becomes a ranking list over the filter terms
	// (to be post-filtered by the caller).
	if out.Filter == nil && out.Ranking == nil {
		switch {
		case rep.DroppedRanking && q.Ranking != nil:
			if f := tr.rewrite(orOfTerms(q.Ranking)); f != nil {
				out.Filter = f
				rep.SynthesizedFilter = true
			}
		case rep.DroppedFilter && q.Filter != nil:
			if r := tr.rewrite(listOfTerms(q.Filter)); r != nil {
				out.Ranking = r
				rep.SynthesizedRanking = true
				rep.DroppedTerms = append(rep.DroppedTerms, q.Filter.Terms(nil)...)
			}
		}
	}
	return out, rep
}

// orOfTerms flattens an expression's terms into an OR chain.
func orOfTerms(e query.Expr) query.Expr {
	terms := e.Terms(nil)
	var out query.Expr
	for _, t := range terms {
		t.Weight = 0 // weights are illegal in filters
		te := &query.TermExpr{Term: t}
		if out == nil {
			out = te
		} else {
			out = &query.Bin{Op: query.OpOr, L: out, R: te}
		}
	}
	return out
}

// listOfTerms flattens an expression's terms into a ranking list.
func listOfTerms(e query.Expr) query.Expr {
	terms := e.Terms(nil)
	l := &query.List{}
	for _, t := range terms {
		l.Items = append(l.Items, &query.TermExpr{Term: t})
	}
	if len(l.Items) == 0 {
		return nil
	}
	return l
}

func collectTerms(e query.Expr, rep *Report) {
	if e == nil {
		return
	}
	rep.DroppedTerms = append(rep.DroppedTerms, e.Terms(nil)...)
}

type translator struct {
	m        *meta.SourceMeta
	rep      *Report
	stop     *text.StopList
	dropStop bool
}

func (tr *translator) rewrite(e query.Expr) query.Expr {
	switch n := e.(type) {
	case nil:
		return nil
	case *query.TermExpr:
		return tr.rewriteTerm(n)
	case *query.Bin:
		l, r := tr.rewrite(n.L), tr.rewrite(n.R)
		switch {
		case l == nil && r == nil:
			return nil
		case l == nil:
			if n.Op == query.OpAndNot {
				return nil
			}
			return r
		case r == nil:
			return l
		default:
			return &query.Bin{Op: n.Op, L: l, R: r}
		}
	case *query.Prox:
		l, r := tr.rewrite(n.L), tr.rewrite(n.R)
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
		out := &query.List{}
		for _, it := range n.Items {
			if kept := tr.rewrite(it); kept != nil {
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

func (tr *translator) rewriteTerm(te *query.TermExpr) query.Expr {
	t := te.Term
	if !tr.m.SupportsField(t.EffectiveField()) {
		tr.rep.DroppedTerms = append(tr.rep.DroppedTerms, t)
		return nil
	}
	var kept []attr.Modifier
	for _, mod := range t.Mods {
		if tr.m.SupportsModifier(mod) && tr.m.AllowsCombination(t.EffectiveField(), mod) {
			kept = append(kept, mod)
			continue
		}
		tr.rep.StrippedMods = append(tr.rep.StrippedMods, ModStrip{Term: t, Mod: mod})
	}
	t.Mods = kept
	if tr.dropStop && tr.allStopWords(t) {
		tr.rep.DroppedTerms = append(tr.rep.DroppedTerms, t)
		return nil
	}
	return &query.TermExpr{Term: t}
}

// allStopWords predicts source-side elimination from the exported stop
// list, scanning the term's words in place.
func (tr *translator) allStopWords(t query.Term) bool {
	if tr.stop.Len() == 0 {
		return false
	}
	switch t.EffectiveField() {
	case attr.FieldTitle, attr.FieldAuthor, attr.FieldBodyOfText, attr.FieldAny:
	default:
		return false
	}
	words := 0
	for rest := t.Value.Text; rest != ""; {
		i := strings.IndexAny(rest, " \t,.;")
		if i < 0 {
			i = len(rest)
		}
		if w := rest[:i]; w != "" {
			if !tr.stop.Contains(w) {
				return false
			}
			words++
		}
		rest = rest[min(i+1, len(rest)):]
	}
	return words > 0
}

// PostFilter implements verification mode: it re-checks result documents
// against terms the source could not evaluate, using the answer fields
// that came back. Only terms over returned textual fields are verifiable;
// unverifiable terms are reported and left unenforced. It returns the
// surviving documents and the terms it could not verify.
func PostFilter(docs []*result.Document, dropped []query.Term) (kept []*result.Document, unverifiable []query.Term) {
	var checkable []query.Term
	for _, t := range dropped {
		switch t.EffectiveField() {
		case attr.FieldTitle, attr.FieldAuthor, attr.FieldAny:
			checkable = append(checkable, t)
		default:
			unverifiable = append(unverifiable, t)
		}
	}
	if len(checkable) == 0 {
		return docs, unverifiable
	}
	for _, d := range docs {
		ok := true
		for _, t := range checkable {
			if !docMatches(d, t) {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, d)
		}
	}
	return kept, unverifiable
}

// docMatches checks a term against the result document's returned field
// of the term's field — every one for "any" — with simple case-insensitive
// word containment.
func docMatches(d *result.Document, t query.Term) bool {
	f := t.EffectiveField()
	needle := strings.ToLower(t.Value.Text)
	for _, fv := range d.Fields {
		if f != attr.FieldAny && fv.Field != f || fv.Value == "" {
			continue
		}
		hay := strings.ToLower(fv.Value)
		for from := 0; ; {
			idx := strings.Index(hay[from:], needle)
			if idx < 0 {
				break
			}
			idx += from
			// Require word-ish boundaries so "art" does not match
			// "particle".
			before := idx == 0 || !isWordRune(hay[idx-1])
			afterIdx := idx + len(needle)
			after := afterIdx >= len(hay) || !isWordRune(hay[afterIdx])
			if t.HasMod(attr.ModRightTruncation) {
				after = true
			}
			if t.HasMod(attr.ModLeftTruncation) {
				before = true
			}
			if before && after {
				return true
			}
			from = idx + 1
		}
	}
	return false
}

func isWordRune(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= '0' && c <= '9'
}
