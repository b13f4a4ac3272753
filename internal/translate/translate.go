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
// query is not modified. Each call returns a fresh *query.Query sharing
// with q every node and slice translation left unchanged: it is read-only,
// and a caller that changes a slice of it replaces the slice.
func ForSource(q *query.Query, m *meta.SourceMeta) (*query.Query, *Report) {
	c := *q
	out := &c
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
			rep.DroppedTerms = out.Filter.Terms(rep.DroppedTerms)
			out.Filter = nil
		}
	} else {
		out.Filter = query.Rewrite(out.Filter, tr.rewriteTerm)
	}
	if !m.QueryParts.SupportsRanking() {
		if out.Ranking != nil {
			rep.DroppedRanking = true
			out.Ranking = nil
		}
	} else {
		out.Ranking = query.Rewrite(out.Ranking, tr.rewriteTerm)
	}
	// Locally implement the missing query part where possible
	// (MetaCrawler-style): a ranking-only query at a filter-only source
	// becomes an OR filter over the ranking terms; a filter-only query at
	// a ranking-only source becomes a ranking list over the filter terms
	// (to be post-filtered by the caller).
	if out.Filter == nil && out.Ranking == nil {
		switch {
		case rep.DroppedRanking && q.Ranking != nil:
			if f := query.Rewrite(orOfTerms(q.Ranking), tr.rewriteTerm); f != nil {
				out.Filter = f
				rep.SynthesizedFilter = true
			}
		case rep.DroppedFilter && q.Filter != nil:
			if r := query.Rewrite(listOfTerms(q.Filter), tr.rewriteTerm); r != nil {
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

type translator struct {
	m        *meta.SourceMeta
	rep      *Report
	stop     *text.StopList
	dropStop bool
}

// rewriteTerm drops a term whose field the source lacks or whose words
// are all its stop words, and strips the modifiers it cannot apply. A
// term it keeps whole is returned as it is.
func (tr *translator) rewriteTerm(te *query.TermExpr) query.Expr {
	t := te.Term
	if !tr.m.SupportsField(t.EffectiveField()) {
		tr.rep.DroppedTerms = append(tr.rep.DroppedTerms, t)
		return nil
	}
	t, stripped := t.KeepMods(func(mod attr.Modifier) bool {
		if tr.m.SupportsModifier(mod) && tr.m.AllowsCombination(te.EffectiveField(), mod) {
			return true
		}
		tr.rep.StrippedMods = append(tr.rep.StrippedMods, ModStrip{Term: te.Term, Mod: mod})
		return false
	})
	if tr.dropStop && tr.allStopWords(t) {
		tr.rep.DroppedTerms = append(tr.rep.DroppedTerms, t)
		return nil
	}
	if !stripped {
		return te
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
