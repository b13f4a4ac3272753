package index

// This file is the oracle: the map-building evaluator that materialises a
// match set per filter node and a doc→info map per term over the term's
// whole posting lists. Nothing on the serving path reaches it — only an
// engine whose Config.Exhaustive is set (the benchmark's reference fleet),
// tests, and internal/experiments. The cursor evaluator in iter.go is held
// to it, answer for answer, by the engine's differential and fuzz tests. It
// is written for obviousness, not speed.

import (
	"fmt"

	"starts/internal/attr"
	"starts/internal/query"
	"starts/internal/text"
)

// DocTermInfo is one document's match statistics for one query term.
type DocTermInfo struct {
	// Freq is the number of occurrences (for phrases, the number of
	// phrase occurrences).
	Freq int
	// Positions are the match word positions within the matched field;
	// nil for non-positional matches (dates, linkage).
	Positions []int
}

// TermMatch is the result of looking up one query term across the index.
type TermMatch struct {
	// Docs maps document IDs to their match statistics, merged across
	// fields for "any"-field terms.
	Docs map[int]*DocTermInfo
	// Eliminated reports that the whole term consisted of stop words and
	// was removed rather than matched.
	Eliminated bool
}

// DocFreq returns the number of matching documents.
func (m *TermMatch) DocFreq() int { return len(m.Docs) }

// Lookup evaluates one atomic term against the index, honoring the term's
// field and modifiers under the given options.
func (ix *Index) Lookup(t query.Term, opts LookupOptions) (*TermMatch, error) {
	s := ix.Snapshot()
	defer s.Close()
	return s.Lookup(t, opts)
}

// Lookup is Index.Lookup within the snapshot.
func (s Snapshot) Lookup(t query.Term, opts LookupOptions) (*TermMatch, error) {
	ix := s.ix
	if pred, err := docPredicate(t); err != nil {
		return nil, err
	} else if pred != nil {
		m := &TermMatch{Docs: map[int]*DocTermInfo{}}
		for id, d := range ix.docs {
			if pred(d) {
				m.Docs[id] = &DocTermInfo{Freq: 1}
			}
		}
		return m, nil
	}
	switch f := t.EffectiveField(); f {
	case attr.FieldFreeFormText:
		ids, err := ix.nativeIDs(t, opts)
		if err != nil {
			return nil, err
		}
		m := &TermMatch{Docs: make(map[int]*DocTermInfo, len(ids))}
		for _, id := range ids {
			m.Docs[id] = &DocTermInfo{Freq: 1}
		}
		return m, nil
	case attr.FieldAny:
		m := &TermMatch{Docs: map[int]*DocTermInfo{}, Eliminated: true}
		for _, tf := range TextFields {
			fm, elim, err := ix.lookupTextField(tf, t, opts)
			if err != nil {
				return nil, err
			}
			if !elim {
				m.Eliminated = false
			}
			mergeMatches(m.Docs, fm)
		}
		return m, nil
	case attr.FieldTitle, attr.FieldAuthor, attr.FieldBodyOfText:
		fm, elim, err := ix.lookupTextField(f, t, opts)
		if err != nil {
			return nil, err
		}
		return &TermMatch{Docs: fm, Eliminated: elim}, nil
	default:
		// Fields this engine does not index match nothing; capability
		// negotiation happens above the index.
		return &TermMatch{Docs: map[int]*DocTermInfo{}}, nil
	}
}

func mergeMatches(dst map[int]*DocTermInfo, src map[int]*DocTermInfo) {
	for id, info := range src {
		if cur := dst[id]; cur != nil {
			cur.Freq += info.Freq
			cur.Positions = mergePositions(cur.Positions, info.Positions)
		} else {
			cp := *info
			dst[id] = &cp
		}
	}
}

// lookupTextField matches a term against one positional field. The second
// return value reports stop-word elimination of the entire term.
func (ix *Index) lookupTextField(f attr.Field, t query.Term, opts LookupOptions) (map[int]*DocTermInfo, bool, error) {
	fi := ix.fields[f]
	out := map[int]*DocTermInfo{}
	words := wordsOf(ix.analyzer, t.Value.Text)
	if len(words) == 0 {
		return out, false, nil
	}
	if opts.DropStopWords {
		kept := words[:0]
		for _, w := range words {
			if !opts.Stop.Contains(w) {
				kept = append(kept, w)
			}
		}
		if len(kept) == 0 {
			return out, true, nil
		}
		words = kept
	}
	if fi == nil {
		return out, false, nil
	}
	// Per-word candidate posting lists, merged over modifier expansions.
	perWord := make([]map[int]*DocTermInfo, len(words))
	for i, w := range words {
		perWord[i] = fi.matchWord(ix.analyzer, w, t, opts)
	}
	var merged map[int]*DocTermInfo
	if len(words) == 1 {
		merged = perWord[0]
	} else {
		// A multi-word quoted value is a phrase: consecutive positions.
		merged = phraseMatch(perWord)
	}
	// Language-qualified terms only match documents in that language.
	tag := t.Value.Resolve(opts.DefaultLang)
	for id, info := range merged {
		if ix.docs[id].InLanguage(tag) {
			out[id] = info
		}
	}
	return out, false, nil
}

// matchWord finds the posting lists matching one query word under the
// term's modifiers and merges them into a doc→info map. A
// document's Positions are its posting's own (capacity clipped, so an
// append cannot reach the index) until a second expansion term matches
// the document too.
func (fi *fieldIndex) matchWord(a *text.Analyzer, word string, t query.Term, opts LookupOptions) map[int]*DocTermInfo {
	terms := fi.expandWord(a, word, t, opts)
	out := map[int]*DocTermInfo{}
	// Infos are cut from chunks that double up to 512: one allocation per
	// chunk, not per posting. A used-up chunk lives on through its pointers.
	var free []DocTermInfo
	chunk := 4
	for _, term := range terms {
		pl := fi.postings[term]
		if pl == nil {
			continue
		}
		for _, b := range pl.blocks {
			for i := range b.docs {
				p := b.docs[i]
				if cur := out[p.DocID]; cur != nil {
					cur.Freq += p.Freq()
					cur.Positions = mergePositions(cur.Positions, p.Positions)
				} else {
					if len(free) == 0 {
						chunk = min(2*chunk, 512)
						free = make([]DocTermInfo, chunk)
					}
					n := len(p.Positions)
					free[0] = DocTermInfo{Freq: n, Positions: p.Positions[:n:n]}
					out[p.DocID], free = &free[0], free[1:]
				}
			}
		}
	}
	return out
}

// phraseMatch intersects per-word matches positionally: an occurrence at
// position p requires word i at position p+i for every i.
func phraseMatch(perWord []map[int]*DocTermInfo) map[int]*DocTermInfo {
	out := map[int]*DocTermInfo{}
	first := perWord[0]
docs:
	for id, info := range first {
		for _, m := range perWord[1:] {
			if m[id] == nil {
				continue docs
			}
		}
		var starts []int
	pos:
		for _, p := range info.Positions {
			for i := 1; i < len(perWord); i++ {
				if !containsInt(perWord[i][id].Positions, p+i) {
					continue pos
				}
			}
			starts = append(starts, p)
		}
		if len(starts) > 0 {
			out[id] = &DocTermInfo{Freq: len(starts), Positions: starts}
		}
	}
	return out
}

// EvalFilter evaluates a filter expression and returns the set of matching
// document IDs. The expression should already have been capability-
// rewritten by the engine (stop-word-only terms stripped); a term that
// still eliminates entirely under opts matches nothing.
func (ix *Index) EvalFilter(e query.Expr, opts LookupOptions) (map[int]bool, error) {
	s := ix.Snapshot()
	defer s.Close()
	return s.EvalFilter(e, opts)
}

// EvalFilter is Index.EvalFilter within the snapshot.
func (s Snapshot) EvalFilter(e query.Expr, opts LookupOptions) (map[int]bool, error) {
	switch n := e.(type) {
	case *query.TermExpr:
		m, err := s.Lookup(n.Term, opts)
		if err != nil {
			return nil, err
		}
		set := make(map[int]bool, len(m.Docs))
		for id := range m.Docs {
			set[id] = true
		}
		return set, nil
	case *query.Bin:
		l, err := s.EvalFilter(n.L, opts)
		if err != nil {
			return nil, err
		}
		r, err := s.EvalFilter(n.R, opts)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case query.OpAnd:
			return intersect(l, r), nil
		case query.OpOr:
			return union(l, r), nil
		case query.OpAndNot:
			return subtract(l, r), nil
		default:
			return nil, fmt.Errorf("index: unknown operator %q", n.Op)
		}
	case *query.Prox:
		return s.ix.evalProxLocked(n, opts)
	case *query.List:
		return nil, fmt.Errorf("index: list operator reached filter evaluation")
	default:
		return nil, fmt.Errorf("index: unknown filter node %T", e)
	}
}

// evalProxLocked evaluates a proximity constraint. Proximity is positional
// and therefore field-local: when both terms name concrete, different
// fields the constraint cannot hold; "any"-field terms are tried in every
// text field.
func (ix *Index) evalProxLocked(p *query.Prox, opts LookupOptions) (map[int]bool, error) {
	fields, err := proxFields(p)
	if err != nil {
		return nil, err
	}
	out := map[int]bool{}
	for _, f := range fields {
		lm, _, err := ix.lookupTextField(f, p.L.Term, opts)
		if err != nil {
			return nil, err
		}
		rm, _, err := ix.lookupTextField(f, p.R.Term, opts)
		if err != nil {
			return nil, err
		}
		for id, li := range lm {
			ri := rm[id]
			if ri == nil {
				continue
			}
			if proxSatisfied(li.Positions, ri.Positions, p.Dist, p.Ordered) {
				out[id] = true
			}
		}
	}
	return out, nil
}

func intersect(a, b map[int]bool) map[int]bool {
	if len(b) < len(a) {
		a, b = b, a
	}
	out := map[int]bool{}
	for id := range a {
		if b[id] {
			out[id] = true
		}
	}
	return out
}

func union(a, b map[int]bool) map[int]bool {
	out := make(map[int]bool, len(a)+len(b))
	for id := range a {
		out[id] = true
	}
	for id := range b {
		out[id] = true
	}
	return out
}

func subtract(a, b map[int]bool) map[int]bool {
	out := map[int]bool{}
	for id := range a {
		if !b[id] {
			out[id] = true
		}
	}
	return out
}

// AllDocs returns the set of every document ID, the implicit filter result
// of a query with no filter expression.
func (ix *Index) AllDocs() map[int]bool {
	s := ix.Snapshot()
	defer s.Close()
	return s.AllDocs()
}

// AllDocs is Index.AllDocs within the snapshot.
func (s Snapshot) AllDocs() map[int]bool {
	out := make(map[int]bool, len(s.ix.docs))
	for id := range s.ix.docs {
		out[id] = true
	}
	return out
}
