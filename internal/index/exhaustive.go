package index

// This file is the oracle: the map-building evaluator that materialises a
// match set per filter node and a doc→info map per term over the term's
// whole posting lists. Nothing on the serving path reaches it — only an
// engine whose Config.Exhaustive is set (the benchmark's reference fleet)
// and tests. The cursor evaluator in iter.go is held to it, answer for
// answer, by the engine's differential and fuzz tests. It is written for
// obviousness, not speed.

import (
	"fmt"

	"starts/internal/attr"
	"starts/internal/query"
)

// DocTermInfo is one document's match statistics for one query term.
type DocTermInfo struct {
	// Freq is the number of occurrences (for phrases, the number of
	// phrase occurrences).
	Freq int
	// Positions are the match word positions within the matched field;
	// nil for non-positional matches (dates, linkage).
	Positions []int32
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
	if pred, err := ix.docPredicate(t); err != nil {
		return nil, err
	} else if pred != nil {
		m := &TermMatch{Docs: map[int]*DocTermInfo{}}
		for id := range ix.recs {
			if pred(id) {
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
	sc := new(Scratch)
	if len(ix.termWords(sc, t, LookupOptions{})) == 0 {
		return out, false, nil
	}
	words := ix.termWords(sc, t, opts)
	if len(words) == 0 {
		return out, true, nil // every word a stop word
	}
	if fi == nil {
		return out, false, nil
	}
	// Per-word candidate posting lists, merged over modifier expansions.
	perWord := make([]map[int]*DocTermInfo, len(words))
	for i, w := range words {
		perWord[i] = ix.matchWord(fi, w, t, opts)
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
		if ix.inLanguage(id, tag) {
			out[id] = info
		}
	}
	return out, false, nil
}

// matchWord finds field fi's posting lists matching one query word under
// the term's modifiers and merges them into a doc→info map.
func (ix *Index) matchWord(fi *fieldIndex, word string, t query.Term, opts LookupOptions) map[int]*DocTermInfo {
	terms := ix.expandWord(nil, fi, word, t, opts)
	out := map[int]*DocTermInfo{}
	// Infos and positions are cut from chunks that double up to 512 infos
	// and 4 096 positions: one allocation per chunk, not per posting. A
	// used-up chunk lives on through what points into it. A document's
	// Positions are decoded into a chunk, capacity clipped so that an
	// append cannot reach the next document's, and stay there until a
	// second expansion term matches the document too.
	var free []DocTermInfo
	var slab []int32
	chunk, posChunk := 4, 64
	for _, term := range terms {
		pl, ok := fi.lookup(term)
		if !ok {
			continue
		}
		off := int(pl.block(0).posOff)
		for i, d := range pl.docs() {
			if tf, _ := pl.head(i, off); cap(slab)-len(slab) < tf {
				posChunk = min(2*posChunk, 4096)
				slab = make([]int32, 0, max(posChunk, tf))
			}
			n := len(slab)
			slab, off = pl.decode(slab, i, off)
			id, pos := int(d), slab[n:len(slab):len(slab)]
			if cur := out[id]; cur != nil {
				cur.Freq += len(pos)
				cur.Positions = mergePositions(cur.Positions, pos)
			} else {
				if len(free) == 0 {
					chunk = min(2*chunk, 512)
					free = make([]DocTermInfo, chunk)
				}
				free[0] = DocTermInfo{Freq: len(pos), Positions: pos}
				out[id], free = &free[0], free[1:]
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
		var starts []int32
	pos:
		for _, p := range info.Positions {
			for i := 1; i < len(perWord); i++ {
				if !containsInt(perWord[i][id].Positions, p+int32(i)) {
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
	switch n := e.(type) {
	case *query.TermExpr:
		m, err := ix.Lookup(n.Term, opts)
		if err != nil {
			return nil, err
		}
		set := make(map[int]bool, len(m.Docs))
		for id := range m.Docs {
			set[id] = true
		}
		return set, nil
	case *query.Bin:
		l, err := ix.EvalFilter(n.L, opts)
		if err != nil {
			return nil, err
		}
		r, err := ix.EvalFilter(n.R, opts)
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
		return ix.evalProx(n, opts)
	case *query.List:
		return nil, fmt.Errorf("index: list operator reached filter evaluation")
	default:
		return nil, fmt.Errorf("index: unknown filter node %T", e)
	}
}

// evalProx evaluates a proximity constraint. Proximity is positional
// and therefore field-local: when both terms name concrete, different
// fields the constraint cannot hold; "any"-field terms are tried in every
// text field.
func (ix *Index) evalProx(p *query.Prox, opts LookupOptions) (map[int]bool, error) {
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
	out := make(map[int]bool, len(ix.recs))
	for id := range ix.recs {
		out[id] = true
	}
	return out
}
