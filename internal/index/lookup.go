package index

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"starts/internal/attr"
	"starts/internal/lang"
	"starts/internal/query"
	"starts/internal/text"
)

// LookupOptions carry the engine-level matching policy into term lookups.
type LookupOptions struct {
	// DropStopWords eliminates stop words from (multi-word) term values
	// before matching, per the query's DropStopWords attribute.
	DropStopWords bool
	// Stop is the engine's stop-word list; nil eliminates nothing.
	Stop *text.StopList
	// DefaultLang applies to l-strings with no language of their own.
	DefaultLang lang.Tag
	// Thesaurus serves the thesaurus modifier; nil expands to nothing.
	Thesaurus *text.Thesaurus
	// Native evaluates free-form-text terms (queries in the engine's own
	// query language); nil means the field is unsupported and matches
	// nothing.
	Native func(native string) (map[int]bool, error)

	// cand, when set, restricts the lookup to an already-known candidate
	// set: posting traversal skips blocks whose doc-id range misses the
	// candidates entirely. Only filter evaluation threads it (internal).
	cand *candSet
}

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
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.lookupLocked(t, opts)
}

func (ix *Index) lookupLocked(t query.Term, opts LookupOptions) (*TermMatch, error) {
	f := t.EffectiveField()
	switch f {
	case attr.FieldDateLastModified:
		return ix.lookupDate(t, opts)
	case attr.FieldLinkage:
		return ix.lookupExact(t, opts, func(d *Document) string { return d.Linkage }), nil
	case attr.FieldLinkageType:
		return ix.lookupExact(t, opts, func(d *Document) string { return d.LinkageType }), nil
	case attr.FieldLanguages:
		return ix.lookupLanguage(t, opts)
	case attr.FieldCrossReferenceLinkage:
		return ix.lookupCrossRef(t, opts), nil
	case attr.FieldFreeFormText:
		if opts.Native == nil {
			return &TermMatch{Docs: map[int]*DocTermInfo{}}, nil
		}
		set, err := opts.Native(t.Value.Text)
		if err != nil {
			return nil, fmt.Errorf("index: native query: %w", err)
		}
		m := &TermMatch{Docs: make(map[int]*DocTermInfo, len(set))}
		for id := range set {
			if id >= 0 && id < len(ix.docs) {
				m.Docs[id] = &DocTermInfo{Freq: 1}
			}
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

// wordsOf tokenizes a term value without stop-word elimination or
// normalization (matching policy is applied per word later).
func wordsOf(a *text.Analyzer, value string) []string {
	toks := a.Tokenizer.Tokenize(value)
	words := make([]string, len(toks))
	for i, t := range toks {
		words[i] = t.Text
	}
	return words
}

// expandWord resolves one query word to the index vocabulary terms it
// matches under the term's modifiers: the shared expansion step of both
// the map-building lookup path and the block-pruned ranked path.
func (fi *fieldIndex) expandWord(a *text.Analyzer, word string, t query.Term, opts LookupOptions) []string {
	var terms []string
	seen := map[string]bool{}
	add := func(candidates ...string) {
		for _, c := range candidates {
			if !seen[c] {
				seen[c] = true
				terms = append(terms, c)
			}
		}
	}

	expanded := []string{word}
	if t.HasMod(attr.ModThesaurus) && opts.Thesaurus != nil {
		expanded = opts.Thesaurus.Expand(word)
	}
	for _, w := range expanded {
		norm := a.NormalizeTerm(w)
		switch {
		case t.HasMod(attr.ModStem) && !a.Stemming:
			// Engine does not stem its index: expand via the stem map.
			add(fi.stems[text.Stem(norm)]...)
		case t.HasMod(attr.ModPhonetic):
			if sx := text.Soundex(w); sx != "" {
				add(fi.sounds[sx]...)
			}
		case t.HasMod(attr.ModRightTruncation):
			add(fi.prefixTerms(norm)...)
		case t.HasMod(attr.ModLeftTruncation):
			add(fi.suffixTerms(norm)...)
		case a.CaseSensitive && !t.HasMod(attr.ModCaseSensitive):
			// Case-sensitive index, default (insensitive) match: use the
			// fold map.
			add(fi.folds[strings.ToLower(norm)]...)
		default:
			if _, ok := fi.postings[norm]; ok {
				add(norm)
			}
		}
	}
	return terms
}

// mergePositions returns the sorted union of two position lists in a
// slice of its own: either argument may be a posting's own storage, which
// concurrent lookups read.
func mergePositions(a, b []int) []int {
	merged := append(append(make([]int, 0, len(a)+len(b)), a...), b...)
	sort.Ints(merged)
	return merged
}

// matchWord finds the posting lists matching one query word under the
// term's modifiers and merges them into a doc→info map. A candidate set
// in opts prunes whole posting blocks via the sidecar doc-id bounds. A
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
			if opts.cand.skipBlock(b) {
				continue
			}
			for i := range b.docs {
				p := b.docs[i]
				if !opts.cand.admits(p.DocID) {
					continue
				}
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

func (fi *fieldIndex) prefixTerms(prefix string) []string {
	vocab := fi.sortedVocab()
	i := sort.SearchStrings(vocab, prefix)
	var out []string
	for ; i < len(vocab) && strings.HasPrefix(vocab[i], prefix); i++ {
		out = append(out, vocab[i])
	}
	return out
}

func (fi *fieldIndex) suffixTerms(suffix string) []string {
	var out []string
	for _, t := range fi.sortedVocab() {
		if strings.HasSuffix(t, suffix) {
			out = append(out, t)
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

func containsInt(sorted []int, x int) bool {
	i := sort.SearchInts(sorted, x)
	return i < len(sorted) && sorted[i] == x
}

// eachDoc visits every document — or, when a candidate set restricts the
// lookup, only the candidates — the collection-scan analogue of block
// skipping for the fields without posting lists.
func (ix *Index) eachDoc(cand *candSet, fn func(id int, d *Document)) {
	if cand == nil {
		for id, d := range ix.docs {
			fn(id, d)
		}
		return
	}
	for id := range cand.ids {
		if id >= 0 && id < len(ix.docs) {
			fn(id, ix.docs[id])
		}
	}
}

// lookupDate evaluates a comparison against the last-modified date.
func (ix *Index) lookupDate(t query.Term, opts LookupOptions) (*TermMatch, error) {
	when, err := parseDate(t.Value.Text)
	if err != nil {
		return nil, err
	}
	cmp := t.Comparison()
	m := &TermMatch{Docs: map[int]*DocTermInfo{}}
	ix.eachDoc(opts.cand, func(id int, d *Document) {
		if d.Date.IsZero() {
			return
		}
		if dateSatisfies(d.Date, cmp, when) {
			m.Docs[id] = &DocTermInfo{Freq: 1}
		}
	})
	return m, nil
}

func parseDate(s string) (time.Time, error) {
	s = strings.TrimSpace(s)
	for _, layout := range []string{"2006-01-02", time.RFC3339, "2006"} {
		if t, err := time.Parse(layout, s); err == nil {
			return t, nil
		}
	}
	return time.Time{}, fmt.Errorf("index: cannot parse date %q (want YYYY-MM-DD)", s)
}

func dateSatisfies(have time.Time, cmp attr.Modifier, want time.Time) bool {
	// Compare at day granularity, matching the date syntax.
	h := have.Truncate(24 * time.Hour)
	w := want.Truncate(24 * time.Hour)
	switch cmp {
	case attr.ModLT:
		return h.Before(w)
	case attr.ModLE:
		return !h.After(w)
	case attr.ModEQ:
		return h.Equal(w)
	case attr.ModGE:
		return !h.Before(w)
	case attr.ModGT:
		return h.After(w)
	case attr.ModNE:
		return !h.Equal(w)
	}
	return false
}

// lookupExact matches the term value exactly against a whole-string field.
func (ix *Index) lookupExact(t query.Term, opts LookupOptions, get func(*Document) string) *TermMatch {
	m := &TermMatch{Docs: map[int]*DocTermInfo{}}
	want := strings.TrimSpace(t.Value.Text)
	ix.eachDoc(opts.cand, func(id int, d *Document) {
		if strings.EqualFold(get(d), want) {
			m.Docs[id] = &DocTermInfo{Freq: 1}
		}
	})
	return m
}

func (ix *Index) lookupLanguage(t query.Term, opts LookupOptions) (*TermMatch, error) {
	tag, err := lang.ParseTag(strings.TrimSpace(t.Value.Text))
	if err != nil {
		return nil, fmt.Errorf("index: languages term: %w", err)
	}
	m := &TermMatch{Docs: map[int]*DocTermInfo{}}
	ix.eachDoc(opts.cand, func(id int, d *Document) {
		for _, dt := range d.Languages {
			if dt.Matches(tag) {
				m.Docs[id] = &DocTermInfo{Freq: 1}
				break
			}
		}
	})
	return m, nil
}

func (ix *Index) lookupCrossRef(t query.Term, opts LookupOptions) *TermMatch {
	m := &TermMatch{Docs: map[int]*DocTermInfo{}}
	want := strings.TrimSpace(t.Value.Text)
	ix.eachDoc(opts.cand, func(id int, d *Document) {
		for _, url := range d.CrossRefs {
			if strings.EqualFold(url, want) {
				m.Docs[id] = &DocTermInfo{Freq: 1}
				break
			}
		}
	})
	return m
}
