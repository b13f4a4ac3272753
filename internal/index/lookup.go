package index

import (
	"fmt"
	"slices"
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

// termWords returns the words of a text term's value that take part in
// matching: tokenized, stop words dropped when the options say so. None
// left means the term matches nothing.
func (ix *Index) termWords(t query.Term, opts LookupOptions) []string {
	words := wordsOf(ix.analyzer, t.Value.Text)
	if !opts.DropStopWords {
		return words
	}
	kept := words[:0]
	for _, w := range words {
		if !opts.Stop.Contains(w) {
			kept = append(kept, w)
		}
	}
	return kept
}

// expandWord resolves one query word to the index vocabulary terms it
// matches under the term's modifiers: the expansion step the cursors and
// the oracle share.
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

func containsInt(sorted []int, x int) bool {
	i := sort.SearchInts(sorted, x)
	return i < len(sorted) && sorted[i] == x
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

// docPredicate returns the per-document test of a term on one of the
// fields that have no postings — date, linkage, linkage-type, languages,
// cross-reference-linkage — and nil for a term on any other field.
func docPredicate(t query.Term) (func(*Document) bool, error) {
	want := strings.TrimSpace(t.Value.Text)
	switch t.EffectiveField() {
	case attr.FieldDateLastModified:
		when, err := parseDate(t.Value.Text)
		if err != nil {
			return nil, err
		}
		cmp := t.Comparison()
		return func(d *Document) bool { return !d.Date.IsZero() && dateSatisfies(d.Date, cmp, when) }, nil
	case attr.FieldLinkage:
		return func(d *Document) bool { return strings.EqualFold(d.Linkage, want) }, nil
	case attr.FieldLinkageType:
		return func(d *Document) bool { return strings.EqualFold(d.LinkageType, want) }, nil
	case attr.FieldLanguages:
		tag, err := lang.ParseTag(want)
		if err != nil {
			return nil, fmt.Errorf("index: languages term: %w", err)
		}
		return func(d *Document) bool {
			return slices.ContainsFunc(d.Languages, func(dt lang.Tag) bool { return dt.Matches(tag) })
		}, nil
	case attr.FieldCrossReferenceLinkage:
		return func(d *Document) bool {
			return slices.ContainsFunc(d.CrossRefs, func(url string) bool { return strings.EqualFold(url, want) })
		}, nil
	}
	return nil, nil
}

// nativeIDs evaluates a free-form-text term through the options' native
// handler and returns the matching documents of this index, ascending.
func (ix *Index) nativeIDs(t query.Term, opts LookupOptions) ([]int, error) {
	if opts.Native == nil {
		return nil, nil
	}
	set, err := opts.Native(t.Value.Text)
	if err != nil {
		return nil, fmt.Errorf("index: native query: %w", err)
	}
	ids := make([]int, 0, len(set))
	for id := range set {
		if id >= 0 && id < len(ix.docs) {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids, nil
}
