package index

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"starts/internal/attr"
	"starts/internal/lang"
	"starts/internal/meta"
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

// termWords returns the words of a text term's value that take part in
// matching: tokenized, stop words dropped when the options say so. None
// left means the term matches nothing.
func (ix *Index) termWords(sc *Scratch, t query.Term, opts LookupOptions) []string {
	toks, n := sc.Tokens(ix.analyzer, t.Value.Text), 0
	words := take(&sc.words, len(toks))
	for _, tok := range toks {
		if !opts.DropStopWords || !opts.Stop.Contains(tok.Text) {
			words[n], n = tok.Text, n+1
		}
	}
	return words[:n]
}

// expandWord appends to dst the terms of field fi's vocabulary one query
// word matches under the term's modifiers, each once: the expansion step
// the cursors and the oracle share.
func (ix *Index) expandWord(dst []string, fi *fieldIndex, word string, t query.Term, opts LookupOptions) []string {
	from, a := len(dst), ix.analyzer
	expanded := []string{word}
	if t.HasMod(attr.ModThesaurus) && opts.Thesaurus != nil {
		expanded = opts.Thesaurus.Expand(word)
	}
	for _, w := range expanded {
		norm := a.NormalizeTerm(w)
		switch {
		case t.HasMod(attr.ModStem) && !a.Stemming:
			// Engine does not stem its index: expand via the stem map.
			dst = append(dst, fi.stems[text.Stem(norm)]...)
		case t.HasMod(attr.ModPhonetic):
			if sx := text.Soundex(w); sx != "" {
				dst = append(dst, fi.sounds[sx]...)
			}
		case t.HasMod(attr.ModRightTruncation):
			// The vocabulary's run of terms starting with norm.
			vocab := ix.vocab(fi)
			i, _ := slices.BinarySearchFunc(vocab, norm, func(ti meta.TermInfo, s string) int { return strings.Compare(ti.Term, s) })
			for ; i < len(vocab) && strings.HasPrefix(vocab[i].Term, norm); i++ {
				dst = append(dst, vocab[i].Term)
			}
		case t.HasMod(attr.ModLeftTruncation):
			for _, ti := range ix.vocab(fi) {
				if strings.HasSuffix(ti.Term, norm) {
					dst = append(dst, ti.Term)
				}
			}
		case a.CaseSensitive && !t.HasMod(attr.ModCaseSensitive):
			// Case-sensitive index, default (insensitive) match: use the
			// fold map.
			dst = append(dst, fi.folds[strings.ToLower(norm)]...)
		default:
			if _, ok := fi.terms[norm]; ok {
				dst = append(dst, norm)
			}
		}
	}
	// One word's candidates are distinct; a thesaurus's words may share
	// some, and each is kept once, where it first came.
	if len(expanded) > 1 {
		kept := dst[:from]
		for _, c := range dst[from:] {
			if !slices.Contains(kept[from:], c) {
				kept = append(kept, c)
			}
		}
		dst = kept
	}
	return dst
}

// mergePositions returns the sorted union of two position lists in a
// slice of its own: either argument may be a posting's own storage, which
// concurrent lookups read.
func mergePositions(a, b []int32) []int32 {
	merged := append(append(make([]int32, 0, len(a)+len(b)), a...), b...)
	slices.Sort(merged)
	return merged
}

func containsInt(sorted []int32, x int32) bool {
	_, found := slices.BinarySearch(sorted, x)
	return found
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

// dateSatisfies compares two dates at day granularity, matching the date
// syntax: have and want are UTC days (unixDay).
func dateSatisfies(have int64, cmp attr.Modifier, want int64) bool {
	switch cmp {
	case attr.ModLT:
		return have < want
	case attr.ModLE:
		return have <= want
	case attr.ModEQ:
		return have == want
	case attr.ModGE:
		return have >= want
	case attr.ModGT:
		return have > want
	case attr.ModNE:
		return have != want
	}
	return false
}

// docPredicate returns the per-document test of a term on one of the
// fields that have no postings — date, linkage, linkage-type, languages,
// cross-reference-linkage — and nil for a term on any other field.
func (ix *Index) docPredicate(t query.Term) (func(id int) bool, error) {
	want := strings.TrimSpace(t.Value.Text)
	switch t.EffectiveField() {
	case attr.FieldDateLastModified:
		when, err := parseDate(t.Value.Text)
		if err != nil {
			return nil, err
		}
		day, cmp := unixDay(when.Unix()), t.Comparison()
		return func(id int) bool {
			sec := ix.recs[id].date
			return sec != noDate && dateSatisfies(unixDay(sec), cmp, day)
		}, nil
	case attr.FieldLinkage:
		return func(id int) bool { return strings.EqualFold(ix.recs[id].linkage(), want) }, nil
	case attr.FieldLinkageType:
		return func(id int) bool { return strings.EqualFold(ix.extraOf(id).linkageType, want) }, nil
	case attr.FieldLanguages:
		tag, err := lang.ParseTag(want)
		if err != nil {
			return nil, fmt.Errorf("index: languages term: %w", err)
		}
		return func(id int) bool {
			return slices.ContainsFunc(ix.extraOf(id).languages, func(dt lang.Tag) bool { return dt.Matches(tag) })
		}, nil
	case attr.FieldCrossReferenceLinkage:
		return func(id int) bool {
			return slices.ContainsFunc(ix.extraOf(id).crossRefs, func(url string) bool { return strings.EqualFold(url, want) })
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
		if id >= 0 && id < len(ix.recs) {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids, nil
}
