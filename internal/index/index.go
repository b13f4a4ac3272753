package index

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"starts/internal/attr"
	"starts/internal/meta"
	"starts/internal/text"
)

// fieldIndex holds the postings and auxiliary vocabularies of one field.
type fieldIndex struct {
	terms  map[string]termRecord
	packed arena // the postings Build packed
	// stems maps Porter stems to the vocabulary terms sharing them,
	// honoring the stem modifier on engines that do not stem their index;
	// nil on engines that do.
	stems map[string][]string
	// sounds maps soundex codes to vocabulary terms, for the phonetic
	// modifier.
	sounds map[string][]string
	// folds maps lower-cased spellings to vocabulary terms, so that
	// case-sensitive indexes can still serve default (case-insensitive)
	// matches; nil on case-folding indexes.
	folds map[string][]string
	// vocab is the sorted vocabulary with each term's statistics: the
	// field's group of the index's summary, and what truncation scans.
	// Index.Summary fills it.
	vocab []meta.TermInfo
}

// newFieldIndex makes a field's index, with the vocabularies expandWord
// reads under the analyzer's policy.
func newFieldIndex(a *text.Analyzer, terms int) *fieldIndex {
	fi := &fieldIndex{terms: make(map[string]termRecord, terms), sounds: map[string][]string{}}
	if !a.Stemming {
		fi.stems = map[string][]string{}
	}
	if a.CaseSensitive {
		fi.folds = map[string][]string{}
	}
	return fi
}

// Index is an in-memory inverted index over a document collection, built
// under one analyzer configuration (tokenizer, case policy, stemming).
// Stop words are always indexed so that queries may turn stop-word
// elimination off when the engine allows it; elimination is applied at
// query time. Build makes it and nothing changes it after, so any number
// of goroutines may read it at once.
type Index struct {
	analyzer *text.Analyzer
	recs     []docRecord // the documents, by id
	extras   []docExtra  // what few documents carry beyond their records
	byURL    map[string]int
	fields   map[attr.Field]*fieldIndex
	counts   []int32 // per-doc token counts under this tokenizer
	// numTagged counts documents carrying explicit language tags; when
	// zero, language filtering is a no-op the ranked fast path skips.
	numTagged int
	// summary is built by the first reader to need it (Summary);
	// summaryOnce makes the others wait.
	summaryOnce sync.Once
	summary     *meta.ContentSummary
}

// New returns an empty index using the given analyzer: Build's start,
// and what an engine with no documents yet searches.
func New(a *text.Analyzer) *Index {
	return &Index{
		analyzer: a,
		byURL:    map[string]int{},
		fields:   map[attr.Field]*fieldIndex{},
	}
}

// analyzeDoc tokenizes every indexed field of one stored document into
// toks, one slice per field (aligned with TextFields) refilled from its
// start, and returns the total token count.
func analyzeDoc(a *text.Analyzer, toks [][]text.Token, r *docRecord) (int, error) {
	total := 0
	for i, f := range TextFields {
		toks[i] = a.Tokenizer.Tokenize(toks[i][:0], r.field(f))
		total += len(toks[i])
	}
	if total > math.MaxInt32 {
		return 0, fmt.Errorf("index: document %q has %d tokens, more than 2^31-1", r.linkage(), total)
	}
	return total, nil
}

// NumDocs returns the number of indexed documents.
func (ix *Index) NumDocs() int { return len(ix.recs) }

// has reports whether the document exists. The accessors below read one
// that does not as empty: sorting must not fail on an id with no document
// behind it.
func (ix *Index) has(id int) bool { return id >= 0 && id < len(ix.recs) }

// HasLinkage reports whether a document with this linkage is indexed.
func (ix *Index) HasLinkage(linkage string) bool {
	_, ok := ix.byURL[linkage]
	return ok
}

// TokenCount returns the document's total token count, the DocCount
// statistic of query results; 0 for an id outside the collection.
func (ix *Index) TokenCount(id int) int {
	if !ix.has(id) {
		return 0
	}
	return int(ix.counts[id])
}

// FieldText returns the document's text for one field, as
// Document.FieldText does; "" for an id outside the collection.
func (ix *Index) FieldText(id int, f attr.Field) string {
	if !ix.has(id) {
		return ""
	}
	return ix.fieldText(id, f)
}

// CompareDates orders two documents by the UTC day of their dates, one
// without a date first.
func (ix *Index) CompareDates(a, b int) int {
	day := func(id int) int64 {
		if !ix.has(id) || ix.recs[id].date == noDate {
			return math.MinInt64
		}
		return unixDay(ix.recs[id].date)
	}
	return cmp.Compare(day(a), day(b))
}

// SizeKB returns the document's size in KBytes, as Document.SizeKB does;
// 0 for an id outside the collection.
func (ix *Index) SizeKB(id int) int {
	if !ix.has(id) {
		return 0
	}
	return ix.sizeKB(id)
}

// addVocab extends the auxiliary vocabularies for a new index term.
func (fi *fieldIndex) addVocab(term string) {
	if fi.stems != nil {
		st := text.Stem(term)
		fi.stems[st] = append(fi.stems[st], term)
	}
	if sx := text.Soundex(term); sx != "" {
		fi.sounds[sx] = append(fi.sounds[sx], term)
	}
	if fi.folds != nil {
		fold := strings.ToLower(term)
		fi.folds[fold] = append(fi.folds[fold], term)
	}
}

// Doc returns the document with the given ID, rebuilt from what the index
// stores: equal to the one indexed (its date in UTC), its strings views of
// the index's text.
func (ix *Index) Doc(id int) (*Document, error) {
	if !ix.has(id) {
		return nil, fmt.Errorf("index: no document %d (collection has %d)", id, ix.NumDocs())
	}
	return ix.document(id), nil
}

// DocFreq returns the number of documents containing term in field (after
// the index's own normalization).
func (ix *Index) DocFreq(f attr.Field, term string) int {
	fi := ix.fields[attr.Normalize(f)]
	if fi == nil {
		return 0
	}
	pl, _ := fi.lookup(ix.analyzer.NormalizeTerm(term))
	return pl.numDocs()
}

// Summary returns the index's content summary (§4.3.1): one group per
// field, its terms in order, each with its occurrences (its frequencies
// summed) and document frequency, under the flag bits of the index's
// analyzer. The first call builds it; every call returns that one
// summary, which no caller may change.
func (ix *Index) Summary() *meta.ContentSummary {
	ix.summaryOnce.Do(func() {
		c := &meta.ContentSummary{
			Stemming:          ix.analyzer.Stemming,
			StopWordsIncluded: true, // stop words are indexed
			CaseSensitive:     ix.analyzer.CaseSensitive,
			FieldsQualified:   true,
			NumDocs:           ix.NumDocs(),
		}
		for f, fi := range ix.fields {
			fi.vocab = make([]meta.TermInfo, 0, len(fi.terms))
			for t := range fi.terms {
				pl, _ := fi.lookup(t)
				fi.vocab = append(fi.vocab, meta.TermInfo{Term: t, Postings: pl.occurrences(), DocFreq: pl.numDocs()})
			}
			slices.SortFunc(fi.vocab, func(a, b meta.TermInfo) int { return strings.Compare(a.Term, b.Term) })
			c.Groups = append(c.Groups, meta.SummaryGroup{Field: f, Terms: fi.vocab})
		}
		slices.SortFunc(c.Groups, func(a, b meta.SummaryGroup) int { return strings.Compare(string(a.Field), string(b.Field)) })
		ix.summary = c
	})
	return ix.summary
}

// vocab returns the field's sorted vocabulary, building the summary.
func (ix *Index) vocab(fi *fieldIndex) []meta.TermInfo {
	ix.Summary()
	return fi.vocab
}

// termRecord is a term's postingList in the packed arena.
type termRecord struct{ doc, n, blk, fr uint32 }

// lookup returns the view of a term's postings; false, and no postings,
// for a term the field does not hold.
func (fi *fieldIndex) lookup(name string) (postingList, bool) {
	t, ok := fi.terms[name]
	return postingList{a: &fi.packed, doc: t.doc, n: t.n, blk: t.blk, fr: t.fr}, ok
}
