package index

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"starts/internal/attr"
	"starts/internal/text"
)

// Posting records one document's occurrences of one term in one field.
type Posting struct {
	DocID     int
	Positions []int // word positions, ascending
}

// Freq returns the term frequency (number of occurrences).
func (p Posting) Freq() int { return len(p.Positions) }

// fieldIndex holds the postings and auxiliary vocabularies of one field.
type fieldIndex struct {
	postings map[string]*postingList
	// stems maps Porter stems to the vocabulary terms sharing them,
	// honoring the stem modifier on engines that do not stem their index.
	stems map[string][]string
	// sounds maps soundex codes to vocabulary terms, for the phonetic
	// modifier.
	sounds map[string][]string
	// folds maps lower-cased spellings to vocabulary terms, so that
	// case-sensitive indexes can still serve default (case-insensitive)
	// matches.
	folds map[string][]string
	// vocab is the sorted vocabulary, built lazily for truncation scans.
	// vocabMu guards the lazy build, which happens under the index's read
	// lock (concurrent readers may race to build it).
	vocabMu  sync.Mutex
	vocab    []string
	vocabOK  bool
	totalLen int // total token count across docs (for averages)
}

func newFieldIndex() *fieldIndex {
	return &fieldIndex{
		postings: map[string]*postingList{},
		stems:    map[string][]string{},
		sounds:   map[string][]string{},
		folds:    map[string][]string{},
	}
}

// Index is an in-memory inverted index over a document collection, built
// under one analyzer configuration (tokenizer, case policy, stemming).
// Stop words are always indexed so that queries may turn stop-word
// elimination off when the engine allows it; elimination is applied at
// query time.
type Index struct {
	mu       sync.RWMutex
	analyzer *text.Analyzer
	docs     []*Document
	byURL    map[string]int
	fields   map[attr.Field]*fieldIndex
	counts   []int // per-doc token counts under this tokenizer
	// keys are the pre-normalized per-doc sort keys, computed once at
	// index time so result sorting never re-formats dates or re-folds
	// field text inside a comparator.
	keys []docSortKeys
	// numTagged counts documents carrying explicit language tags; when
	// zero, language filtering is a no-op the ranked fast path skips.
	numTagged int
}

// docSortKeys are the pre-normalized sort keys of one document: the date
// already formatted and the common sortable text fields already folded.
type docSortKeys struct {
	date   string
	title  string
	author string
}

// New returns an empty index using the given analyzer. The analyzer's
// stop list is NOT applied at indexing time (see Index); its tokenizer,
// case policy and stemming are.
func New(a *text.Analyzer) *Index {
	return &Index{
		analyzer: a,
		byURL:    map[string]int{},
		fields:   map[attr.Field]*fieldIndex{},
	}
}

// Analyzer returns the index's analyzer.
func (ix *Index) Analyzer() *text.Analyzer { return ix.analyzer }

// Add indexes a document and returns its document ID. Adding a document
// with the linkage of an existing document replaces nothing and fails:
// documents are immutable once indexed.
func (ix *Index) Add(d *Document) (int, error) {
	if err := d.Validate(); err != nil {
		return 0, err
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, dup := ix.byURL[d.Linkage]; dup {
		return 0, fmt.Errorf("index: document %q already indexed", d.Linkage)
	}
	id := len(ix.docs)
	ix.docs = append(ix.docs, d)
	ix.byURL[d.Linkage] = id
	// Analyze every field before inserting postings so the document's
	// total token count — the length-normalization bound of the sidecar
	// block stats — is known when each posting lands in its block.
	toksByField, total := analyzeDoc(ix.analyzer, d)
	for i, f := range TextFields {
		if len(toksByField[i]) == 0 {
			continue
		}
		fi := ix.fields[f]
		if fi == nil {
			fi = newFieldIndex()
			ix.fields[f] = fi
		}
		fi.addDoc(id, toksByField[i], total)
	}
	ix.counts = append(ix.counts, total)
	ix.keys = append(ix.keys, sortKeysOf(d))
	if len(d.Languages) > 0 {
		ix.numTagged++
	}
	return id, nil
}

// analyzeDoc tokenizes every indexed field of one document, returning
// per-field tokens (aligned with TextFields) and the total raw token
// count. It touches only the analyzer, so parallel index construction
// can run it outside the index lock.
func analyzeDoc(a *text.Analyzer, d *Document) ([][]text.Token, int) {
	toks := make([][]text.Token, len(TextFields))
	total := 0
	for i, f := range TextFields {
		ft := d.FieldText(f)
		toks[i] = a.AnalyzeAll(ft)
		total += a.CountTokens(ft)
	}
	return toks, total
}

// sortKeysOf pre-normalizes the document's sort keys: date formatted
// once, common text fields folded once.
func sortKeysOf(d *Document) docSortKeys {
	k := docSortKeys{
		title:  strings.ToLower(d.Title),
		author: strings.ToLower(strings.Join(d.Authors, ", ")),
	}
	if !d.Date.IsZero() {
		k.date = d.Date.UTC().Format("2006-01-02")
	}
	return k
}

// Snapshot is the index held under its read lock. Every read a search
// makes through it — which documents match, how often a term occurs, how
// many documents there are and how long each is — sees one state of the
// index, whatever is being added meanwhile. The holder must Close it, and
// must not call the Index's own methods before it has: they take the lock
// again, and a waiting Add would then block both.
type Snapshot struct{ ix *Index }

// Snapshot takes the read lock.
func (ix *Index) Snapshot() Snapshot {
	ix.mu.RLock()
	return Snapshot{ix}
}

// Close releases the read lock.
func (s Snapshot) Close() { s.ix.mu.RUnlock() }

// NumDocs returns the number of indexed documents.
func (s Snapshot) NumDocs() int { return len(s.ix.docs) }

// Doc returns the document with the given ID, nil when there is none.
func (s Snapshot) Doc(id int) *Document {
	if id < 0 || id >= len(s.ix.docs) {
		return nil
	}
	return s.ix.docs[id]
}

// TokenCount returns the document's total token count, the DocCount
// statistic of query results; 0 for an id outside the collection.
func (s Snapshot) TokenCount(id int) int {
	if id < 0 || id >= len(s.ix.counts) {
		return 0
	}
	return s.ix.counts[id]
}

// SortKeyValue returns the document's pre-normalized sort key for a
// field: the value fieldSortValue-style comparators need, computed once
// at index time for the common sortable fields. An id outside the
// collection returns "" — sorting must never dereference a missing
// document.
func (s Snapshot) SortKeyValue(id int, f attr.Field) string {
	ix := s.ix
	if id < 0 || id >= len(ix.docs) {
		return ""
	}
	switch attr.Normalize(f) {
	case attr.FieldDateLastModified:
		return ix.keys[id].date
	case attr.FieldTitle:
		return ix.keys[id].title
	case attr.FieldAuthor:
		return ix.keys[id].author
	default:
		return strings.ToLower(ix.docs[id].FieldText(f))
	}
}

func (fi *fieldIndex) addDoc(id int, toks []text.Token, docLen int) {
	byTerm := map[string][]int{}
	for _, t := range toks {
		byTerm[t.Text] = append(byTerm[t.Text], t.Pos)
	}
	for term, positions := range byTerm {
		pl := fi.postings[term]
		if pl == nil {
			pl = &postingList{}
			fi.postings[term] = pl
			fi.addVocab(term)
		}
		sort.Ints(positions)
		pl.appendPosting(Posting{DocID: id, Positions: positions}, docLen)
		fi.totalLen += len(positions)
	}
}

// addVocab extends the auxiliary vocabularies for a new index term.
func (fi *fieldIndex) addVocab(term string) {
	st := text.Stem(term)
	fi.stems[st] = append(fi.stems[st], term)
	if sx := text.Soundex(term); sx != "" {
		fi.sounds[sx] = append(fi.sounds[sx], term)
	}
	fold := foldTerm(term)
	fi.folds[fold] = append(fi.folds[fold], term)
	fi.vocabOK = false
}

func foldTerm(s string) string {
	b := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		b = append(b, c)
	}
	return string(b)
}

// NumDocs returns the number of indexed documents.
func (ix *Index) NumDocs() int {
	s := ix.Snapshot()
	defer s.Close()
	return s.NumDocs()
}

// Doc returns the document with the given ID.
func (ix *Index) Doc(id int) (*Document, error) {
	s := ix.Snapshot()
	defer s.Close()
	if d := s.Doc(id); d != nil {
		return d, nil
	}
	return nil, fmt.Errorf("index: no document %d (collection has %d)", id, s.NumDocs())
}

// ByLinkage returns the document ID for a URL.
func (ix *Index) ByLinkage(url string) (int, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	id, ok := ix.byURL[url]
	return id, ok
}

// DocFreq returns the number of documents containing term in field (after
// the index's own normalization).
func (ix *Index) DocFreq(f attr.Field, term string) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	fi := ix.fields[attr.Normalize(f)]
	if fi == nil {
		return 0
	}
	return fi.postings[ix.analyzer.NormalizeTerm(term)].numDocs()
}

// VocabTerms calls fn for every (field, term) with its posting statistics:
// total postings and document frequency. Content summaries are built from
// this walk. Iteration order is sorted by field then term.
func (ix *Index) VocabTerms(fn func(f attr.Field, term string, postings, docFreq int)) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	fields := make([]attr.Field, 0, len(ix.fields))
	for f := range ix.fields {
		fields = append(fields, f)
	}
	sort.Slice(fields, func(i, j int) bool { return fields[i] < fields[j] })
	for _, f := range fields {
		fi := ix.fields[f]
		terms := make([]string, 0, len(fi.postings))
		for t := range fi.postings {
			terms = append(terms, t)
		}
		sort.Strings(terms)
		for _, t := range terms {
			pl := fi.postings[t]
			total := 0
			pl.iterate(func(p Posting) { total += p.Freq() })
			fn(f, t, total, pl.numDocs())
		}
	}
}

// sortedVocab returns the field's vocabulary, sorted, building it lazily.
// Callers hold the index's read lock; the build itself is serialized.
func (fi *fieldIndex) sortedVocab() []string {
	fi.vocabMu.Lock()
	defer fi.vocabMu.Unlock()
	if !fi.vocabOK {
		fi.vocab = fi.vocab[:0]
		for t := range fi.postings {
			fi.vocab = append(fi.vocab, t)
		}
		sort.Strings(fi.vocab)
		fi.vocabOK = true
	}
	return fi.vocab
}
