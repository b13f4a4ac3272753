package index

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"starts/internal/attr"
	"starts/internal/text"
)

// fieldIndex holds the postings and auxiliary vocabularies of one field.
type fieldIndex struct {
	terms  map[string]termRecord
	packed arena    // the postings Build packed
	own    []*arena // the arenas of the terms Add created or extended
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
	// vocab is the sorted vocabulary, built lazily for truncation scans.
	// vocabMu guards the lazy build, which happens under the index's read
	// lock (concurrent readers may race to build it).
	vocabMu sync.Mutex
	vocab   []string
	vocabOK bool
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
// query time.
type Index struct {
	mu       sync.RWMutex
	analyzer *text.Analyzer
	recs     []docRecord // the documents, by id
	extras   []docExtra  // what few documents carry beyond their records
	byURL    map[string]int
	fields   map[attr.Field]*fieldIndex
	counts   []int32 // per-doc token counts under this tokenizer
	// numTagged counts documents carrying explicit language tags; when
	// zero, language filtering is a no-op the ranked fast path skips.
	numTagged int
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

// Add indexes a document and returns its document ID. Adding a document
// with the linkage of an existing document replaces nothing and fails:
// documents are immutable once indexed. The index keeps a copy of the
// document, not the document itself. Postings hold 32-bit ids and
// offsets, so a document that would overflow them fails too, before
// anything changes: the 2³¹th document, one of 2³¹ tokens or more, or one
// that could take a term's positions in a field past 2³²−1 bytes (a term
// Add extends has its own arena, so Build's limit on a field holds).
func (ix *Index) Add(d *Document) (int, error) {
	if err := d.Validate(); err != nil {
		return 0, err
	}
	// Copy the document into the index's storage, then analyze every field
	// of the copy before inserting postings so the document's total token
	// count — the length-normalization bound of the sidecar block stats —
	// is known when each posting is noted in its block.
	var b strings.Builder
	b.Grow(textLen(d))
	r, x := writeRecord(&b, d)
	toksByField := make([][]text.Token, len(TextFields))
	total, err := analyzeDoc(ix.analyzer, toksByField, &r)
	if err != nil {
		return 0, err
	}
	for _, toks := range toksByField {
		for j := range toks {
			toks[j].Text = ix.analyzer.NormalizeTerm(toks[j].Text)
		}
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, dup := ix.byURL[d.Linkage]; dup {
		return 0, fmt.Errorf("index: document %q already indexed", d.Linkage)
	}
	if len(ix.recs) == math.MaxInt32 {
		return 0, fmt.Errorf("index: collection holds 2^31-1 documents, the most it can")
	}
	for i, f := range TextFields {
		if fi := ix.fields[f]; fi != nil {
			// A posting takes at most a widest uvarint for its frequency and
			// for each position: the field's tokens bound its positions.
			most := binary.MaxVarintLen32 * (len(toksByField[i]) + 1)
			for _, t := range toksByField[i] {
				pl, _ := fi.lookup(t.Text)
				if from, to := pl.posSpan(); to-from > math.MaxUint32-most {
					return 0, fmt.Errorf("index: term %q in %s: %w", t.Text, f, errPositions)
				}
			}
		}
	}
	id := len(ix.recs)
	ix.addRecord(r, x)
	ix.byURL[r.linkage()] = id
	ix.counts = append(ix.counts, int32(total))
	var dp docPostings
	for i, f := range TextFields {
		if len(toksByField[i]) == 0 {
			continue
		}
		fi := ix.fields[f]
		if fi == nil {
			fi = newFieldIndex(ix.analyzer, 0)
			ix.fields[f] = fi
		}
		dp.add(int32(id), toksByField[i], fi.extend)
		dp.note(ix.counts)
	}
	return id, nil
}

// analyzeDoc tokenizes every indexed field of one stored document into
// toks, one slice per field (aligned with TextFields) refilled from its
// start, and returns the total token count; it needs no index lock.
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
func (s Snapshot) NumDocs() int { return len(s.ix.recs) }

// has reports whether the document exists. The accessors below read one
// that does not as empty: sorting must not fail on an id with no document
// behind it.
func (s Snapshot) has(id int) bool { return id >= 0 && id < len(s.ix.recs) }

// TokenCount returns the document's total token count, the DocCount
// statistic of query results; 0 for an id outside the collection.
func (s Snapshot) TokenCount(id int) int {
	if !s.has(id) {
		return 0
	}
	return int(s.ix.counts[id])
}

// FieldText returns the document's text for one field, as
// Document.FieldText does; "" for an id outside the collection.
func (s Snapshot) FieldText(id int, f attr.Field) string {
	if !s.has(id) {
		return ""
	}
	return s.ix.fieldText(id, f)
}

// CompareDates orders two documents by the UTC day of their dates, one
// without a date first.
func (s Snapshot) CompareDates(a, b int) int {
	day := func(id int) int64 {
		if !s.has(id) || s.ix.recs[id].date == noDate {
			return math.MinInt64
		}
		return unixDay(s.ix.recs[id].date)
	}
	return cmp.Compare(day(a), day(b))
}

// SizeKB returns the document's size in KBytes, as Document.SizeKB does;
// 0 for an id outside the collection.
func (s Snapshot) SizeKB(id int) int {
	if !s.has(id) {
		return 0
	}
	return s.ix.sizeKB(id)
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
	fi.vocabOK = false
}

// NumDocs returns the number of indexed documents.
func (ix *Index) NumDocs() int {
	s := ix.Snapshot()
	defer s.Close()
	return s.NumDocs()
}

// Doc returns the document with the given ID, rebuilt from what the index
// stores: equal to the one indexed (its date in UTC), its strings views of
// the index's text.
func (ix *Index) Doc(id int) (*Document, error) {
	s := ix.Snapshot()
	defer s.Close()
	if !s.has(id) {
		return nil, fmt.Errorf("index: no document %d (collection has %d)", id, s.NumDocs())
	}
	return ix.document(id), nil
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
	pl, _ := fi.lookup(ix.analyzer.NormalizeTerm(term))
	return pl.numDocs()
}

// VocabTerms calls fn for every (field, term) with its posting statistics:
// total postings (the term's occurrences, its frequencies summed) and
// document frequency. Content summaries are built from
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
		terms := make([]string, 0, len(fi.terms))
		for t := range fi.terms {
			terms = append(terms, t)
		}
		sort.Strings(terms)
		for _, t := range terms {
			pl, _ := fi.lookup(t)
			fn(f, t, pl.occurrences(), pl.numDocs())
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
		for t := range fi.terms {
			fi.vocab = append(fi.vocab, t)
		}
		sort.Strings(fi.vocab)
		fi.vocabOK = true
	}
	return fi.vocab
}

// termRecord is a term's postingList in the packed arena, or, once Add
// has given it an arena of its own, 1 + that arena's index in own.
type termRecord struct{ doc, n, blk, fr, own uint32 }

// lookup returns the view of a term's postings; false, and no postings,
// for a term the field does not hold.
func (fi *fieldIndex) lookup(name string) (postingList, bool) {
	t, ok := fi.terms[name]
	if t.own != 0 {
		return fi.own[t.own-1].list(), true
	}
	return postingList{a: &fi.packed, doc: t.doc, n: t.n, blk: t.blk, fr: t.fr}, ok
}

// list returns the view of an arena of one term.
func (a *arena) list() postingList {
	return postingList{a: a, n: uint32(len(a.docs)), fr: uint32(len(a.fronts))}
}

// extend returns the arena of its own a term's next posting goes to: a
// new one for a new term, and for a packed term a copy of its postings
// with room to double, as append moves a full slice.
func (fi *fieldIndex) extend(name string) *arena {
	pl, ok := fi.lookup(name)
	if ok && pl.a != &fi.packed {
		return pl.a
	}
	a := &arena{}
	if ok {
		from, to := pl.posSpan()
		a.docs = append(make([]int32, 0, 2*pl.n), pl.docs()...)
		a.freqs = append(make([]uint8, 0, 2*pl.n), pl.freqs()...)
		a.pos = append(make([]byte, 0, 2*(to-from)), fi.packed.pos[from:to]...)
		a.blocks = append(a.blocks, pl.blocks()...)
		for i := range a.blocks {
			a.blocks[i].posOff -= uint32(from)
		}
		if pl.fr != 0 {
			a.fronts = append(a.fronts, fi.packed.fronts[pl.fr-1])
		}
	} else {
		fi.addVocab(name)
	}
	fi.own = append(fi.own, a)
	fi.terms[name] = termRecord{own: uint32(len(fi.own))}
	return a
}
