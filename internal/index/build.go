package index

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"

	"starts/internal/text"
)

// errPositions is the failure of positions that would pass the 32-bit
// byte offsets of their arena.
var errPositions = errors.New("positions would pass 2^32-1 bytes")

// Build constructs an index over a document collection; it is the only
// way an index gets documents. Documents receive ids in slice order, and
// the posting lists are equal whatever the number of workers (default
// GOMAXPROCS), down to block boundaries and sidecar stats. Every posting
// is written once, at its final place: a worker per chunk of contiguous
// ids tokenizes it (one map probe a token, each distinct spelling
// normalized once) and counting-sorts its tokens by term; one goroutine
// gives every term its offsets and allocates each field's arrays at their
// exact size; the chunks encode their postings into them, in chunk order
// within a term, and workers note the blocks' bounds. It fails on an
// invalid document, a duplicate linkage, a collection past the postings'
// 32-bit ids, a document of 2³¹ tokens or more, and where a field's
// positions, all its terms' together, would pass 2³²−1 bytes. The index
// keeps its own copy of the documents, their text in one allocation.
func Build(a *text.Analyzer, docs []*Document, workers int) (*Index, error) {
	ix := New(a)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if len(docs) > math.MaxInt32 {
		return nil, fmt.Errorf("index: %d documents, more than 2^31-1", len(docs))
	}
	// Validate identities up front so workers never see a bad document;
	// then copy the documents in, in id order.
	size := 0
	for _, d := range docs {
		if err := d.Validate(); err != nil {
			return nil, err
		}
		size += textLen(d)
	}
	var b strings.Builder
	b.Grow(size)
	ix.recs = make([]docRecord, 0, len(docs))
	ix.byURL = make(map[string]int, len(docs))
	for i, d := range docs {
		r, x := writeRecord(&b, d)
		if _, dup := ix.byURL[r.linkage()]; dup {
			return nil, fmt.Errorf("index: document %q already indexed", d.Linkage)
		}
		ix.byURL[r.linkage()] = i
		ix.addRecord(r, x)
	}

	chunkSize := max((len(docs)+workers-1)/workers, 1)
	nChunks := (len(docs) + chunkSize - 1) / chunkSize
	chunks, errs := make([][]chunkField, nChunks), make([]error, nChunks)
	ix.counts = make([]int32, len(docs))
	parallel(nChunks, func(ci int) {
		chunks[ci], errs[ci] = analyzeChunk(a, ix, ci*chunkSize, min((ci+1)*chunkSize, len(docs)))
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var layouts []*layout
	for fi, f := range TextFields {
		l, err := layOut(a, chunks, fi)
		if err != nil {
			return nil, fmt.Errorf("index: %s: %w", f, err)
		}
		if l != nil {
			ix.fields[f] = l.fx
			layouts = append(layouts, l)
		}
	}
	// One more goroutine fills the term maps and vocabulary side tables
	// while the chunks encode.
	parallel(nChunks+1, func(ci int) {
		for _, l := range layouts {
			if ci < nChunks {
				chunks[ci][l.field].encode(l)
				continue
			}
			for g, name := range l.names {
				l.fx.terms[name] = l.recs[g]
				l.fx.addVocab(name)
			}
		}
	})
	parallel(nChunks, func(w int) {
		for _, l := range layouts {
			l.note(w, nChunks, ix.counts)
		}
	})
	return ix, nil
}

// parallel runs fn(0) to fn(n-1), each on a goroutine of its own, and
// returns when all have.
func parallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}

// chunkField is one field's tokens of a chunk. Analysis appends each to
// toks, and ends[k] is where document lo+k's tokens end; memo maps each
// spelling met so far straight to its term's id in the chunk, one map
// probe a token, its keys views of the index's own text, and ids maps the
// term, a copy, to the id. invert sorts the tokens by term: term t, terms[t],
// holds tokens from[t] to from[t+1]-1 of docs and pos, by document, then
// in token order but each document's positions ascending; postings[t]
// and bytes[t] count its postings and their encoded position bytes.
// layOut turns these into where they start in the term's whole list, and
// notes the term's id in the field in field[t].
type chunkField struct {
	toks      []termPos
	ends      []int
	memo, ids map[string]uint32
	terms     []string
	from      []int
	docs, pos []int32
	postings  []uint32
	bytes     []int
	field     []uint32
}

// termPos is one token: its term's id in the chunk, and its position.
type termPos struct {
	term uint32
	pos  int32
}

// analyzeChunk tokenizes documents lo to hi-1, notes their token counts
// and sorts each field's tokens by term: one chunkField a text field,
// aligned with TextFields.
func analyzeChunk(a *text.Analyzer, ix *Index, lo, hi int) ([]chunkField, error) {
	cfs, recs := make([]chunkField, len(TextFields)), ix.recs
	for i, f := range TextFields {
		// One token to every 4 bytes of text: a word and its separator take
		// that much or more in every collection measured, so the stream
		// grows only where words are shorter. The strict bound, one token
		// to 2 bytes, zeroes five times what a big-source chunk needs.
		size := 0
		for id := lo; id < hi; id++ {
			size += len(recs[id].field(f)) / 4
		}
		cfs[i] = chunkField{toks: make([]termPos, 0, size), ends: make([]int, 0, hi-lo), memo: map[string]uint32{}, ids: map[string]uint32{}}
	}
	toksByField := make([][]text.Token, len(TextFields))
	for id := lo; id < hi; id++ {
		total, err := analyzeDoc(a, toksByField, &recs[id])
		if err != nil {
			return nil, err
		}
		for i, toks := range toksByField {
			cf := &cfs[i]
			for _, tok := range toks {
				t, ok := cf.memo[tok.Text]
				if !ok {
					name := a.NormalizeTerm(tok.Text)
					if t, ok = cf.ids[name]; !ok {
						t, name = uint32(len(cf.terms)), strings.Clone(name)
						cf.terms, cf.ids[name] = append(cf.terms, name), t
					}
					cf.memo[tok.Text] = t
				}
				cf.toks = append(cf.toks, termPos{t, int32(tok.Pos)})
			}
			cf.ends = append(cf.ends, len(cf.toks))
		}
		ix.counts[id] = int32(total)
	}
	for i, f := range TextFields {
		if len(cfs[i].terms) > math.MaxUint32 { // ids would wrap
			return nil, fmt.Errorf("index: %s: %w", f, errPositions)
		}
		cfs[i].invert(lo)
	}
	return cfs, nil
}

// invert counting-sorts the field's tokens by term into docs and pos,
// stably, so each term's stay in document and token order, and drops the
// stream and the memo; then it sorts each posting's positions, should the
// tokenizer not yield them ascending, and sizes every term's postings.
func (cf *chunkField) invert(lo int) {
	nt := len(cf.terms)
	cf.from = make([]int, nt+1)
	for _, tp := range cf.toks {
		cf.from[tp.term+1]++
	}
	for t := range nt {
		cf.from[t+1] += cf.from[t]
	}
	next := slices.Clone(cf.from[:nt])
	cf.docs, cf.pos = make([]int32, len(cf.toks)), make([]int32, len(cf.toks))
	k := 0
	for d, end := range cf.ends {
		for ; k < end; k++ {
			tp := cf.toks[k]
			cf.docs[next[tp.term]], cf.pos[next[tp.term]] = int32(lo+d), tp.pos
			next[tp.term]++
		}
	}
	cf.toks, cf.ends, cf.memo, cf.ids = nil, nil, nil, nil
	cf.postings, cf.bytes, cf.field = make([]uint32, nt), make([]int, nt), make([]uint32, nt)
	for t := range nt {
		for k, end := cf.from[t], cf.from[t+1]; k < end; {
			p := cf.posting(k, end)
			if pos := cf.pos[k:p]; !slices.IsSorted(pos) {
				slices.Sort(pos)
			}
			cf.postings[t], cf.bytes[t], k = cf.postings[t]+1, cf.bytes[t]+postingBytes(cf.pos[k:p]), p
		}
	}
}

// posting returns the end of the posting whose tokens start at k, below
// end: the next token of another document.
func (cf *chunkField) posting(k, end int) int {
	p := k + 1
	for p < end && cf.docs[p] == cf.docs[k] {
		p++
	}
	return p
}

// layout is one field's terms as Build lays them out in its arena: by id,
// which numbers them in order of first occurrence in the collection, each
// one's name, list record and where its positions start in the arena's
// pos.
type layout struct {
	field int // the field's index in TextFields
	fx    *fieldIndex
	names []string
	recs  []termRecord
	pos   []int
}

// layOut merges the chunks' vocabularies of field fi, gives every term its
// offsets and allocates the field's arena at its exact size; nil for a
// field no document has a token in.
func layOut(a *text.Analyzer, chunks [][]chunkField, fi int) (*layout, error) {
	l, ids := &layout{field: fi}, map[string]uint32{}
	for _, c := range chunks {
		cf := &c[fi]
		for t, name := range cf.terms {
			g, ok := ids[name]
			if !ok {
				g = uint32(len(l.names))
				ids[name] = g
				l.names = append(l.names, name)
				l.recs = append(l.recs, termRecord{})
				l.pos = append(l.pos, 0)
			}
			// The term's totals so far are where the chunk's postings start.
			cf.field[t] = g
			cf.postings[t], l.recs[g].n = l.recs[g].n, l.recs[g].n+cf.postings[t]
			cf.bytes[t], l.pos[g] = l.pos[g], l.pos[g]+cf.bytes[t]
		}
	}
	if len(l.names) == 0 {
		return nil, nil
	}
	nd, np, nb, nf := 0, 0, 0, 0
	for g := range l.recs {
		r := &l.recs[g]
		r.doc, r.blk = uint32(nd), uint32(nb)
		if r.n > blockSize {
			nf++
			r.fr = uint32(nf)
		}
		nd, nb = nd+int(r.n), nb+numBlocks(int(r.n))
		l.pos[g], np = np, np+l.pos[g]
		// Every posting holds a position byte, so the bound on np bounds
		// the uint32 offsets of docs and blocks too.
		if np > math.MaxUint32 {
			return nil, errPositions
		}
	}
	l.fx = newFieldIndex(a, len(l.names))
	l.fx.packed = arena{
		docs:   make([]int32, nd),
		freqs:  make([]uint8, nd),
		pos:    make([]byte, np),
		blocks: make([]block, nb),
		fronts: make([][listFrontierMax]tfLen, nf),
	}
	return l, nil
}

// encode writes the chunk's postings in the field into the arena, each
// term's where layOut placed them, and the offset of every block that
// starts among them.
func (cf *chunkField) encode(l *layout) {
	a := &l.fx.packed
	for t, g := range cf.field {
		r, i := l.recs[g], int(cf.postings[t]) // i: the list's posting the chunk's first is
		off := l.pos[g] + cf.bytes[t]
		w := arena{freqs: a.freqs[int(r.doc)+i : int(r.doc)+i], pos: a.pos[off:off]}
		for k, end := cf.from[t], cf.from[t+1]; k < end; i++ {
			p := cf.posting(k, end)
			a.docs[int(r.doc)+i] = cf.docs[k]
			if i%blockSize == 0 {
				a.blocks[int(r.blk)+i/blockSize].posOff = uint32(off + len(w.pos))
			}
			w.appendPosting(cf.pos[k:p])
			k = p
		}
	}
}

// note notes the blocks and frontiers of the w-th of n ranges of the
// field's terms, ranges that hold about as many postings each; lens are
// the documents' token counts.
func (l *layout) note(w, n int, lens []int32) {
	nd := len(l.fx.packed.docs)
	start := func(w int) int {
		return sort.Search(len(l.recs), func(g int) bool { return int(l.recs[g].doc) >= w*nd/n })
	}
	for g, end := start(w), start(w+1); g < end; g++ {
		r := l.recs[g]
		(&postingList{a: &l.fx.packed, doc: r.doc, n: r.n, blk: r.blk, fr: r.fr}).note(lens)
	}
}
