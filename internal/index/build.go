package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"

	"starts/internal/text"
)

// errPositions is the failure of positions that would pass the 32-bit
// byte offsets of their arena.
var errPositions = errors.New("positions would pass 2^32-1 bytes")

// chunkResult is one worker's analysis of a contiguous document range:
// per text field (aligned with TextFields), each term's postings in the
// range as an arena without blocks — everything needed to merge
// deterministically, nothing shared.
type chunkResult struct {
	runs   []runs
	counts []int32
	err    error
}

// Build constructs an index over a document collection with parallel
// chunked analysis and a deterministic merge; it is the only way an index
// gets documents. Documents receive ids in slice order, and the merged
// posting lists are equal whatever the number of workers, down to block
// boundaries and sidecar stats: chunks cover contiguous id ranges and are
// merged in range order, so postings stay ascending by doc id.
// Analysis and appending postings — about two thirds of indexing CPU —
// run on workers goroutines (default GOMAXPROCS), each keeping per field a
// memo from spelling to run and a token buffer, so it stems each distinct
// spelling once, probes one map a token and allocates little per token;
// the merge after them runs on one. It fails on an invalid document, a
// duplicate linkage, a collection past the postings' 32-bit ids, a
// document of 2³¹ tokens or more, and where a field's positions, all its
// terms' together, would pass 2³²−1 bytes. The
// index keeps its own copy of the documents, their text in one allocation.
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
	for i, d := range docs {
		r, x := writeRecord(&b, d)
		if _, dup := ix.byURL[r.linkage()]; dup {
			return nil, fmt.Errorf("index: document %q already indexed", d.Linkage)
		}
		ix.byURL[r.linkage()] = i
		ix.addRecord(r, x)
	}

	chunkSize := (len(docs) + workers - 1) / workers
	if chunkSize < 1 {
		chunkSize = 1
	}
	nChunks := (len(docs) + chunkSize - 1) / chunkSize
	results := make([]*chunkResult, nChunks)

	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ci := range next {
				lo := ci * chunkSize
				hi := lo + chunkSize
				if hi > len(docs) {
					hi = len(docs)
				}
				results[ci] = analyzeChunk(a, ix.recs, lo, hi)
			}
		}()
	}
	for ci := 0; ci < nChunks; ci++ {
		next <- ci
	}
	close(next)
	wg.Wait()

	ix.counts = make([]int32, 0, len(docs))
	for _, cr := range results {
		if cr.err != nil {
			return nil, cr.err
		}
		ix.counts = append(ix.counts, cr.counts...)
	}
	for fi, f := range TextFields {
		byTerm := map[string][]*arena{}
		for _, cr := range results {
			for term, r := range cr.runs[fi] {
				byTerm[term] = append(byTerm[term], r)
			}
		}
		if len(byTerm) == 0 {
			continue
		}
		fx := newFieldIndex(a, len(byTerm))
		if err := fx.pack(byTerm, ix.counts); err != nil {
			return nil, fmt.Errorf("index: %s: %w", f, err)
		}
		ix.fields[f] = fx
	}
	return ix, nil
}

// analyzeChunk tokenizes recs[lo:hi] into private posting runs.
func analyzeChunk(a *text.Analyzer, recs []docRecord, lo, hi int) *chunkResult {
	cr := &chunkResult{runs: make([]runs, len(TextFields))}
	// A field's memo maps each spelling met so far straight to its term's
	// run, so a token costs one map probe; its keys are views of the
	// index's own text, which outlives them.
	arenas := make([]func(spelling string) *arena, len(TextFields))
	for i := range cr.runs {
		r, memo := runs{}, map[string]*arena{}
		cr.runs[i], arenas[i] = r, func(spelling string) *arena {
			m := memo[spelling]
			if m == nil {
				m = r.arena(a.NormalizeTerm(spelling))
				memo[spelling] = m
			}
			return m
		}
	}
	var dp docPostings
	toksByField := make([][]text.Token, len(TextFields))
	for id := lo; id < hi; id++ {
		total, err := analyzeDoc(a, toksByField, &recs[id])
		if err != nil {
			cr.err = err
			return cr
		}
		for i, toks := range toksByField {
			dp.add(int32(id), toks, arenas[i])
		}
		cr.counts = append(cr.counts, int32(total))
	}
	return cr
}

// runs are one chunk's postings in one field, an arena per term; arena
// makes a term's on its first token, keyed by a copy of the term, so the
// vocabulary does not keep the text it was read from.
type runs map[string]*arena

func (r runs) arena(term string) *arena {
	a := r[term]
	if a == nil {
		a = &arena{}
		r[strings.Clone(term)] = a
	}
	return a
}

// docPostings appends documents' postings to arenas of one term each, one
// document and field at a time, reusing its buffers from one to the next.
type docPostings struct {
	touched []*arena // the arenas the last add appended a posting to
	starts  []int    // where each one's new posting starts in its pos
	buf     []int32  // one posting's positions, being sorted
}

// add appends document id's tokens in one field to the arenas of their
// terms, which arena returns — the id once per arena, the positions in
// token order, sorted should the tokenizer not yield them ascending. The
// lists' bounds are noted when pack lays them out.
func (dp *docPostings) add(id int32, toks []text.Token, arena func(term string) *arena) {
	dp.touched, dp.starts = dp.touched[:0], dp.starts[:0]
	for _, t := range toks {
		a := arena(t.Text)
		if n := len(a.docs); n == 0 || a.docs[n-1] != id {
			a.docs = append(a.docs, id)
			dp.touched = append(dp.touched, a)
			dp.starts = append(dp.starts, len(a.pos))
		}
		// Four bytes a position until the field's last token: a saturated
		// frequency heads the encoding, so nothing is encoded before the
		// count is known.
		a.pos = binary.LittleEndian.AppendUint32(a.pos, uint32(t.Pos))
	}
	for k, a := range dp.touched {
		dp.buf = dp.buf[:0]
		for raw := a.pos[dp.starts[k]:]; len(raw) > 0; raw = raw[4:] {
			dp.buf = append(dp.buf, int32(binary.LittleEndian.Uint32(raw)))
		}
		if !slices.IsSorted(dp.buf) {
			slices.Sort(dp.buf)
		}
		a.pos = a.pos[:dp.starts[k]]
		a.appendPosting(dp.buf)
	}
}

// pack lays the terms' chunk runs out in the packed arena, term after
// term, every array allocated once at its exact size, and notes their
// bounds; lens are the documents' token counts. A term's runs in chunk
// order are exactly its postings in id order, so the bounds come out
// identical to a one-worker build's. Positions count
// from their document's start, so the runs' bytes join unchanged.
func (fi *fieldIndex) pack(byTerm map[string][]*arena, lens []int32) error {
	nd, np, nb, nf := 0, 0, 0, 0
	for _, rs := range byTerm {
		n := 0
		for _, r := range rs {
			n, np = n+len(r.docs), np+len(r.pos)
		}
		nd, nb = nd+n, nb+numBlocks(n)
		if n > blockSize {
			nf++
		}
	}
	if np > math.MaxUint32 {
		return errPositions
	}
	a := &fi.packed
	*a = arena{
		docs:   make([]int32, 0, nd),
		freqs:  make([]uint8, 0, nd),
		pos:    make([]byte, 0, np),
		blocks: make([]block, 0, nb),
		fronts: make([][listFrontierMax]tfLen, 0, nf),
	}
	for name, rs := range byTerm {
		pl := postingList{a: a, doc: uint32(len(a.docs)), blk: uint32(len(a.blocks))}
		off := len(a.pos)
		for _, r := range rs {
			a.docs = append(a.docs, r.docs...)
			a.freqs = append(a.freqs, r.freqs...)
			a.pos = append(a.pos, r.pos...)
		}
		for i := range len(a.docs) - int(pl.doc) {
			if i%blockSize == 0 && i > 0 {
				off = pl.skip(i-blockSize, off, i)
			}
			pl.note(i, off, lens)
		}
		fi.terms[name] = termRecord{doc: pl.doc, n: pl.n, blk: pl.blk, fr: pl.fr}
		fi.addVocab(name)
	}
	return nil
}
