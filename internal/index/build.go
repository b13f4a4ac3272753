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

// errPositions is the failure of a term whose positions in one field
// would pass the 32-bit byte offsets of its posting list.
var errPositions = errors.New("positions would pass 2^32-1 bytes")

// chunkResult is one worker's analysis of a contiguous document range:
// per text field (aligned with TextFields), each term's postings in the
// range as a list without bounds — everything needed to merge
// deterministically, nothing shared.
type chunkResult struct {
	runs   []map[string]*postingList
	counts []int32
	err    error
}

// Build constructs an index over a document collection with parallel
// chunked analysis and a deterministic merge. Documents receive ids in
// slice order, exactly as sequential Add calls would assign them, and
// the merged posting lists are equal to a sequential build's, down to
// block boundaries and sidecar stats: chunks cover contiguous id ranges
// and are merged in range order, so postings stay ascending by doc id.
// Analysis and appending postings — about two thirds of indexing CPU —
// run on workers goroutines (default GOMAXPROCS), each keeping one memo of
// the spellings it has normalized and one token buffer per field, so it
// stems each distinct spelling once and allocates little per token; the
// merge after them runs on one. It fails where Add would: a duplicate
// linkage, or a collection that would overflow the postings' 32-bit ids
// and offsets. The index keeps its own copy of the documents, their text
// in one allocation.
func Build(a *text.Analyzer, docs []*Document, workers int) (*Index, error) {
	ix := New(a)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if len(docs) > math.MaxInt32 {
		return nil, fmt.Errorf("index: %d documents, more than 2^31-1", len(docs))
	}
	// Validate identities up front so workers never see a bad document
	// and duplicate linkage fails exactly like sequential Add; then copy
	// the documents in, in id order, so that the records come out as
	// sequential Adds make them.
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
			memo := map[string]string{}
			for ci := range next {
				lo := ci * chunkSize
				hi := lo + chunkSize
				if hi > len(docs) {
					hi = len(docs)
				}
				results[ci] = analyzeChunk(a, memo, ix.recs, lo, hi)
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
	// Deterministic merge: a term's runs, concatenated in chunk order —
	// ascending disjoint id ranges — are exactly the postings sequential
	// Add would have appended, so the bounds noted over them come out
	// identical to a sequential build's.
	for fi, f := range TextFields {
		runs := map[string][]*postingList{}
		for _, cr := range results {
			for term, r := range cr.runs[fi] {
				runs[term] = append(runs[term], r)
			}
		}
		if len(runs) == 0 {
			continue
		}
		fx := newFieldIndex(a)
		ix.fields[f] = fx
		for term, rs := range runs {
			pl, err := joinRuns(rs, ix.counts)
			if err != nil {
				return nil, fmt.Errorf("index: term %q in %s: %w", term, f, err)
			}
			fx.postings[term] = pl
			fx.addVocab(term)
		}
	}
	return ix, nil
}

// analyzeChunk tokenizes recs[lo:hi] into private posting runs; memo is
// the worker's own, kept across its chunks.
func analyzeChunk(a *text.Analyzer, memo map[string]string, recs []docRecord, lo, hi int) *chunkResult {
	cr := &chunkResult{runs: make([]map[string]*postingList, len(TextFields))}
	for i := range cr.runs {
		cr.runs[i] = map[string]*postingList{}
	}
	var dp docPostings
	toksByField := make([][]text.Token, len(TextFields))
	for id := lo; id < hi; id++ {
		total, err := analyzeDoc(a, memo, toksByField, &recs[id])
		if err != nil {
			cr.err = err
			return cr
		}
		for i, toks := range toksByField {
			dp.add(cr.runs[i], int32(id), toks, nil)
		}
		cr.counts = append(cr.counts, int32(total))
	}
	return cr
}

// docPostings appends documents' postings to posting lists, one document
// and field at a time, reusing its buffers from one to the next.
type docPostings struct {
	touched []*postingList // the lists the last add appended a posting to
	starts  []int          // where each one's new posting starts in its pos
	buf     []int32        // one posting's positions, being sorted
}

// add appends document id's tokens in one field to the posting lists of
// their terms — the id once per list, the positions in token order,
// sorted should the tokenizer not yield them ascending — creating the
// lists of terms not seen before (reported to newTerm, when set). The
// lists' bounds are the caller's to note.
func (dp *docPostings) add(lists map[string]*postingList, id int32, toks []text.Token, newTerm func(string)) {
	dp.touched, dp.starts = dp.touched[:0], dp.starts[:0]
	for _, t := range toks {
		pl := lists[t.Text]
		if pl == nil {
			pl = &postingList{}
			lists[t.Text] = pl
			if newTerm != nil {
				newTerm(t.Text)
			}
		}
		if n := len(pl.docs); n == 0 || pl.docs[n-1] != id {
			pl.docs = append(pl.docs, id)
			dp.touched = append(dp.touched, pl)
			dp.starts = append(dp.starts, len(pl.pos))
		}
		// Four bytes a position until the field's last token: a saturated
		// frequency heads the encoding, so nothing is encoded before the
		// count is known.
		pl.pos = binary.LittleEndian.AppendUint32(pl.pos, uint32(t.Pos))
	}
	for k, pl := range dp.touched {
		dp.buf = dp.buf[:0]
		for raw := pl.pos[dp.starts[k]:]; len(raw) > 0; raw = raw[4:] {
			dp.buf = append(dp.buf, int32(binary.LittleEndian.Uint32(raw)))
		}
		if !slices.IsSorted(dp.buf) {
			slices.Sort(dp.buf)
		}
		pl.pos = pl.pos[:dp.starts[k]]
		pl.appendPosting(dp.buf)
	}
}

// note notes the postings the last add appended in their lists' bounds;
// docLen is the document's token count.
func (dp *docPostings) note(docLen int32) {
	for k, pl := range dp.touched {
		pl.note(len(pl.docs)-1, dp.starts[k], docLen)
	}
}

// joinRuns concatenates one term's chunk runs, in id order, into one list
// whose arrays are each allocated once at their exact size, and notes its
// bounds and block offsets; lens are the documents' token counts.
// Positions count from their document's start, so the runs' bytes join
// unchanged.
func joinRuns(runs []*postingList, lens []int32) (*postingList, error) {
	nd, nb := 0, 0
	for _, r := range runs {
		nd, nb = nd+len(r.docs), nb+len(r.pos)
	}
	if nb > math.MaxUint32 {
		return nil, errPositions
	}
	pl := &postingList{
		docs:   make([]int32, 0, nd),
		freqs:  make([]uint8, 0, nd),
		pos:    make([]byte, 0, nb),
		blocks: make([]block, 0, (nd+blockSize-1)/blockSize),
	}
	for _, r := range runs {
		pl.docs = append(pl.docs, r.docs...)
		pl.freqs = append(pl.freqs, r.freqs...)
		pl.pos = append(pl.pos, r.pos...)
	}
	off := 0
	for i, d := range pl.docs {
		if i%blockSize == 0 && i > 0 {
			off = pl.skip(i-blockSize, off, i)
		}
		pl.note(i, off, lens[d])
	}
	return pl, nil
}
