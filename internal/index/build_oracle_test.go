package index

// This file keeps the build the single-pass one replaced — each chunk
// appending every term's postings to an arena of the term's own, one
// goroutine copying the runs into the field's arena term by term and
// noting each block as it opens — as the oracle FuzzPostingsMatchOracle
// holds Build's lists to.

import (
	"encoding/binary"
	"math"
	"slices"
	"strings"

	"starts/internal/text"
)

// runs are one chunk's postings in one field, an arena per term; arena
// makes a term's on its first token, keyed by a copy of the term.
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
// token order, sorted should the tokenizer not yield them ascending.
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

// oraclePack lays the terms' chunk runs out in the field's arena, term
// after term, every array allocated once at its exact size, and notes
// their bounds; lens are the documents' token counts. A term's runs in
// chunk order are exactly its postings in id order.
func (fi *fieldIndex) oraclePack(byTerm map[string][]*arena, lens []int32) error {
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
			pl.oracleNote(i, off, lens)
		}
		fi.terms[name] = termRecord{doc: pl.doc, n: pl.n, blk: pl.blk, fr: pl.fr}
		fi.addVocab(name)
	}
	return nil
}

// oracleNote folds posting i, already in the arena's docs and freqs, into
// its block's frontier and the list's, appending the block at its first
// posting, whose positions start at byte off of pos. The list must be its
// arena's last. When a second block opens, the list frontier starts from
// the first block's postings.
func (pl *postingList) oracleNote(i, off int, lens []int32) {
	pl.n = uint32(i + 1)
	if i%blockSize == 0 {
		pl.a.blocks = append(pl.a.blocks, block{posOff: uint32(off)})
	}
	if i == blockSize {
		pl.a.fronts = append(pl.a.fronts, [listFrontierMax]tfLen{})
		pl.fr = uint32(len(pl.a.fronts))
		for k := range blockSize {
			pushFrontier(pl.frontier(), pl.pair(k, lens))
		}
	}
	b, e := pl.block(i/blockSize), pl.pair(i, lens)
	b.maxDoc = pl.docs()[i]
	pushFrontier(b.frontier[:], e)
	if pl.fr != 0 {
		pushFrontier(pl.frontier(), e)
	}
}
