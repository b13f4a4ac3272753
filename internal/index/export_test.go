package index

// The heap tests (package index_test) measure what an index holds part by
// part, dropping each in turn.

// ReleaseLinkages drops the index's linkage → id map.
func ReleaseLinkages(ix *Index) { ix.byURL = nil }

// ReleaseDocuments drops the index's document storage: the records, the
// side table, the token counts and, once the linkage map is gone too, the
// text they hold.
func ReleaseDocuments(ix *Index) { ix.recs, ix.extras, ix.counts = nil, nil, nil }

// Postings returns the index's terms (one per field and term) and
// postings, walking its term maps: unlike Summary, it leaves nothing on the
// index for a heap reading to count.
func Postings(ix *Index) (terms, postings int) {
	for _, fi := range ix.fields {
		for _, r := range fi.terms {
			terms, postings = terms+1, postings+int(r.n)
		}
	}
	return terms, postings
}

// blocks returns the list's part of its arena's blocks, capped.
func (pl *postingList) blocks() []block {
	hi := pl.blk + uint32(numBlocks(int(pl.n)))
	return pl.a.blocks[pl.blk:hi:hi]
}

// posSpan returns where the list's positions lie in its arena's pos: from
// its first block's offset to the next list's, or the end.
func (pl *postingList) posSpan() (from, to int) {
	if pl.n == 0 {
		return 0, 0
	}
	from, to = int(pl.block(0).posOff), len(pl.a.pos)
	if next := int(pl.blk) + numBlocks(int(pl.n)); next < len(pl.a.blocks) {
		to = int(pl.a.blocks[next].posOff)
	}
	return from, to
}
