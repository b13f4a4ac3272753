package index

// The heap tests (package index_test) measure what an index holds part by
// part, dropping each in turn.

// ReleaseLinkages drops the index's linkage → id map.
func ReleaseLinkages(ix *Index) { ix.byURL = nil }

// ReleaseDocuments drops the index's document storage: the records, the
// side table, the token counts and, once the linkage map is gone too, the
// text they hold.
func ReleaseDocuments(ix *Index) { ix.recs, ix.extras, ix.counts = nil, nil, nil }
