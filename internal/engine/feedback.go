package engine

import (
	"sort"
	"strings"

	"starts/internal/attr"
	"starts/internal/index"
	"starts/internal/lang"
	"starts/internal/query"
)

// FeedbackTerms is the number of distinctive words a Document-text term
// expands into for relevance feedback.
const FeedbackTerms = 10

// expandDocumentText implements the Basic-1 Document-text field: the query
// passes an entire document as a term, asking for similar documents
// (relevance feedback, §4.1.1). The engine extracts the FeedbackTerms most
// distinctive words of the passed text — by term frequency in the text
// times inverse document frequency in ix, the collection the search reads
// — and substitutes a weighted list of body-of-text terms, which then
// ranks documents by similarity to the passed document. The expansion appears in the actual
// query the source echoes, so metasearchers see exactly what ran.
func (e *Engine) expandDocumentText(ix *index.Index, t query.Term, opts index.LookupOptions) query.Expr {
	toks := e.cfg.Analyzer.Analyze(t.Value.Text)
	if opts.DropStopWords {
		kept := toks[:0]
		for _, tok := range toks {
			if !e.cfg.Analyzer.Stop.Contains(tok.Text) {
				kept = append(kept, tok)
			}
		}
		toks = kept
	}
	if len(toks) == 0 {
		return nil
	}
	tf := map[string]int{}
	for _, tok := range toks {
		tf[tok.Text]++
	}
	type cand struct {
		word  string
		score float64
	}
	n := ix.NumDocs()
	var cands []cand
	for w, f := range tf {
		df := ix.DocFreq(attr.FieldBodyOfText, w)
		if df == 0 {
			continue // words absent from the collection cannot match
		}
		idf := 1 + float64(n)/float64(df)
		cands = append(cands, cand{word: w, score: float64(f) * idf})
	}
	if len(cands) == 0 {
		return nil
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].word < cands[j].word
	})
	if len(cands) > FeedbackTerms {
		cands = cands[:FeedbackTerms]
	}
	l := &query.List{}
	maxScore := cands[0].score
	for _, c := range cands {
		l.Items = append(l.Items, &query.TermExpr{Term: query.Term{
			Field:  attr.FieldBodyOfText,
			Value:  lang.L(c.word),
			Weight: roundWeight(c.score / maxScore),
		}})
	}
	return l
}

// roundWeight keeps feedback weights in (0,1] with two decimals so the
// actual-query echo stays readable.
func roundWeight(w float64) float64 {
	r := float64(int(w*100+0.5)) / 100
	if r <= 0 {
		return 0.01
	}
	if r > 1 {
		return 1
	}
	return r
}

// SubstringNative is a demonstration native-query handler for the
// Free-form-text field: it treats the native query as a case-insensitive
// substring to grep document bodies and titles for — standing in for a
// vendor's richer proprietary query language.
func SubstringNative(native string, ix *index.Index) (map[int]bool, error) {
	out := map[int]bool{}
	needle := strings.ToLower(strings.TrimSpace(native))
	if needle == "" {
		return out, nil
	}
	for id := 0; id < ix.NumDocs(); id++ {
		d, err := ix.Doc(id)
		if err != nil {
			return nil, err
		}
		if strings.Contains(strings.ToLower(d.Body), needle) ||
			strings.Contains(strings.ToLower(d.Title), needle) {
			out[id] = true
		}
	}
	return out, nil
}
