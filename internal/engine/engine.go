package engine

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"starts/internal/attr"
	"starts/internal/index"
	"starts/internal/meta"
	"starts/internal/query"
	"starts/internal/result"
	"starts/internal/text"
	"starts/internal/topk"
)

// Config is an engine's capability profile: which query-language parts,
// fields and modifiers it supports, its linguistics, and its (nominally
// secret) ranking algorithm. Everything here surfaces in the source's
// exported metadata, which is exactly what a metasearcher needs to use the
// engine well.
type Config struct {
	// Analyzer fixes the engine's tokenizer, case policy and stemming.
	Analyzer *text.Analyzer
	// QueryParts says whether filter and/or ranking expressions are
	// accepted; the other kind is silently ignored, per Example 7.
	QueryParts meta.QueryParts
	// Fields lists the optional fields supported beyond the required
	// ones.
	Fields []attr.Field
	// Mods lists the supported modifiers.
	Mods []attr.Modifier
	// IllegalCombos lists field-modifier pairs that are NOT legal even
	// though field and modifier are individually supported (e.g. stemming
	// author names). All other supported pairs are legal.
	IllegalCombos map[attr.Field][]attr.Modifier
	// TurnOffStopWords says whether queries may disable stop-word
	// elimination; when false, stop words are always dropped.
	TurnOffStopWords bool
	// Scorer is the ranking algorithm.
	Scorer Scorer
	// Thesaurus backs the thesaurus modifier, when supported.
	Thesaurus *text.Thesaurus
	// Native, when set, evaluates free-form-text terms: queries written
	// in the engine's own (non-STARTS) query language, the escape hatch
	// the Free-form-text field provides. It receives the native query
	// string and the engine's index and returns the matching documents.
	Native func(native string, ix *index.Index) (map[int]bool, error)
	// Exhaustive evaluates every query with the oracle (exhaustive.go):
	// match sets and per-term maps over whole posting lists, every match
	// scored. It returns exactly what the cursors return; the equivalence
	// tests and the benchmark's reference fleet set it, nothing else does.
	Exhaustive bool
}

// NewVectorConfig returns the default full-featured profile: both query
// parts, every Basic-1 optional text field, the common modifiers, TFIDF
// scoring.
func NewVectorConfig() Config {
	return Config{
		Analyzer:   text.NewAnalyzer(),
		QueryParts: meta.PartsBoth,
		Fields: []attr.Field{
			attr.FieldAuthor, attr.FieldBodyOfText, attr.FieldDocumentText,
			attr.FieldLinkageType, attr.FieldCrossReferenceLinkage, attr.FieldLanguages,
		},
		Mods: []attr.Modifier{
			attr.ModLT, attr.ModLE, attr.ModEQ, attr.ModGE, attr.ModGT, attr.ModNE,
			attr.ModStem, attr.ModPhonetic, attr.ModRightTruncation, attr.ModLeftTruncation,
		},
		TurnOffStopWords: true,
		Scorer:           TFIDF{},
	}
}

// NewBooleanConfig returns a Glimpse-like profile: filter expressions
// only, a reduced modifier set, no way to keep stop words.
func NewBooleanConfig() Config {
	tok, _ := text.LookupTokenizer("Acme-2")
	return Config{
		Analyzer:   &text.Analyzer{Tokenizer: tok, Stop: text.MinimalStopWords(), Stemming: false},
		QueryParts: meta.PartsFilter,
		Fields:     []attr.Field{attr.FieldAuthor, attr.FieldBodyOfText},
		Mods: []attr.Modifier{
			attr.ModLT, attr.ModLE, attr.ModEQ, attr.ModGE, attr.ModGT, attr.ModNE,
			attr.ModStem, attr.ModRightTruncation,
		},
		TurnOffStopWords: false,
		Scorer:           RawTF{},
	}
}

// Engine executes STARTS queries over an index under a capability profile.
type Engine struct {
	cfg Config
	ix  *index.Index
}

// New returns an engine over a fresh index built with the config's
// analyzer.
func New(cfg Config) (*Engine, error) {
	if cfg.Analyzer == nil {
		return nil, fmt.Errorf("engine: config has no analyzer")
	}
	if cfg.Scorer == nil {
		return nil, fmt.Errorf("engine: config has no scorer")
	}
	if cfg.QueryParts == "" {
		return nil, fmt.Errorf("engine: config has no query parts")
	}
	return &Engine{cfg: cfg, ix: index.New(cfg.Analyzer)}, nil
}

// NewWithDocs returns an engine over an index built from docs with
// parallel chunked construction (workers <= 0 means GOMAXPROCS). The
// index is identical to one built by sequential Add calls.
func NewWithDocs(cfg Config, docs []*index.Document, workers int) (*Engine, error) {
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	ix, err := index.Build(cfg.Analyzer, docs, workers)
	if err != nil {
		return nil, err
	}
	e.ix = ix
	return e, nil
}

// Config returns the engine's capability profile.
func (e *Engine) Config() Config { return e.cfg }

// Index returns the engine's index, for loading documents.
func (e *Engine) Index() *index.Index { return e.ix }

// Add indexes a document.
func (e *Engine) Add(d *index.Document) error {
	_, err := e.ix.Add(d)
	return err
}

// SupportsField reports whether the engine recognizes a field (required
// fields always).
func (e *Engine) SupportsField(f attr.Field) bool {
	f = attr.Normalize(f)
	if f.IsRequired() {
		return true
	}
	if f == attr.FieldFreeFormText {
		return e.cfg.Native != nil
	}
	for _, sf := range e.cfg.Fields {
		if attr.Normalize(sf) == f {
			return true
		}
	}
	return false
}

// SupportsModifier reports whether the engine supports a modifier.
func (e *Engine) SupportsModifier(m attr.Modifier) bool {
	if m == attr.ModThesaurus {
		return e.cfg.Thesaurus != nil
	}
	if m == attr.ModCaseSensitive {
		// Only a case-preserving index can honor case-sensitive matching.
		if !e.cfg.Analyzer.CaseSensitive {
			return false
		}
	}
	for _, sm := range e.cfg.Mods {
		if sm == m {
			return true
		}
	}
	return m == attr.ModCaseSensitive && e.cfg.Analyzer.CaseSensitive
}

// AllowsCombination reports whether applying the modifier to the field is
// legal at this engine.
func (e *Engine) AllowsCombination(f attr.Field, m attr.Modifier) bool {
	if !e.SupportsField(f) || !e.SupportsModifier(m) {
		return false
	}
	for _, bad := range e.cfg.IllegalCombos[attr.Normalize(f)] {
		if bad == m {
			return false
		}
	}
	// Comparisons only make sense on the date field.
	if m.IsComparison() && m != attr.ModEQ {
		return attr.Normalize(f) == attr.FieldDateLastModified
	}
	return true
}

// Search executes a query: it rewrites the query down to what the engine
// supports (the "actual query"), evaluates the filter, scores the ranking
// expression, and assembles the STARTS result with term statistics. It
// never fails on unsupported query features — those are ignored, per the
// protocol — only on malformed input (e.g. an unparsable date).
func (e *Engine) Search(q *query.Query) (*result.Results, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	dropStop := q.DropStopWords || !e.cfg.TurnOffStopWords
	opts := index.LookupOptions{
		DropStopWords: dropStop,
		Stop:          e.cfg.Analyzer.Stop,
		DefaultLang:   q.DefaultLanguage,
		Thesaurus:     e.cfg.Thesaurus,
	}

	// Interpret term fields in the query's default attribute set (e.g.
	// dc-1 "creator" resolves to the Basic-1 "author" this engine knows).
	actualFilter, actualRanking := q.ResolveAttributeSet()
	if !e.cfg.QueryParts.SupportsFilter() {
		actualFilter = nil
	} else {
		actualFilter = e.rewrite(actualFilter, opts, false)
	}
	if !e.cfg.QueryParts.SupportsRanking() {
		actualRanking = nil
	} else {
		actualRanking = e.rewrite(actualRanking, opts, true)
	}

	res := &result.Results{ActualFilter: actualFilter, ActualRanking: actualRanking}

	// When nothing of the query survives (every term unsupported or
	// eliminated), there is nothing to evaluate: the result is empty and
	// the empty actual query tells the metasearcher why.
	if actualFilter == nil && actualRanking == nil {
		return res, nil
	}
	if err := e.resolveNative(&opts, actualFilter, actualRanking); err != nil {
		return nil, err
	}

	// One state of the index answers the whole query — matches, document
	// frequencies, collection size, lengths, the documents returned —
	// however many documents are added while it runs.
	snap := e.ix.Snapshot()
	defer snap.Close()

	var kept []scoredDoc
	var stats [][]result.TermStat // of kept, in step; nil without a ranking
	var err error
	if e.cfg.Exhaustive {
		kept, stats, err = e.searchExhaustive(snap, q, actualFilter, actualRanking, opts)
	} else if fast, fastStats, ok := e.rankedFastPath(snap, q, actualFilter, actualRanking, opts); ok {
		// Pure ranking under the default sort: the same cursors plus a
		// threshold find the answer without scoring every match.
		kept, stats = fast, fastStats
	} else {
		kept, stats, err = e.searchCursors(snap, q, actualFilter, actualRanking, opts)
	}
	if err != nil {
		return nil, err
	}

	fields := q.EffectiveAnswerFields()
	res.Documents = make([]*result.Document, len(kept))
	for k, sd := range kept {
		doc := snap.Doc(sd.id)
		d := &result.Document{
			RawScore: round4(sd.score),
			Size:     doc.SizeKB(),
			Count:    snap.TokenCount(sd.id),
			Fields:   make(map[attr.Field]string, len(fields)),
		}
		if stats != nil {
			d.TermStats = stats[k]
		}
		for _, f := range fields {
			if v := answerFieldValue(doc, f); v != "" {
				d.Fields[f] = v
			}
		}
		res.Documents[k] = d
	}
	return res, nil
}

// resolveNative evaluates the query's free-form-text terms through the
// engine's native handler and points opts.Native at the results. It runs
// before the index snapshot is taken: the handler is the deployment's own
// code and reads the index through its locking methods.
func (e *Engine) resolveNative(opts *index.LookupOptions, exprs ...query.Expr) error {
	if e.cfg.Native == nil {
		return nil
	}
	var sets map[string]map[int]bool
	for _, expr := range exprs {
		if expr == nil {
			continue
		}
		for _, t := range expr.Terms(nil) {
			if t.EffectiveField() != attr.FieldFreeFormText || sets[t.Value.Text] != nil {
				continue
			}
			set, err := e.cfg.Native(t.Value.Text, e.ix)
			if err != nil {
				return fmt.Errorf("engine: native query: %w", err)
			}
			if sets == nil {
				sets = map[string]map[int]bool{}
			}
			sets[t.Value.Text] = set
		}
	}
	opts.Native = func(native string) (map[int]bool, error) { return sets[native], nil }
	return nil
}

// scoredDoc pairs a document with its combined score.
type scoredDoc struct {
	id    int
	score float64
}

// searchCursors evaluates a query document-at-a-time: the filter's iterator
// (without a filter, the union of the ranking terms) yields the matching
// documents in id order, the ranking terms' cursors follow it, and each
// document is scored as it goes by. Nothing is kept per document but its
// id and score.
func (e *Engine) searchCursors(snap index.Snapshot, q *query.Query, filter, ranking query.Expr, opts index.LookupOptions) ([]scoredDoc, [][]result.TermStat, error) {
	nodes := rankNodes(ranking, nil)
	terms := make([]query.Term, len(nodes))
	for i, nd := range nodes {
		terms[i] = nd.Term
	}
	m, err := snap.Match(filter, terms, opts)
	if err != nil {
		return nil, nil, err
	}
	n := snap.NumDocs()
	weights := make([]float64, len(nodes))
	weightOf := func(t *query.TermExpr) float64 {
		for i, nd := range nodes {
			if nd == t {
				return weights[i]
			}
		}
		return 0
	}
	// Where the answer is ordered by score and finalizing cannot reorder
	// raw scores, only the best max-docs matches need keeping.
	var cands []scoredDoc
	var best *topk.Heap[scoredDoc]
	if ranking != nil && e.rawOrderIsFinal(q) {
		best = topk.New(q.EffectiveMaxResults(), func(a, b scoredDoc) bool {
			if a.score != b.score {
				return a.score > b.score
			}
			return a.id < b.id
		})
	}
	maxScore := 0.0
	for id, ok := m.Next(); ok; id, ok = m.Next() {
		sd := scoredDoc{id: id}
		if ranking != nil {
			docLen := snap.TokenCount(id)
			for i := range weights {
				weights[i] = 0
				if tf := m.Freq(i); tf > 0 {
					weights[i] = e.cfg.Scorer.TermWeight(tf, m.DocFreq(i), n, docLen)
				}
			}
			sd.score = scoreExpr(ranking, weightOf)
			maxScore = max(maxScore, sd.score)
		}
		if best != nil {
			best.Push(sd)
		} else {
			cands = append(cands, sd)
		}
	}
	if best != nil {
		cands = best.Sorted()
	}
	kept := e.rankAndCut(snap, cands, maxScore, q, filter != nil, ranking != nil)
	if ranking == nil {
		return kept, nil, nil
	}

	// Term statistics are assembled only for returned documents; the
	// discarded tail never pays for them. A second set of cursors reads the
	// frequencies back, so the returned documents are visited in id order.
	byID := make([]int, len(kept))
	for k := range byID {
		byID[k] = k
	}
	slices.SortFunc(byID, func(a, b int) int { return kept[a].id - kept[b].id })
	first := firstOccurrences(terms)
	stats := make([][]result.TermStat, len(kept))
	tfs, dfs := make([]int, len(terms)), make([]int, len(terms))
	for _, k := range byID {
		id := kept[k].id
		m.FreqsAt(id, tfs)
		for i, tf := range tfs {
			if tf > 0 {
				dfs[i] = m.DocFreq(i)
			}
		}
		stats[k] = e.termStats(terms, first, tfs, dfs, n, snap.TokenCount(id))
	}
	return kept, stats, nil
}

// rankNodes appends the term nodes of a ranking expression, in the order
// Terms lists their terms.
func rankNodes(expr query.Expr, dst []*query.TermExpr) []*query.TermExpr {
	switch n := expr.(type) {
	case *query.TermExpr:
		return append(dst, n)
	case *query.Bin:
		return rankNodes(n.R, rankNodes(n.L, dst))
	case *query.Prox:
		return append(dst, n.L, n.R)
	case *query.List:
		for _, it := range n.Items {
			dst = rankNodes(it, dst)
		}
	}
	return dst
}

// scoreExpr evaluates a ranking expression for one document, given the
// scorer weight of each term node in it. Boolean-like operators get the
// fuzzy-logic interpretation of Example 4 (and=min, or=max); list is the
// weighted average; and-not zeroes documents matching the right side;
// prox contributes only where both terms are present. Both evaluators
// score through this one walk — the same float operations in the same
// order — which is what makes their scores identical to the last bit.
func scoreExpr(expr query.Expr, weight func(*query.TermExpr) float64) float64 {
	switch n := expr.(type) {
	case *query.TermExpr:
		return weight(n) * n.EffectiveWeight()
	case *query.Bin:
		l, r := scoreExpr(n.L, weight), scoreExpr(n.R, weight)
		switch n.Op {
		case query.OpAnd:
			return min(l, r)
		case query.OpOr:
			return max(l, r)
		case query.OpAndNot:
			if r > 0 {
				return 0
			}
			return l
		}
	case *query.Prox:
		l := weight(n.L) * n.L.EffectiveWeight()
		r := weight(n.R) * n.R.EffectiveWeight()
		if l > 0 && r > 0 {
			// Both terms present; approximate the positional check with
			// presence (full positional prox applies in filters). A
			// stricter engine could zero non-adjacent pairs here.
			return min(l, r)
		}
		return 0
	case *query.List:
		sum, wsum := 0.0, 0.0
		for _, it := range n.Items {
			w := 1.0
			if t, ok := it.(*query.TermExpr); ok {
				w = t.EffectiveWeight()
				sum += w * weight(t)
			} else {
				sum += scoreExpr(it, weight)
			}
			wsum += w
		}
		if wsum == 0 {
			return 0
		}
		return sum / wsum
	}
	return 0
}

// rankAndCut maps raw scores onto the engine's reported scale and applies
// the answer specification: minimum score, sort, cap. A pure ranking
// query (no filter) qualifies only documents that match at least one
// ranking term; with a filter, the filter decides membership and a zero
// score merely ranks last.
func (e *Engine) rankAndCut(snap index.Snapshot, cands []scoredDoc, maxScore float64, q *query.Query, filtered, ranked bool) []scoredDoc {
	if ranked {
		kept := cands[:0]
		for _, sd := range cands {
			sd.score = e.cfg.Scorer.Finalize(sd.score, maxScore)
			if sd.score < q.MinScore || (!filtered && sd.score == 0) {
				continue
			}
			kept = append(kept, sd)
		}
		cands = kept
	}
	return sortTop(snap, cands, q.EffectiveSort(), q.EffectiveMaxResults())
}

// firstOccurrences maps each term to the index of the first term that
// prints the same: itself, unless the query repeats a term. Term
// statistics list a repeated term once.
func firstOccurrences(terms []query.Term) []int {
	first := make([]int, len(terms))
	if len(terms) < 2 {
		return first
	}
	keys := make([]string, len(terms))
	for i, t := range terms {
		keys[i] = t.String()
		first[i] = slices.Index(keys[:i+1], keys[i])
	}
	return first
}

// termStats assembles the TermStats reported with one result document from
// its per-term frequencies: the terms in query order, a repeated term
// once, only those the document matches. Reported terms carry field and
// value but not weights/modifiers.
func (e *Engine) termStats(terms []query.Term, first, tfs, dfs []int, n, docLen int) []result.TermStat {
	matched := 0
	for i, tf := range tfs {
		if first[i] == i && tf > 0 {
			matched++
		}
	}
	if matched == 0 {
		return nil
	}
	// Sized exactly: an answer cache keeps these for as long as the answer.
	stats := make([]result.TermStat, 0, matched)
	for i, t := range terms {
		if first[i] != i || tfs[i] == 0 {
			continue
		}
		stats = append(stats, result.TermStat{
			Term:    query.Term{Field: t.EffectiveField(), Value: t.Value},
			Freq:    tfs[i],
			Weight:  round4(e.cfg.Scorer.TermWeight(tfs[i], dfs[i], n, docLen)),
			DocFreq: dfs[i],
		})
	}
	return stats
}

// sortableDoc pairs a result with its pre-fetched field sort keys, so
// comparisons never look up documents or format field text. Fetching
// keys through Snapshot.SortKeyValue also makes sorting safe against ids
// with no document behind them — they sort on empty keys instead of
// dereferencing a nil *index.Document inside the comparator.
type sortableDoc struct {
	scoredDoc
	vals []string // aligned with the non-score sort keys, in key order
}

// sortTop orders results per the query's sort specification, in place, and
// returns the best max of them (everything when max <= 0). Selection is a
// bounded heap when the candidate set exceeds max — O(n log max), the
// only sort cost a capped answer ever needs — and a plain sort
// otherwise. The comparator ends with the ascending-id tiebreak, so the
// order is total and deterministic regardless of input order.
func sortTop(snap index.Snapshot, docs []scoredDoc, keys []query.SortKey, max int) []scoredDoc {
	// Map each sort key to its slot among the precomputed field values;
	// the score pseudo-field compares scores directly.
	slot := make([]int, len(keys))
	nf := 0
	for i, k := range keys {
		if k.Field == query.ScoreSortField {
			slot[i] = -1
		} else {
			slot[i] = nf
			nf++
		}
	}
	flat := make([]string, len(docs)*nf)
	item := func(di int) sortableDoc {
		it := sortableDoc{scoredDoc: docs[di], vals: flat[di*nf : (di+1)*nf]}
		for i, k := range keys {
			if slot[i] >= 0 {
				it.vals[slot[i]] = snap.SortKeyValue(it.id, k.Field)
			}
		}
		return it
	}
	compare := func(a, b sortableDoc) int {
		for i, k := range keys {
			var c int
			if slot[i] < 0 {
				c = cmp.Compare(a.score, b.score)
			} else {
				c = strings.Compare(a.vals[slot[i]], b.vals[slot[i]])
			}
			if c == 0 {
				continue
			}
			if k.Ascending {
				return c
			}
			return -c
		}
		return a.id - b.id // stable tiebreak
	}
	var items []sortableDoc
	if max > 0 && len(docs) > max {
		h := topk.New(max, func(a, b sortableDoc) bool { return compare(a, b) < 0 })
		for di := range docs {
			h.Push(item(di))
		}
		items = h.Sorted()
	} else {
		items = make([]sortableDoc, len(docs))
		for di := range docs {
			items[di] = item(di)
		}
		slices.SortFunc(items, compare)
	}
	docs = docs[:len(items)]
	for i, it := range items {
		docs[i] = it.scoredDoc
	}
	return docs
}

func answerFieldValue(d *index.Document, f attr.Field) string {
	if attr.Normalize(f) == attr.FieldDateLastModified {
		if d.Date.IsZero() {
			return ""
		}
		return d.Date.UTC().Format("2006-01-02")
	}
	return d.FieldText(f)
}

func round4(f float64) float64 {
	return float64(int64(f*10000+0.5)) / 10000
}
