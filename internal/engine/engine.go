package engine

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

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
	// Fields lists the optional Basic-1 fields supported beyond the
	// required ones; free-form-text is supported by Native instead.
	Fields []attr.Field
	// Mods lists the supported Basic-1 modifiers; thesaurus is supported
	// by Thesaurus, case-sensitive by a case-preserving Analyzer instead.
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
	// string and the index the search reads and returns the matching
	// documents.
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
// The index is immutable: Add queues documents, and the next read builds a
// new index over the old one's documents and the queue.
type Engine struct {
	cfg  Config
	caps *meta.SourceMeta // profile(cfg)
	ix   atomic.Pointer[index.Index]
	// queued tells readers that Add has queued documents; mu guards the
	// queue, its linkages and the build that empties it.
	queued   atomic.Bool
	mu       sync.Mutex
	queue    []*index.Document
	linkages map[string]bool // of the queued documents
}

// New returns an engine over an empty index under the config's analyzer.
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
	e := &Engine{cfg: cfg, caps: profile(cfg), linkages: map[string]bool{}}
	e.ix.Store(index.New(cfg.Analyzer))
	return e, nil
}

// NewWithDocs returns an engine over an index built from docs with
// parallel chunked construction (workers <= 0 means GOMAXPROCS). The
// index is the same whatever the number of workers, and the same as Add
// calls over docs in order would give.
func NewWithDocs(cfg Config, docs []*index.Document, workers int) (*Engine, error) {
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	ix, err := index.Build(cfg.Analyzer, docs, workers)
	if err != nil {
		return nil, err
	}
	e.ix.Store(ix)
	return e, nil
}

// Config returns the engine's capability profile.
func (e *Engine) Config() Config { return e.cfg }

// Index returns the engine's index, with every document Add has queued;
// should building them in fail, the last index built.
func (e *Engine) Index() *index.Index {
	ix, _ := e.index()
	return ix
}

// Add queues a copy of a document for the next read to index. An invalid
// document, or one whose linkage is already indexed or queued, fails at
// once. A read after k Adds rebuilds the whole collection once: the index
// holds its documents' text in one allocation and their postings packed,
// so nothing can be added to it in place. Documents meant to go in
// together cost least through NewWithDocs or one run of Adds before the
// first read.
func (e *Engine) Add(d *index.Document) error {
	if err := d.Validate(); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.linkages[d.Linkage] || e.ix.Load().HasLinkage(d.Linkage) {
		return fmt.Errorf("engine: document %q already added", d.Linkage)
	}
	c := *d
	c.Authors, c.Languages, c.CrossRefs = slices.Clone(d.Authors), slices.Clone(d.Languages), slices.Clone(d.CrossRefs)
	e.queue = append(e.queue, &c)
	e.linkages[d.Linkage] = true
	e.queued.Store(true)
	return nil
}

// index returns the index with every queued document in it, building it
// first when Add has queued any. A build that fails keeps the queue and
// the last index built, and reports why.
func (e *Engine) index() (*index.Index, error) {
	if !e.queued.Load() {
		return e.ix.Load(), nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	old := e.ix.Load()
	if len(e.queue) == 0 {
		return old, nil
	}
	docs := make([]*index.Document, old.NumDocs(), old.NumDocs()+len(e.queue))
	for id := range docs {
		docs[id], _ = old.Doc(id)
	}
	ix, err := index.Build(e.cfg.Analyzer, append(docs, e.queue...), 0)
	if err != nil {
		return old, fmt.Errorf("engine: indexing %d queued documents: %w", len(e.queue), err)
	}
	e.ix.Store(ix)
	e.queue = nil
	clear(e.linkages)
	e.queued.Store(false)
	return ix, nil
}

// profile is the MBasic-1 capability lists (Section 4.3.1) cfg amounts
// to: the optional Basic-1 fields it supports, free-form-text only with a
// Native handler; the Basic-1 modifiers, thesaurus only with a Thesaurus
// and case-sensitive only (and always) on a case-preserving analyzer; and
// every pairing of a recognized field with a supported modifier, less
// IllegalCombos and comparisons other than = off the date field.
func profile(cfg Config) *meta.SourceMeta {
	m := &meta.SourceMeta{}
	m.FieldsSupported, m.ModifiersSupported, m.Combinations = meta.Basic1Profile(
		func(f attr.Field) bool {
			if f == attr.FieldFreeFormText {
				return cfg.Native != nil
			}
			return slices.ContainsFunc(cfg.Fields, func(cf attr.Field) bool { return attr.Normalize(cf) == f })
		},
		func(mod attr.Modifier) bool {
			switch mod {
			case attr.ModThesaurus:
				return cfg.Thesaurus != nil
			case attr.ModCaseSensitive:
				return cfg.Analyzer.CaseSensitive
			}
			return slices.Contains(cfg.Mods, mod)
		},
		func(f attr.Field, mod attr.Modifier) bool {
			return !slices.Contains(cfg.IllegalCombos[f], mod) && (!mod.IsComparison() || mod == attr.ModEQ || f == attr.FieldDateLastModified)
		})
	return m
}

// Capabilities returns the engine's FieldsSupported, ModifiersSupported and
// Combinations, the lists its Config amounts to and rewrite asks. It is
// read-only, and no other field of it is set.
func (e *Engine) Capabilities() *meta.SourceMeta { return e.caps }

// Search executes a query: it rewrites the query down to what the engine
// supports (the "actual query"), evaluates the filter, scores the ranking
// expression, and assembles the STARTS result with term statistics. It
// never fails on unsupported query features — those are ignored, per the
// protocol — only on malformed input (e.g. an unparsable date), or when
// the documents Add queued cannot be indexed.
func (e *Engine) Search(q *query.Query) (*result.Results, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	// One index answers the whole query — the rewrite's feedback
	// expansion, the native handler, matches, document frequencies,
	// collection size, lengths, the documents returned — however many
	// documents are added while it runs.
	ix, err := e.index()
	if err != nil {
		return nil, err
	}
	dropStop := q.DropStopWords || !e.cfg.TurnOffStopWords
	opts := index.LookupOptions{
		DropStopWords: dropStop,
		Stop:          e.cfg.Analyzer.Stop,
		DefaultLang:   q.DefaultLanguage,
		Thesaurus:     e.cfg.Thesaurus,
	}

	// Everything the search builds but does not return comes from s.
	s := search{ix: ix, sc: new(index.Scratch)}

	// Interpret term fields in the query's default attribute set (e.g.
	// dc-1 "creator" resolves to the Basic-1 "author" this engine knows).
	actualFilter, actualRanking := q.ResolveAttributeSet()
	actualFilter, actualRanking = e.rewrite(&s, actualFilter, opts, false), e.rewrite(&s, actualRanking, opts, true)

	res := &result.Results{ActualFilter: actualFilter, ActualRanking: actualRanking}

	// When nothing of the query survives (every term unsupported or
	// eliminated), there is nothing to evaluate: the result is empty and
	// the empty actual query tells the metasearcher why.
	if actualFilter == nil && actualRanking == nil {
		return res, nil
	}
	if err := e.resolveNative(ix, &opts, actualFilter, actualRanking); err != nil {
		return nil, err
	}

	var kept []scoredDoc
	var stats []result.TermStat // of kept document k: stats[offs[k]:offs[k+1]]
	var offs []int              // nil without a ranking
	if e.cfg.Exhaustive {
		kept, stats, offs, err = e.searchExhaustive(ix, q, actualFilter, actualRanking, opts)
	} else if fast, fastStats, fastOffs, ok := e.rankedFastPath(&s, q, actualFilter, actualRanking, opts); ok {
		// Pure ranking under the default sort: the same cursors plus a
		// threshold find the answer without scoring every match.
		kept, stats, offs = fast, fastStats, fastOffs
	} else {
		kept, stats, offs, err = e.searchCursors(&s, q, actualFilter, actualRanking, opts)
	}
	if err != nil {
		return nil, err
	}

	// The documents, their fields and their statistics fill one slab each.
	fields := q.AppendAnswerFields(s.fields[:0])
	slices.SortFunc(fields, result.CompareFields)
	fields = slices.Compact(fields)
	docs := make([]result.Document, len(kept))
	vals := make([]result.FieldValue, 0, len(kept)*len(fields))
	res.Documents = make([]*result.Document, len(kept))
	for k, sd := range kept {
		from := len(vals)
		for _, f := range fields {
			if v := ix.FieldText(sd.id, f); v != "" {
				vals = append(vals, result.FieldValue{Field: f, Value: v})
			}
		}
		d := &docs[k]
		d.RawScore, d.Size, d.Count = round4(sd.score), ix.SizeKB(sd.id), ix.TokenCount(sd.id)
		d.Fields = vals[from:len(vals):len(vals)]
		if offs != nil && offs[k] < offs[k+1] { // a document that matched no term has none
			d.TermStats = stats[offs[k]:offs[k+1]:offs[k+1]]
		}
		res.Documents[k] = d
	}
	return res, nil
}

// resolveNative evaluates the query's free-form-text terms through the
// engine's native handler over ix, the index the search reads, and
// points opts.Native at the results.
func (e *Engine) resolveNative(ix *index.Index, opts *index.LookupOptions, exprs ...query.Expr) error {
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
			set, err := e.cfg.Native(t.Value.Text, ix)
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

// search is the working set of one Engine.Search: the one index it reads,
// the index's scratch, which also holds the engine's term numbers
// (Scratch.Ints), and the engine's own small slices, which start in the
// arrays here. It lives and dies with the search; only the answer
// outlives it.
type search struct {
	ix      *index.Index
	sc      *index.Scratch
	nodes   [4]*query.TermExpr // the ranking's term nodes
	terms   [4]query.Term      // and their terms
	reports [4]*query.Term     // and the terms their statistics report
	weights [4]float64         // and their weights in the current document
	plan    [4]index.RankTerm
	fields  [4]attr.Field
	key     [128]byte // the terms, printed one after another
}

// scoreOnly reports whether a sort orders by score alone.
func scoreOnly(keys []query.SortKey) bool {
	for _, k := range keys {
		if k.Field != query.ScoreSortField {
			return false
		}
	}
	return true
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
func (e *Engine) searchCursors(s *search, q *query.Query, filter, ranking query.Expr, opts index.LookupOptions) ([]scoredDoc, []result.TermStat, []int, error) {
	ix := s.ix
	nodes := rankNodes(ranking, s.nodes[:0])
	terms := s.terms[:0]
	for _, nd := range nodes {
		terms = append(terms, nd.Term)
	}
	m, err := ix.Match(s.sc, filter, terms, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	n := ix.NumDocs()
	weights := append(s.weights[:0], make([]float64, len(nodes))...)
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
		best = topk.New(q.EffectiveMaxResults(), func(a, b scoredDoc) int {
			if a.score != b.score {
				return cmp.Compare(b.score, a.score)
			}
			return a.id - b.id
		})
	}
	// Without a ranking every score is 0, and under a sort on score alone
	// sortTop breaks the ties by ascending id, the order matches come in:
	// the first max-docs matches are the answer.
	enough := 0
	if ranking == nil && scoreOnly(q.EffectiveSort()) {
		enough = q.EffectiveMaxResults()
	}
	maxScore := 0.0
	for id, ok := m.Next(); ok; id, ok = m.Next() {
		sd := scoredDoc{id: id}
		if ranking != nil {
			docLen := ix.TokenCount(id)
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
		} else if cands = append(cands, sd); len(cands) == enough {
			break
		}
	}
	if best != nil {
		cands = best.Sorted()
	}
	kept := e.rankAndCut(ix, cands, maxScore, q, filter != nil, ranking != nil)
	if ranking == nil {
		return kept, nil, nil, nil
	}

	// Term statistics are assembled only for returned documents; the
	// discarded tail never pays for them. A second set of cursors reads the
	// frequencies back, so the returned documents are visited in id order;
	// kept document k's land at tfs[k*nt:].
	nt, nk := len(terms), len(kept)
	s.sc.ReserveInts(nk*(nt+1) + nt + statsInts(nt, nk))
	ints := s.sc.Ints(nk*(nt+1) + nt)
	byID, tfs, dfs := ints[:nk], ints[nk:nk*(nt+1)], ints[nk*(nt+1):]
	for k := range byID {
		byID[k] = k
	}
	slices.SortFunc(byID, func(a, b int) int { return kept[a].id - kept[b].id })
	for _, k := range byID {
		m.FreqsAt(kept[k].id, tfs[k*nt:(k+1)*nt])
		for i, tf := range tfs[k*nt : (k+1)*nt] {
			if tf > 0 {
				dfs[i] = m.DocFreq(i)
			}
		}
	}
	stats, offs := e.termStats(s, kept, nodes, func(k int) []int { return tfs[k*nt : (k+1)*nt] }, dfs)
	return kept, stats, offs, nil
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
func (e *Engine) rankAndCut(ix *index.Index, cands []scoredDoc, maxScore float64, q *query.Query, filtered, ranked bool) []scoredDoc {
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
	return sortTop(ix, cands, q.EffectiveSort(), q.EffectiveMaxResults())
}

// reportedTerms returns the term each term node's statistics report, or
// nil for a node that prints as an earlier one does: term statistics list
// a repeated term once.
func (s *search) reportedTerms(nodes []*query.TermExpr) []*query.Term {
	ints := s.sc.Ints(2*len(nodes) + 1)
	first, ends := ints[:len(nodes)], ints[len(nodes):]
	key, terms := s.key[:0], s.reports[:0]
	for i, nd := range nodes {
		key = nd.Append(key)
		ends[i+1] = len(key)
		for !bytes.Equal(key[ends[first[i]]:ends[first[i]+1]], key[ends[i]:]) {
			first[i]++
		}
		if terms = append(terms, nil); first[i] == i {
			terms[i] = reported(&nd.Term)
		}
	}
	return terms
}

// reported returns t when it is spelled as statistics report a term — its
// normalized field and its value, nothing else — and else such a copy.
func reported(t *query.Term) *query.Term {
	if t.Field == t.EffectiveField() && len(t.Mods) == 0 && t.Weight == 0 {
		return t
	}
	return &query.Term{Field: t.EffectiveField(), Value: t.Value}
}

// statsInts is how many ints termStats takes from the scratch for nt
// ranking terms and nk kept documents.
func statsInts(nt, nk int) int { return 2*nt + 1 + nk + 1 }

// termStats assembles the TermStats reported with the kept documents, in
// one slab sized exactly: kept document k's, from its per-term
// frequencies tfsOf(k), are stats[offs[k]:offs[k+1]] — the terms of the
// ranking's nodes in query order, a repeated term once, only those the
// document matches. The entries of one term share its pointer.
func (e *Engine) termStats(s *search, kept []scoredDoc, nodes []*query.TermExpr, tfsOf func(k int) []int, dfs []int) (stats []result.TermStat, offs []int) {
	terms := s.reportedTerms(nodes)
	n := 0
	for k := range kept {
		for i, tf := range tfsOf(k) {
			if tf > 0 && terms[i] != nil {
				n++
			}
		}
	}
	stats, offs = make([]result.TermStat, 0, n), s.sc.Ints(len(kept) + 1)[:1]
	for k, sd := range kept {
		tfs, docLen := tfsOf(k), s.ix.TokenCount(sd.id)
		for i, term := range terms {
			if term != nil && tfs[i] > 0 {
				stats = append(stats, result.TermStat{
					Term:    term,
					Freq:    tfs[i],
					Weight:  round4(e.cfg.Scorer.TermWeight(tfs[i], dfs[i], s.ix.NumDocs(), docLen)),
					DocFreq: dfs[i],
				})
			}
		}
		offs = append(offs, len(stats))
	}
	return stats, offs
}

// sortableDoc pairs a result with its pre-fetched field texts, so
// comparisons never look up documents or join field text. Fetching them
// through Index.FieldText also makes sorting safe against ids with no
// document behind them: they sort on empty text and no date.
type sortableDoc struct {
	scoredDoc
	vals []string // aligned with the text sort keys, in key order
}

// Slots of the sort keys that are not text: the score and the date,
// compared in place.
const (
	scoreSlot = -1
	dateSlot  = -2
)

// sortTop orders results per the query's sort specification, in place, and
// returns the best max of them (everything when max <= 0). Selection is a
// bounded heap when the candidate set exceeds max — O(n log max), the
// only sort cost a capped answer ever needs — and a plain sort
// otherwise. Text compares folded (index.CompareFold), dates by UTC day,
// neither allocating. The comparator ends with the ascending-id tiebreak,
// so the order is total and deterministic regardless of input order.
func sortTop(ix *index.Index, docs []scoredDoc, keys []query.SortKey, max int) []scoredDoc {
	// Map each sort key to its slot among the pre-fetched field texts.
	slot := make([]int, len(keys))
	nf := 0
	for i, k := range keys {
		switch {
		case k.Field == query.ScoreSortField:
			slot[i] = scoreSlot
		case attr.Normalize(k.Field) == attr.FieldDateLastModified:
			slot[i] = dateSlot
		default:
			slot[i] = nf
			nf++
		}
	}
	flat := make([]string, len(docs)*nf)
	item := func(di int) sortableDoc {
		it := sortableDoc{scoredDoc: docs[di], vals: flat[di*nf : (di+1)*nf]}
		for i, k := range keys {
			if slot[i] >= 0 {
				it.vals[slot[i]] = ix.FieldText(it.id, k.Field)
			}
		}
		return it
	}
	compare := func(a, b sortableDoc) int {
		for i, k := range keys {
			var c int
			switch s := slot[i]; s {
			case scoreSlot:
				c = cmp.Compare(a.score, b.score)
			case dateSlot:
				c = ix.CompareDates(a.id, b.id)
			default:
				c = index.CompareFold(a.vals[s], b.vals[s])
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
		h := topk.New(max, compare)
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

func round4(f float64) float64 {
	return float64(int64(f*10000+0.5)) / 10000
}
