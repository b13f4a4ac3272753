package index

import (
	"fmt"
	"sort"

	"starts/internal/attr"
	"starts/internal/query"
	"starts/internal/text"
)

// docIter is the one shape every node of a query has on the serving path:
// the documents the node matches, in ascending id order, over the same
// 128-posting blocks the ranked traversal walks. A new iterator stands on
// its first document and doc reports maxDocID once it has run out; next
// and seek only move forwards, so a whole search is one pass over each
// list it touches and nothing the size of a match set is ever built.
type docIter interface {
	doc() int
	next()
	// seek moves to the first document at or after target.
	seek(target int)
	// freq is the number of occurrences at doc() for a text term and 1
	// for every other node, whose documents simply match.
	freq() int
}

// doc, next and freq make a termCursor the iterator of a one-word text
// term: the union of the word's expansion lists across the term's fields,
// frequencies summed.
func (tc *termCursor) doc() int  { return tc.cur }
func (tc *termCursor) next()     { tc.advance() }
func (tc *termCursor) freq() int { return tc.freqAt() }

// Scratch is the working memory of one search: the words of its terms,
// their posting lists, its term nodes and cursors. Each slab hands out
// runs of a chunk sized, when a search starts, for the terms of its
// query; a run that does not fit starts a new chunk, at least as big as
// the last, and what was handed out stays where it is until the search
// drops its Scratch. The zero value is ready for use, by one search at a
// time.
type Scratch struct {
	toks  []text.Token // reused by each tokenization
	vocab []string     // reused by each word's expansion
	words []string
	lists []postingList
	runs  [][]postingList // a phrase's lists, word by word
	nodes []termNode
	curs  []termCursor
	iters []docIter
	ints  []int
}

// take returns n zeroed elements from *slab's chunk.
func take[T any](slab *[]T, n int) []T {
	reserve(slab, n)
	s := *slab
	*slab = s[:len(s)+n]
	return s[len(s) : len(s)+n : len(s)+n]
}

// reserve makes room in *slab's chunk for n more elements.
func reserve[T any](slab *[]T, n int) {
	if s := *slab; cap(s)-len(s) < n {
		*slab = make([]T, 0, max(n, cap(s)))
	}
}

// sizeFor sizes the slabs for n terms of one word in one field, r of
// them ranking terms, which take a second cursor and two iterators.
func (sc *Scratch) sizeFor(n, r int) {
	reserve(&sc.words, n)
	reserve(&sc.lists, n)
	reserve(&sc.nodes, n)
	reserve(&sc.curs, n+r)
	reserve(&sc.iters, 2*r)
}

// Ints returns n zeroed ints, valid while the search holds its Scratch.
func (sc *Scratch) Ints(n int) []int { return take(&sc.ints, n) }

// ReserveInts makes room for n more ints in one chunk, so that the calls
// to Ints they are for allocate once between them.
func (sc *Scratch) ReserveInts(n int) { reserve(&sc.ints, n) }

// Tokens tokenizes value into the scratch's token buffer, valid until the
// next call.
func (sc *Scratch) Tokens(a *text.Analyzer, value string) []text.Token {
	sc.toks = a.Tokenizer.Tokenize(sc.toks[:0], value)
	return sc.toks
}

// termCursors returns one cursor per entry of lists, over that entry's
// posting lists.
func (sc *Scratch) termCursors(lists ...[]postingList) []termCursor {
	tcs := take(&sc.curs, len(lists))
	for i, l := range lists {
		tc := &tcs[i]
		tc.curs = tc.one[:0]
		if len(l) > 1 {
			tc.curs = make([]listCursor, 0, len(l))
		}
		for j := range l {
			tc.curs = append(tc.curs, newListCursor(&l[j]))
		}
		tc.align()
	}
	return tcs
}

// positions returns the word's positions in the current document,
// ascending, valid until the cursor moves: decoded into the list cursor's
// buffer unless several expansions of the word occur in the document.
func (tc *termCursor) positions() []int32 {
	var pos []int32
	for i := range tc.curs {
		switch c := &tc.curs[i]; {
		case c.doc() != tc.cur:
		case pos == nil:
			pos = c.positions()
		default:
			pos = mergePositions(pos, c.positions())
		}
	}
	return pos
}

// posIter is a text term within one field together with where in the
// document it matches — what a proximity check needs from its operands. A
// one-word value matches at the word's positions; a value of several
// words is a phrase and matches where word i stands at position p+i for
// every i, p being the match position. A one-word value matches wherever
// the word occurs, so its positions are decoded only when asked for.
type posIter struct {
	words []termCursor // per word of the value: its expansion lists in the field
	cur   int
	pos   []int32   // a phrase's match positions in cur
	at    [][]int32 // scratch: each word's positions in the candidate document
}

// newPosIter takes each word's expansion lists in the field.
func (sc *Scratch) newPosIter(lists [][]postingList) *posIter {
	p := &posIter{words: sc.termCursors(lists...), at: make([][]int32, len(lists))}
	p.settle()
	return p
}

// settle moves to the first document, at or after where the first word
// stands, in which the value matches.
func (p *posIter) settle() {
	for {
		// Leapfrog to a document holding every word: a word found beyond
		// the target becomes the target and the round starts again, so
		// the rarest word sets the pace.
		d := p.words[0].cur
		for i := 0; i < len(p.words); i++ {
			w := &p.words[i]
			if w.cur < d {
				w.seek(d)
			}
			if w.cur > d {
				d, i = w.cur, -1
			}
		}
		if p.cur = d; d == maxDocID || p.matches() {
			return
		}
		p.words[0].advance()
	}
}

func (p *posIter) matches() bool {
	if len(p.words) == 1 {
		return true
	}
	for i := range p.words {
		p.at[i] = p.words[i].positions()
	}
	p.pos = p.pos[:0]
starts:
	for _, s := range p.at[0] {
		for i := 1; i < len(p.at); i++ {
			if !containsInt(p.at[i], s+int32(i)) {
				continue starts
			}
		}
		p.pos = append(p.pos, s)
	}
	return len(p.pos) > 0
}

// positions returns where the value matches in the current document,
// valid until the iterator moves.
func (p *posIter) positions() []int32 {
	if len(p.words) == 1 {
		return p.words[0].positions()
	}
	return p.pos
}

func (p *posIter) doc() int { return p.cur }

func (p *posIter) freq() int {
	if len(p.words) == 1 {
		return p.words[0].freqAt()
	}
	return len(p.pos)
}

func (p *posIter) next() { p.words[0].advance(); p.settle() }
func (p *posIter) seek(target int) {
	if target > p.cur {
		p.words[0].seek(target)
		p.settle()
	}
}

// joinIter is and, or with not set and-not: the left side's documents the
// right side matches too, or does not. The left side drives and the right
// is probed by seek; under and, a right side found further on pulls the
// left up to it in turn, so whichever side is sparser sets the pace.
type joinIter struct {
	l, r docIter
	not  bool
}

func newJoin(l, r docIter, not bool) *joinIter {
	j := &joinIter{l, r, not}
	j.settle()
	return j
}

func (j *joinIter) settle() {
	for d := j.l.doc(); d != maxDocID; d = j.l.doc() {
		if j.r.seek(d); (j.r.doc() == d) != j.not {
			return
		}
		if j.not {
			j.l.next()
		} else {
			j.l.seek(j.r.doc())
		}
	}
}

func (j *joinIter) doc() int        { return j.l.doc() }
func (j *joinIter) freq() int       { return 1 }
func (j *joinIter) next()           { j.l.next(); j.settle() }
func (j *joinIter) seek(target int) { j.l.seek(target); j.settle() }

// unionIter matches the documents any of its operands matches, none when
// it has none; a document's frequency is the sum over the operands
// matching it, as an "any"-field term sums its fields.
type unionIter struct {
	kids []docIter
	cur  int
}

func newUnion(kids ...docIter) docIter {
	if len(kids) == 1 {
		return kids[0]
	}
	u := &unionIter{kids: kids}
	u.align()
	return u
}

func (u *unionIter) align() {
	u.cur = maxDocID
	for _, k := range u.kids {
		u.cur = min(u.cur, k.doc())
	}
}

func (u *unionIter) doc() int { return u.cur }

func (u *unionIter) freq() int {
	n := 0
	for _, k := range u.kids {
		if k.doc() == u.cur {
			n += k.freq()
		}
	}
	return n
}

func (u *unionIter) next() {
	for _, k := range u.kids {
		if k.doc() == u.cur {
			k.next()
		}
	}
	u.align()
}

func (u *unionIter) seek(target int) {
	for _, k := range u.kids {
		k.seek(target)
	}
	u.align()
}

// idsIter walks a sorted slice of document ids: the documents a native
// query returned, or none at all.
type idsIter struct {
	ids []int
	i   int
}

func (it *idsIter) doc() int {
	if it.i >= len(it.ids) {
		return maxDocID
	}
	return it.ids[it.i]
}
func (it *idsIter) freq() int       { return 1 }
func (it *idsIter) next()           { it.i++ }
func (it *idsIter) seek(target int) { it.i += sort.SearchInts(it.ids[min(it.i, len(it.ids)):], target) }

// allIter walks every document id below n; with a predicate on top (see
// whereIter) it is the node for the fields that have no postings. seek
// jumps: only the documents a walk stops at are ever tested.
type allIter struct{ cur, n int }

func (a *allIter) doc() int {
	if a.cur >= a.n {
		return maxDocID
	}
	return a.cur
}
func (a *allIter) freq() int       { return 1 }
func (a *allIter) next()           { a.seek(a.cur + 1) }
func (a *allIter) seek(target int) { a.cur = min(max(a.cur, target), a.n) }

// whereIter keeps the documents of another iterator that pass a test: a
// field predicate on every document, the language check on a text term,
// the positional check on a proximity pair.
type whereIter struct {
	docIter
	keep func(id int) bool
}

// newWhere returns in itself when keep is nil: every document passes.
func newWhere(in docIter, keep func(id int) bool) docIter {
	if keep == nil {
		return in
	}
	w := &whereIter{in, keep}
	w.settle()
	return w
}

func (w *whereIter) settle() {
	for d := w.doc(); d != maxDocID && !w.keep(d); d = w.doc() {
		w.docIter.next()
	}
}

func (w *whereIter) next()           { w.docIter.next(); w.settle() }
func (w *whereIter) seek(target int) { w.docIter.seek(target); w.settle() }

func countDocs(it docIter) int {
	n := 0
	for ; it.doc() != maxDocID; it.next() {
		n++
	}
	return n
}

// termNode is an atomic term resolved against the index: its vocabulary
// expansions are looked up once, and iterators over its documents are
// cheap to make from then on. Which of its fields are set says what kind
// of term it is; the zero node matches nothing.
type termNode struct {
	lists  []postingList     // a one-word text term: the word's expansions in the term's fields
	phrase [][]postingList   // a phrase: each word's lists, field after field
	words  int               // a phrase's word count
	inLang func(id int) bool // a text term's language check; nil when every document passes
	pred   func(id int) bool // a field without postings: each document's test,
	all    int               // over this many documents
	native bool              // a free-form-text term, matching ids
	ids    []int
	df     int // negative until asked for
}

// ranked reports whether the ranked traversal can bound the term block by
// block: a one-word text term, or one with nothing left to match.
func (n *termNode) ranked() bool { return n.pred == nil && !n.native && n.words <= 1 }

// iter returns an iterator over the term's documents.
func (n *termNode) iter(sc *Scratch) docIter {
	switch {
	case n.pred != nil:
		return newWhere(&allIter{n: n.all}, n.pred)
	case n.native:
		return &idsIter{ids: n.ids}
	case n.words > 1:
		kids := take(&sc.iters, len(n.phrase)/n.words)
		for i := range kids {
			kids[i] = sc.newPosIter(n.phrase[i*n.words : (i+1)*n.words])
		}
		return newWhere(newUnion(kids...), n.inLang)
	}
	return newWhere(&sc.termCursors(n.lists)[0], n.inLang)
}

// docFreq returns the number of documents the term matches in the whole
// collection, whatever filter the query carries: the document frequency
// the oracle's map lookup reports.
func (n *termNode) docFreq(sc *Scratch) int {
	if n.df < 0 && n.ranked() && len(n.lists) == 1 && n.inLang == nil {
		n.df = n.lists[0].numDocs()
	} else if n.df < 0 {
		n.df = countDocs(n.iter(sc))
	}
	return n.df
}

// probe returns a one-word term's frequency in one document by
// binary-searching its posting lists — the per-result stats path.
func (n *termNode) probe(id int) int {
	if n.inLang != nil && !n.inLang(id) {
		return 0
	}
	tf := 0
	for j := range n.lists {
		if i, found := n.lists[j].find(id); found {
			tf += n.lists[j].freq(i)
		}
	}
	return tf
}

// resolveTerm resolves an atomic term into n. The errors are those of
// malformed values: an unparsable date or language tag, a failing native
// handler.
func (ix *Index) resolveTerm(sc *Scratch, n *termNode, t query.Term, opts LookupOptions) error {
	*n = termNode{df: -1}
	if pred, err := ix.docPredicate(t); err != nil || pred != nil {
		n.pred, n.all = pred, len(ix.recs)
		return err
	}
	f := t.EffectiveField()
	if f == attr.FieldFreeFormText {
		ids, err := ix.nativeIDs(t, opts)
		n.native, n.ids, n.df = true, ids, len(ids)
		return err
	}
	fields := textFieldsOf(f)
	words := ix.termWords(sc, t, opts)
	if len(fields) == 0 || len(words) == 0 {
		// A field the index does not hold, or nothing left to match.
		n.df = 0
		return nil
	}
	n.inLang = ix.languageCheck(t, opts)
	if len(words) == 1 {
		n.lists = ix.wordLists(sc, fields, words[0], t, opts)
		return nil
	}
	// A phrase: positional, so matched field by field and summed.
	n.words, n.phrase = len(words), take(&sc.runs, len(fields)*len(words))[:0]
	for _, f := range fields {
		if ix.phraseLists(sc, n.phrase[len(n.phrase):len(n.phrase)+len(words)], f, words, t, opts) {
			n.phrase = n.phrase[:len(n.phrase)+len(words)]
		}
	}
	return nil
}

// textFieldsOf returns the posting fields a term's field names.
func textFieldsOf(f attr.Field) []attr.Field {
	if f == attr.FieldAny {
		return TextFields
	}
	for i, tf := range TextFields {
		if f == tf {
			return TextFields[i : i+1]
		}
	}
	return nil
}

// languageCheck returns the test a language-qualified term puts its
// documents to, nil when every document passes: an unqualified term, or a
// collection in which no document declares a language.
func (ix *Index) languageCheck(t query.Term, opts LookupOptions) func(id int) bool {
	tag := t.Value.Resolve(opts.DefaultLang)
	if ix.numTagged == 0 || tag.IsZero() {
		return nil
	}
	return func(id int) bool { return ix.inLanguage(id, tag) }
}

// phraseLists resolves each word of a value to its expansion lists in one
// field, into dst; false when some word has none there, so the value
// cannot match.
func (ix *Index) phraseLists(sc *Scratch, dst [][]postingList, f attr.Field, words []string, t query.Term, opts LookupOptions) bool {
	for i, w := range words {
		if dst[i] = ix.wordLists(sc, []attr.Field{f}, w, t, opts); len(dst[i]) == 0 {
			return false
		}
	}
	return true
}

// filterIter builds the iterator of a filter expression. The expression
// should already have been capability-rewritten by the engine (stop-word-
// only terms stripped); a term that still eliminates entirely under opts
// matches nothing.
func (ix *Index) filterIter(sc *Scratch, e query.Expr, opts LookupOptions) (docIter, error) {
	switch n := e.(type) {
	case *query.TermExpr:
		node := &take(&sc.nodes, 1)[0]
		if err := ix.resolveTerm(sc, node, n.Term, opts); err != nil {
			return nil, err
		}
		return node.iter(sc), nil
	case *query.Bin:
		l, err := ix.filterIter(sc, n.L, opts)
		if err != nil {
			return nil, err
		}
		r, err := ix.filterIter(sc, n.R, opts)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case query.OpAnd, query.OpAndNot:
			return newJoin(l, r, n.Op == query.OpAndNot), nil
		case query.OpOr:
			return newUnion(l, r), nil
		default:
			return nil, fmt.Errorf("index: unknown operator %q", n.Op)
		}
	case *query.Prox:
		return ix.proxIter(sc, n, opts)
	case *query.List:
		return nil, fmt.Errorf("index: list operator reached filter evaluation")
	default:
		return nil, fmt.Errorf("index: unknown filter node %T", e)
	}
}

// proxFields returns the text fields a proximity constraint is tried in.
// Proximity is positional and therefore field-local: when both terms name
// concrete, different fields the constraint cannot hold; "any"-field terms
// are tried in every text field.
func proxFields(p *query.Prox) ([]attr.Field, error) {
	lf, rf := p.L.EffectiveField(), p.R.EffectiveField()
	var fields []attr.Field
	switch {
	case lf == attr.FieldAny && rf == attr.FieldAny:
		fields = TextFields
	case lf == attr.FieldAny:
		fields = []attr.Field{rf}
	case rf == attr.FieldAny || lf == rf:
		fields = []attr.Field{lf}
	}
	for _, f := range fields {
		if textFieldsOf(f) == nil {
			return nil, fmt.Errorf("index: prox requires text fields, found %q", f)
		}
	}
	return fields, nil
}

// proxIter builds the iterator of a proximity constraint: in each field, the
// documents holding both terms (each within its language) with some pair of
// match positions close enough.
func (ix *Index) proxIter(sc *Scratch, p *query.Prox, opts LookupOptions) (docIter, error) {
	fields, err := proxFields(p)
	if err != nil {
		return nil, err
	}
	lw, rw := ix.termWords(sc, p.L.Term, opts), ix.termWords(sc, p.R.Term, opts)
	if len(lw) == 0 || len(rw) == 0 {
		fields = nil // a term with nothing left to match
	}
	lLang, rLang := ix.languageCheck(p.L.Term, opts), ix.languageCheck(p.R.Term, opts)
	var kids []docIter
	for _, f := range fields {
		ll, rl := take(&sc.runs, len(lw)), take(&sc.runs, len(rw))
		if !ix.phraseLists(sc, ll, f, lw, p.L.Term, opts) || !ix.phraseLists(sc, rl, f, rw, p.R.Term, opts) {
			continue
		}
		l, r := sc.newPosIter(ll), sc.newPosIter(rl)
		kids = append(kids, newWhere(newJoin(l, r, false), func(id int) bool {
			return proxSatisfied(l.positions(), r.positions(), p.Dist, p.Ordered) &&
				(lLang == nil || lLang(id)) && (rLang == nil || rLang(id))
		}))
	}
	return newUnion(kids...), nil
}

// proxSatisfied reports whether some pair of positions satisfies the
// word-distance constraint: at most dist words between the terms, with the
// left term first when ordered.
func proxSatisfied(lpos, rpos []int32, dist int, ordered bool) bool {
	for _, lp := range lpos {
		p := int(lp)
		// Right-position window for ordered: (p, p+dist+1].
		i := sort.Search(len(rpos), func(k int) bool { return int(rpos[k]) > p })
		if i < len(rpos) && int(rpos[i]) <= p+dist+1 {
			return true
		}
		if !ordered {
			// Window [p-dist-1, p).
			j := sort.Search(len(rpos), func(k int) bool { return int(rpos[k]) >= p-dist-1 })
			if j < len(rpos) && rpos[j] < lp {
				return true
			}
		}
	}
	return false
}

// Matcher walks the documents a query matches, in ascending id order, and
// reports each ranking term's frequency in the document it stands on.
type Matcher struct {
	sc      *Scratch
	driver  docIter
	nodes   []termNode
	terms   []docIter // the ranking terms, following the driver
	probes  []docIter // a second set, for FreqsAt
	started bool
}

// Match prepares the evaluation of a query: filter decides which documents
// match, and with no filter the documents matching at least one of terms
// do — any other document scores zero under every ranking operator. The
// Matcher works in sc.
func (ix *Index) Match(sc *Scratch, filter query.Expr, terms []query.Term, opts LookupOptions) (Matcher, error) {
	sc.sizeFor(countTerms(filter)+len(terms), len(terms))
	m := Matcher{sc: sc, nodes: take(&sc.nodes, len(terms)), terms: take(&sc.iters, len(terms)), probes: take(&sc.iters, len(terms))}
	var err error
	if filter != nil {
		if m.driver, err = ix.filterIter(sc, filter, opts); err != nil {
			return m, err
		}
	}
	for i, t := range terms {
		if err = ix.resolveTerm(sc, &m.nodes[i], t, opts); err != nil {
			return m, err
		}
		m.terms[i], m.probes[i] = m.nodes[i].iter(sc), m.nodes[i].iter(sc)
	}
	if filter == nil {
		m.driver = newUnion(m.terms...)
	}
	return m, nil
}

// countTerms returns the number of atomic terms in a filter expression.
func countTerms(e query.Expr) int {
	switch n := e.(type) {
	case *query.TermExpr:
		return 1
	case *query.Bin:
		return countTerms(n.L) + countTerms(n.R)
	case *query.Prox:
		return 2
	}
	return 0
}

// Next moves to the next matching document; ok is false after the last.
func (m *Matcher) Next() (id int, ok bool) {
	if m.started {
		m.driver.next()
	}
	m.started = true
	id = m.driver.doc()
	return id, id != maxDocID
}

// freqAt moves a term's iterator up to document id and returns the term's
// frequency there.
func freqAt(it docIter, id int) int {
	if it.seek(id); it.doc() == id {
		return it.freq()
	}
	return 0
}

// Freq returns term i's frequency in the current document.
func (m *Matcher) Freq(i int) int { return freqAt(m.terms[i], m.driver.doc()) }

// DocFreq returns term i's document frequency in the whole collection.
func (m *Matcher) DocFreq(i int) int { return m.nodes[i].docFreq(m.sc) }

// FreqsAt fills tfs with every term's frequency in document id. It is for
// the few documents an answer returns, after the walk: ids must ascend from
// call to call.
func (m *Matcher) FreqsAt(id int, tfs []int) {
	for i, p := range m.probes {
		tfs[i] = freqAt(p, id)
	}
}
