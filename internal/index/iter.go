package index

import (
	"fmt"
	"sort"

	"starts/internal/attr"
	"starts/internal/query"
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

func newTermCursor(lists []*postingList) *termCursor {
	tc := &termCursor{curs: make([]*listCursor, len(lists))}
	for i, pl := range lists {
		tc.curs[i] = newListCursor(pl)
	}
	tc.align()
	return tc
}

// positions returns the word's positions in the current document,
// ascending: the posting's own slice unless several expansions of the
// word occur in the document.
func (tc *termCursor) positions() []int {
	var pos []int
	for _, c := range tc.curs {
		switch {
		case c.doc() != tc.cur:
		case pos == nil:
			pos = c.posting().Positions
		default:
			pos = mergePositions(pos, c.posting().Positions)
		}
	}
	return pos
}

// posIter is a text term within one field together with where in the
// document it matches — what a proximity check needs from its operands. A
// one-word value matches at the word's positions; a value of several
// words is a phrase and matches where word i stands at position p+i for
// every i, p being the match position.
type posIter struct {
	words []*termCursor // per word of the value: its expansion lists in the field
	cur   int
	pos   []int   // match positions in cur
	at    [][]int // scratch: each word's positions in the candidate document
	buf   []int   // scratch behind pos for a phrase
}

// newPosIter takes each word's expansion lists in the field.
func newPosIter(lists [][]*postingList) *posIter {
	p := &posIter{words: make([]*termCursor, len(lists)), at: make([][]int, len(lists))}
	for i, l := range lists {
		p.words[i] = newTermCursor(l)
	}
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
			w := p.words[i]
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
	for i, w := range p.words {
		p.at[i] = w.positions()
	}
	if len(p.words) == 1 {
		p.pos = p.at[0]
		return true
	}
	p.buf = p.buf[:0]
starts:
	for _, s := range p.at[0] {
		for i := 1; i < len(p.at); i++ {
			if !containsInt(p.at[i], s+i) {
				continue starts
			}
		}
		p.buf = append(p.buf, s)
	}
	p.pos = p.buf
	return len(p.pos) > 0
}

func (p *posIter) doc() int  { return p.cur }
func (p *posIter) freq() int { return len(p.pos) }
func (p *posIter) next()     { p.words[0].advance(); p.settle() }
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

// unionIter matches the documents any of its operands matches; a document's
// frequency is the sum over the operands matching it, as an "any"-field
// term sums its fields.
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

func newWhere(in docIter, keep func(id int) bool) *whereIter {
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
// cheap to make from then on.
type termNode struct {
	iter  func() docIter
	count func() int // the document frequency, when there is a shorter way than counting iter()
	df    int        // negative until asked for
}

// docFreq returns the number of documents the term matches in the whole
// collection, whatever filter the query carries.
func (n *termNode) docFreq() int {
	if n.df < 0 {
		if n.count != nil {
			n.df = n.count()
		} else {
			n.df = countDocs(n.iter())
		}
	}
	return n.df
}

var noDocs = &termNode{iter: func() docIter { return &idsIter{} }}

// resolveTerm maps an atomic term to its node. The errors are those of
// malformed values: an unparsable date or language tag, a failing native
// handler.
func (ix *Index) resolveTerm(t query.Term, opts LookupOptions) (*termNode, error) {
	if pred, err := docPredicate(t); err != nil {
		return nil, err
	} else if pred != nil {
		return &termNode{df: -1, iter: func() docIter {
			return newWhere(&allIter{n: len(ix.docs)}, func(id int) bool { return pred(ix.docs[id]) })
		}}, nil
	}
	f := t.EffectiveField()
	if f == attr.FieldFreeFormText {
		ids, err := ix.nativeIDs(t, opts)
		if err != nil {
			return nil, err
		}
		return &termNode{df: len(ids), iter: func() docIter { return &idsIter{ids: ids} }}, nil
	}
	fields := textFieldsOf(f)
	words := ix.termWords(t, opts)
	if len(fields) == 0 || len(words) == 0 {
		// A field the index does not hold, or nothing left to match.
		return noDocs, nil
	}
	inLang := ix.languageCheck(t, opts)
	if len(words) == 1 {
		rl := ix.wordLists(fields, words[0], t, opts)
		rl.inLang = inLang
		return &termNode{df: -1, iter: rl.iter, count: rl.count}, nil
	}
	// A phrase: positional, so matched field by field and summed.
	var perField [][][]*postingList
	for _, f := range fields {
		if lists := ix.phraseLists(f, words, t, opts); lists != nil {
			perField = append(perField, lists)
		}
	}
	return &termNode{df: -1, iter: func() docIter {
		kids := make([]docIter, len(perField))
		for i, lists := range perField {
			kids[i] = newPosIter(lists)
		}
		if len(kids) == 0 {
			return &idsIter{}
		}
		return filtered(newUnion(kids...), inLang)
	}}, nil
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
	return func(id int) bool { return ix.docs[id].InLanguage(tag) }
}

func filtered(it docIter, keep func(id int) bool) docIter {
	if keep == nil {
		return it
	}
	return newWhere(it, keep)
}

// phraseLists resolves each word of a value to its expansion lists in one
// field; nil when some word has none there, so the value cannot match.
func (ix *Index) phraseLists(f attr.Field, words []string, t query.Term, opts LookupOptions) [][]*postingList {
	lists := make([][]*postingList, len(words))
	for i, w := range words {
		if lists[i] = ix.wordLists([]attr.Field{f}, w, t, opts).lists; len(lists[i]) == 0 {
			return nil
		}
	}
	return lists
}

// filterIter builds the iterator of a filter expression. The expression
// should already have been capability-rewritten by the engine (stop-word-
// only terms stripped); a term that still eliminates entirely under opts
// matches nothing.
func (ix *Index) filterIter(e query.Expr, opts LookupOptions) (docIter, error) {
	switch n := e.(type) {
	case *query.TermExpr:
		node, err := ix.resolveTerm(n.Term, opts)
		if err != nil {
			return nil, err
		}
		return node.iter(), nil
	case *query.Bin:
		l, err := ix.filterIter(n.L, opts)
		if err != nil {
			return nil, err
		}
		r, err := ix.filterIter(n.R, opts)
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
		return ix.proxIter(n, opts)
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
func (ix *Index) proxIter(p *query.Prox, opts LookupOptions) (docIter, error) {
	fields, err := proxFields(p)
	if err != nil {
		return nil, err
	}
	lw, rw := ix.termWords(p.L.Term, opts), ix.termWords(p.R.Term, opts)
	if len(lw) == 0 || len(rw) == 0 {
		fields = nil // a term with nothing left to match
	}
	lLang, rLang := ix.languageCheck(p.L.Term, opts), ix.languageCheck(p.R.Term, opts)
	var kids []docIter
	for _, f := range fields {
		ll, rl := ix.phraseLists(f, lw, p.L.Term, opts), ix.phraseLists(f, rw, p.R.Term, opts)
		if ll == nil || rl == nil {
			continue
		}
		l, r := newPosIter(ll), newPosIter(rl)
		kids = append(kids, newWhere(newJoin(l, r, false), func(id int) bool {
			return proxSatisfied(l.pos, r.pos, p.Dist, p.Ordered) &&
				(lLang == nil || lLang(id)) && (rLang == nil || rLang(id))
		}))
	}
	if len(kids) == 0 {
		return &idsIter{}, nil
	}
	return newUnion(kids...), nil
}

// proxSatisfied reports whether some pair of positions satisfies the
// word-distance constraint: at most dist words between the terms, with the
// left term first when ordered.
func proxSatisfied(lpos, rpos []int, dist int, ordered bool) bool {
	for _, lp := range lpos {
		// Right-position window for ordered: (lp, lp+dist+1].
		i := sort.SearchInts(rpos, lp+1)
		if i < len(rpos) && rpos[i] <= lp+dist+1 {
			return true
		}
		if !ordered {
			// Window [lp-dist-1, lp).
			j := sort.SearchInts(rpos, lp-dist-1)
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
	driver  docIter
	nodes   []*termNode
	terms   []docIter // the ranking terms, following the driver
	probes  []docIter // a second set, for FreqsAt
	started bool
}

// Match prepares the evaluation of a query: filter decides which documents
// match, and with no filter the documents matching at least one of terms
// do — any other document scores zero under every ranking operator.
func (s Snapshot) Match(filter query.Expr, terms []query.Term, opts LookupOptions) (*Matcher, error) {
	m := &Matcher{nodes: make([]*termNode, len(terms)), terms: make([]docIter, len(terms))}
	if filter != nil {
		var err error
		if m.driver, err = s.ix.filterIter(filter, opts); err != nil {
			return nil, err
		}
	}
	for i, t := range terms {
		node, err := s.ix.resolveTerm(t, opts)
		if err != nil {
			return nil, err
		}
		m.nodes[i], m.terms[i] = node, node.iter()
	}
	if filter == nil {
		if len(terms) == 0 {
			m.driver = &idsIter{}
		} else {
			m.driver = newUnion(m.terms...)
		}
	}
	return m, nil
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
func (m *Matcher) DocFreq(i int) int { return m.nodes[i].docFreq() }

// FreqsAt fills tfs with every term's frequency in document id. It is for
// the few documents an answer returns, after the walk: ids must ascend from
// call to call.
func (m *Matcher) FreqsAt(id int, tfs []int) {
	if m.probes == nil {
		m.probes = make([]docIter, len(m.nodes))
		for i, n := range m.nodes {
			m.probes[i] = n.iter()
		}
	}
	for i, p := range m.probes {
		tfs[i] = freqAt(p, id)
	}
}
