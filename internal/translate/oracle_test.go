package translate

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"starts/internal/attr"
	"starts/internal/engine"
	"starts/internal/meta"
	"starts/internal/query"
	"starts/internal/source"
	"starts/internal/text"
)

// The translation ForSource replaced — a copy of the query's slices, a
// stop list built from m.StopWords for every call, the three capability
// lists scanned per term, every node rebuilt — kept as the oracle of the
// compiled lookups that hang off a *meta.SourceMeta and of the
// copy-on-write rewrite.

func oracleForSource(q *query.Query, m *meta.SourceMeta) (*query.Query, *Report) {
	c := *q
	c.Sources, c.AnswerFields, c.SortBy = slices.Clone(q.Sources), slices.Clone(q.AnswerFields), slices.Clone(q.SortBy)
	out := &c
	out.Filter, out.Ranking = out.ResolveAttributeSet()
	out.DefaultAttrSet = attr.SetBasic1
	rep := &Report{}
	dropStop := q.DropStopWords
	if !q.DropStopWords && !m.TurnOffStopWords {
		rep.KeepStopWordsDenied = true
		dropStop = true
	}
	tr := &oracleTranslator{m: m, rep: rep, stop: text.NewStopList(m.SourceID+"-stopwords", m.StopWords), dropStop: dropStop}
	if !m.QueryParts.SupportsFilter() {
		if out.Filter != nil {
			rep.DroppedFilter = true
			rep.DroppedTerms = append(rep.DroppedTerms, out.Filter.Terms(nil)...)
			out.Filter = nil
		}
	} else {
		out.Filter = tr.rewrite(out.Filter)
	}
	if !m.QueryParts.SupportsRanking() {
		if out.Ranking != nil {
			rep.DroppedRanking = true
			out.Ranking = nil
		}
	} else {
		out.Ranking = tr.rewrite(out.Ranking)
	}
	if out.Filter == nil && out.Ranking == nil {
		switch {
		case rep.DroppedRanking && q.Ranking != nil:
			if f := tr.rewrite(orOfTerms(q.Ranking)); f != nil {
				out.Filter = f
				rep.SynthesizedFilter = true
			}
		case rep.DroppedFilter && q.Filter != nil:
			if r := tr.rewrite(listOfTerms(q.Filter)); r != nil {
				out.Ranking = r
				rep.SynthesizedRanking = true
				rep.DroppedTerms = append(rep.DroppedTerms, q.Filter.Terms(nil)...)
			}
		}
	}
	return out, rep
}

type oracleTranslator struct {
	m        *meta.SourceMeta
	rep      *Report
	stop     *text.StopList
	dropStop bool
}

func (tr *oracleTranslator) rewrite(e query.Expr) query.Expr {
	switch n := e.(type) {
	case nil:
		return nil
	case *query.TermExpr:
		return tr.rewriteTerm(n)
	case *query.Bin:
		l, r := tr.rewrite(n.L), tr.rewrite(n.R)
		switch {
		case l == nil && r == nil:
			return nil
		case l == nil:
			if n.Op == query.OpAndNot {
				return nil
			}
			return r
		case r == nil:
			return l
		default:
			return &query.Bin{Op: n.Op, L: l, R: r}
		}
	case *query.Prox:
		l, r := tr.rewrite(n.L), tr.rewrite(n.R)
		lt, lok := l.(*query.TermExpr)
		rt, rok := r.(*query.TermExpr)
		switch {
		case lok && rok:
			return &query.Prox{L: lt, R: rt, Dist: n.Dist, Ordered: n.Ordered}
		case lok:
			return lt
		case rok:
			return rt
		default:
			return nil
		}
	case *query.List:
		out := &query.List{}
		for _, it := range n.Items {
			if kept := tr.rewrite(it); kept != nil {
				out.Items = append(out.Items, kept)
			}
		}
		if len(out.Items) == 0 {
			return nil
		}
		return out
	default:
		return nil
	}
}

func (tr *oracleTranslator) rewriteTerm(te *query.TermExpr) query.Expr {
	t := te.Term
	if !tr.supportsField(t.EffectiveField()) {
		tr.rep.DroppedTerms = append(tr.rep.DroppedTerms, t)
		return nil
	}
	var kept []attr.Modifier
	for _, mod := range t.Mods {
		if tr.supportsModifier(mod) && tr.allowsCombination(t.EffectiveField(), mod) {
			kept = append(kept, mod)
			continue
		}
		tr.rep.StrippedMods = append(tr.rep.StrippedMods, ModStrip{Term: t, Mod: mod})
	}
	t.Mods = kept
	if tr.dropStop && tr.allStopWords(t) {
		tr.rep.DroppedTerms = append(tr.rep.DroppedTerms, t)
		return nil
	}
	return &query.TermExpr{Term: t}
}

func (tr *oracleTranslator) supportsField(f attr.Field) bool {
	f = attr.Normalize(f)
	if f.IsRequired() {
		return true
	}
	for _, fs := range tr.m.FieldsSupported {
		if attr.Normalize(fs.Field) == f {
			return true
		}
	}
	return false
}

func (tr *oracleTranslator) supportsModifier(mod attr.Modifier) bool {
	for _, ms := range tr.m.ModifiersSupported {
		if ms.Mod == mod {
			return true
		}
	}
	return false
}

func (tr *oracleTranslator) allowsCombination(f attr.Field, mod attr.Modifier) bool {
	f = attr.Normalize(f)
	for _, c := range tr.m.Combinations {
		if attr.Normalize(c.Field.Field) == f && c.Mod.Mod == mod {
			return true
		}
	}
	return false
}

func (tr *oracleTranslator) allStopWords(t query.Term) bool {
	if tr.stop.Len() == 0 {
		return false
	}
	switch t.EffectiveField() {
	case attr.FieldTitle, attr.FieldAuthor, attr.FieldBodyOfText, attr.FieldAny:
	default:
		return false
	}
	words := strings.FieldsFunc(t.Value.Text, func(r rune) bool {
		return r == ' ' || r == '\t' || r == ',' || r == '.' || r == ';'
	})
	if len(words) == 0 {
		return false
	}
	for _, w := range words {
		if !tr.stop.Contains(w) {
			return false
		}
	}
	return true
}

// oracleMetas is the metadata set of the translation experiment (X4 in
// the root package's paper_test.go: the reference engine and four hobbled
// ones, as their sources export them), fullMeta, and variations on it.
func oracleMetas(t testing.TB) []*meta.SourceMeta {
	t.Helper()
	noAuthor := engine.NewVectorConfig()
	noAuthor.Fields = []attr.Field{attr.FieldBodyOfText}
	noMods := engine.NewVectorConfig()
	noMods.Mods = []attr.Modifier{attr.ModEQ}
	titleOnly := engine.NewVectorConfig()
	titleOnly.Fields = nil
	rankingOnly := engine.NewVectorConfig()
	rankingOnly.QueryParts = meta.PartsRanking
	var out []*meta.SourceMeta
	for i, cfg := range []engine.Config{engine.NewVectorConfig(), noAuthor, noMods, engine.NewBooleanConfig(), titleOnly, rankingOnly} {
		eng, err := engine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := source.New(fmt.Sprintf("profile-%d", i), eng)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s.Metadata())
	}
	noTurnOff := fullMeta()
	noTurnOff.TurnOffStopWords = false
	mixedCase := fullMeta()
	mixedCase.StopWords = []string{"The", "WHO", "of"}
	mixedCase.FieldsSupported[0].Field = "Author"
	mixedCase.Combinations[2].Field.Field = "AUTHOR"
	return append(out, fullMeta(), noTurnOff, mixedCase, &meta.SourceMeta{SourceID: "bare", QueryParts: meta.PartsBoth})
}

var oracleQueries = [][2]string{
	{`((author "Ullman") and (body-of-text stem "databases"))`, `list((body-of-text "distributed") (body-of-text "databases"))`},
	{`((author "Garcia") and ((title stem "the") or (body-of-text "of who")))`, `list((body-of-text "the who") (title phonetic "Ullman" 0.3))`},
	{`((title "The, of; a.") and-not (any thesaurus "x"))`, ``},
	{``, `list(("who") (linkage-type "text/html") (Author stem phonetic "knuth"))`},
	{`((title "digital") prox[2,T] (body-of-text "the"))`, `((body-of-text "a") and (body-of-text "libraries"))`},
	{`(date-last-modified > "1996-01-01")`, `list((free-form-text "x") (cross-reference-linkage "http://a"))`},
	{`(body-of-text "...")`, `list((body-of-text "  "))`},
	{"((body-of-text \"the\twho;\") or (title \"of \u00e9t\u00e9\"))", ``},
}

// TestForSourceMatchesOracle holds ForSource to the translation it
// replaced, with stop words dropped and kept, asked twice of the same
// metadata (the second call finds everything compiled).
func TestForSourceMatchesOracle(t *testing.T) {
	for _, m := range oracleMetas(t) {
		for _, src := range oracleQueries {
			for _, keep := range []bool{false, true} {
				q := mkQuery(t, src[0], src[1])
				q.DropStopWords = !keep
				wantQ, wantRep := oracleForSource(q, m)
				for call := 0; call < 2; call++ {
					gotQ, gotRep := ForSource(q, m)
					if !reflect.DeepEqual(gotQ, wantQ) || !reflect.DeepEqual(gotRep, wantRep) {
						t.Fatalf("%s, filter %q ranking %q keep=%v, call %d:\n got %v / %v %+v\nwant %v / %v %+v",
							m.SourceID, src[0], src[1], keep, call, gotQ.Filter, gotQ.Ranking, gotRep, wantQ.Filter, wantQ.Ranking, wantRep)
					}
				}
			}
		}
	}
}

// FuzzForSourceMatchesOracle holds ForSource to the copying translation
// over whatever filter and ranking the parser accepts, for every metadata
// of oracleMetas, with stop words kept or dropped and under Basic-1 or
// dc-1, and requires the caller's query to be what it was.
func FuzzForSourceMatchesOracle(f *testing.F) {
	for i, src := range oracleQueries {
		f.Add(src[0], src[1], uint8(i))
	}
	f.Add(`((creator "Ullman") prox[3,F] (description "the"))`, `list((Creator "x") ("y" 0.5) (date > "1996"))`, uint8(3))
	metas := oracleMetas(f)
	f.Fuzz(func(t *testing.T, filter, ranking string, spec uint8) {
		parse := func() *query.Query {
			q := query.New()
			q.Filter, _ = query.ParseFilter(filter)
			q.Ranking, _ = query.ParseRanking(ranking)
			q.DropStopWords = spec&1 == 0
			if spec&2 != 0 {
				q.DefaultAttrSet = attr.SetDC1
			}
			return q
		}
		q, before := parse(), parse()
		if q.Validate() != nil {
			return
		}
		for _, m := range metas {
			wantQ, wantRep := oracleForSource(q, m)
			gotQ, gotRep := ForSource(q, m)
			if !reflect.DeepEqual(gotQ, wantQ) || !reflect.DeepEqual(gotRep, wantRep) {
				t.Fatalf("%s, filter %q ranking %q spec %d:\n got %v / %v %+v\nwant %v / %v %+v",
					m.SourceID, filter, ranking, spec, gotQ.Filter, gotQ.Ranking, gotRep, wantQ.Filter, wantQ.Ranking, wantRep)
			}
			if !reflect.DeepEqual(q, before) {
				t.Fatalf("%s, filter %q ranking %q spec %d: translation changed the query to %v / %v",
					m.SourceID, filter, ranking, spec, q.Filter, q.Ranking)
			}
		}
	})
}

// TestForSourceSharesUnchangedNodes pins the sharing contract: a lossless
// translation is a fresh *query.Query holding the caller's expressions; a
// lossy one rebuilds only the nodes above the changed term and shares
// their untouched siblings; every call returns a query of its own; and
// the caller's query is never written.
func TestForSourceSharesUnchangedNodes(t *testing.T) {
	m := fullMeta()
	check := func(filter, ranking string, look func(q, sent *query.Query, rep *Report)) {
		t.Helper()
		q, before := mkQuery(t, filter, ranking), mkQuery(t, filter, ranking)
		sent, rep := ForSource(q, m)
		again, _ := ForSource(q, m)
		if sent == q || again == q || sent == again {
			t.Errorf("filter %s ranking %s: ForSource returned the caller's query or one query twice", filter, ranking)
		}
		look(q, sent, rep)
		if !reflect.DeepEqual(q, before) {
			t.Errorf("filter %s ranking %s: translation changed the query", filter, ranking)
		}
	}
	check(`((author "Ullman") and (body-of-text stem "databases"))`, `list((body-of-text "distributed") ("databases" 0.5))`,
		func(q, sent *query.Query, rep *Report) {
			if !rep.Clean() || sent.Filter != q.Filter || sent.Ranking != q.Ranking {
				t.Errorf("lossless translation rebuilt its expressions (%+v)", rep)
			}
			if &sent.AnswerFields[0] != &q.AnswerFields[0] || &sent.SortBy[0] != &q.SortBy[0] {
				t.Error("lossless translation copied the answer specification")
			}
		})
	check(`(((author "Ullman") and (body-of-text "systems")) or (body-of-text "the"))`,
		`list((body-of-text "distributed") (body-of-text thesaurus "databases") ((author "Ullman") or (body-of-text "systems")))`,
		func(q, sent *query.Query, rep *Report) {
			if got := sent.Filter; got != q.Filter.(*query.Bin).L {
				t.Errorf("dropping the right operand sent %s, not the shared left operand", got)
			}
			in, out := q.Ranking.(*query.List), sent.Ranking.(*query.List)
			if out == in || out.Items[0] != in.Items[0] || out.Items[2] != in.Items[2] || out.Items[1] == in.Items[1] {
				t.Errorf("stripping one term's modifier sent %s sharing %v, want all but that term shared", out, out.Items)
			}
			if got := out.Items[1].String(); got != `(body-of-text "databases")` || len(rep.StrippedMods) != 1 {
				t.Errorf("the stripped term went as %s (%+v)", got, rep)
			}
		})
}

// TestForSourceUsesTheNewHarvest is the staleness test: a re-harvest
// publishes a new SourceMeta, and what was compiled for the old one must
// not answer for it.
func TestForSourceUsesTheNewHarvest(t *testing.T) {
	q := mkQuery(t, `((title "the") and (body-of-text "databases"))`, ``)
	first := fullMeta()
	if _, rep := ForSource(q, first); len(rep.DroppedTerms) != 1 {
		t.Fatalf("first harvest lists \"the\": dropped %v", rep.DroppedTerms)
	}
	second := fullMeta() // the same source, harvested again: its list changed
	second.StopWords = []string{"databases"}
	second.FieldsSupported = second.FieldsSupported[:1] // and body-of-text is gone
	sent, rep := ForSource(q, second)
	wantSent, wantRep := oracleForSource(q, second)
	if !reflect.DeepEqual(sent, wantSent) || !reflect.DeepEqual(rep, wantRep) {
		t.Fatalf("second harvest: got %v %+v, want %v %+v", sent.Filter, rep, wantSent.Filter, wantRep)
	}
	if got := sent.Filter.String(); got != `(title "the")` {
		t.Errorf("second harvest sent %s: the first harvest's stop list or fields answered", got)
	}
	if _, rep := ForSource(q, first); len(rep.DroppedTerms) != 1 {
		t.Errorf("the first harvest's object changed its answer: dropped %v", rep.DroppedTerms)
	}
}

// TestForSourceAllocations pins the hoist and the copy-on-write rewrite:
// translating for a harvested source builds no stop set, checking a term
// against the stop list splits no words, and a lossless translation
// allocates the sent query and its report and shares every node. The
// ceiling is the measured 2 (9 while the query's slices were copied and
// every node rebuilt, 11 while the check split each term with
// strings.FieldsFunc) plus a quarter.
func TestForSourceAllocations(t *testing.T) {
	m := fullMeta()
	for i := 0; i < 200; i++ {
		m.StopWords = append(m.StopWords, fmt.Sprintf("w%d", i))
	}
	q := mkQuery(t, ``, `list((body-of-text "distributed") (body-of-text "databases"))`)
	ForSource(q, m)
	n := testing.AllocsPerRun(100, func() { ForSource(q, m) })
	t.Logf("lossless ForSource: %.0f allocations", n)
	if n > 2.5 {
		t.Errorf("ForSource allocates %.0f objects on compiled metadata; a 200-word stop set alone is more", n)
	}
}
