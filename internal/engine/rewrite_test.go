package engine

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"starts/internal/attr"
	"starts/internal/index"
	"starts/internal/meta"
	"starts/internal/query"
	"starts/internal/text"
)

// The copying rewrite Engine.rewrite replaced — every node rebuilt, every
// kept term a new node with a new modifier slice — kept as the oracle of
// the actual query Search echoes.

func (e *Engine) oracleRewrite(s *search, expr query.Expr, opts index.LookupOptions, ranking bool) query.Expr {
	switch n := expr.(type) {
	case nil:
		return nil
	case *query.TermExpr:
		return e.oracleRewriteTerm(s, n, opts, ranking)
	case *query.Bin:
		l := e.oracleRewrite(s, n.L, opts, ranking)
		r := e.oracleRewrite(s, n.R, opts, ranking)
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
		l := e.oracleRewrite(s, n.L, opts, ranking)
		r := e.oracleRewrite(s, n.R, opts, ranking)
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
		out := &query.List{Items: make([]query.Expr, 0, len(n.Items))}
		for _, it := range n.Items {
			if kept := e.oracleRewrite(s, it, opts, ranking); kept != nil {
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

func (e *Engine) oracleRewriteTerm(s *search, te *query.TermExpr, opts index.LookupOptions, ranking bool) query.Expr {
	t := te.Term
	if !e.SupportsField(t.EffectiveField()) {
		return nil
	}
	if t.EffectiveField() == attr.FieldDocumentText {
		if !ranking {
			return nil
		}
		return e.expandDocumentText(s.ix, t, opts)
	}
	var mods []attr.Modifier
	for _, m := range t.Mods {
		if e.SupportsModifier(m) && e.AllowsCombination(t.EffectiveField(), m) {
			mods = append(mods, m)
		}
	}
	t.Mods = mods
	if e.eliminated(s, t, opts) {
		return nil
	}
	return &query.TermExpr{Term: t}
}

// oracleActualQuery is the actual query the oracle echoes for q at e.
func oracleActualQuery(e *Engine, q *query.Query) (filter, ranking query.Expr) {
	s := &search{ix: e.Index(), sc: new(index.Scratch)}
	opts := index.LookupOptions{DropStopWords: q.DropStopWords || !e.cfg.TurnOffStopWords}
	filter, ranking = q.ResolveAttributeSet()
	if e.cfg.QueryParts.SupportsFilter() {
		filter = e.oracleRewrite(s, filter, opts, false)
	} else {
		filter = nil
	}
	if e.cfg.QueryParts.SupportsRanking() {
		ranking = e.oracleRewrite(s, ranking, opts, true)
	} else {
		ranking = nil
	}
	return filter, ranking
}

// requireActualMatchesOracle searches q at e and requires the actual query
// to print as the oracle's and to be reflect.DeepEqual to it, and q's
// expressions to be DeepEqual to before's: the search wrote nothing
// through the nodes it shares with q.
func requireActualMatchesOracle(t *testing.T, e *Engine, q, before *query.Query, what string) {
	t.Helper()
	res, err := e.Search(q)
	if err != nil {
		return // a malformed value fails after the rewrite, the same either way
	}
	wantF, wantR := oracleActualQuery(e, q)
	str := func(x query.Expr) string {
		if x == nil {
			return ""
		}
		return x.String()
	}
	if str(res.ActualFilter) != str(wantF) || str(res.ActualRanking) != str(wantR) ||
		!reflect.DeepEqual(res.ActualFilter, wantF) || !reflect.DeepEqual(res.ActualRanking, wantR) {
		t.Fatalf("%s: actual query %q / %q, oracle %q / %q",
			what, str(res.ActualFilter), str(res.ActualRanking), str(wantF), str(wantR))
	}
	if !reflect.DeepEqual(q.Filter, before.Filter) || !reflect.DeepEqual(q.Ranking, before.Ranking) {
		t.Fatalf("%s: the search changed the query to %q / %q", what, str(q.Filter), str(q.Ranking))
	}
}

// TestActualQueryMatchesOracle holds the copy-on-write actual query to the
// copying rewrite it replaced, under every differential profile and three
// hobbled ones, over the fuzz seed corpus and the cases that drop, strip,
// collapse and expand: stop words kept and dropped, unsupported modifiers
// and fields, and-not and prox losing an operand, document text, and dc-1
// fields.
func TestActualQueryMatchesOracle(t *testing.T) {
	docs := diffUniverse(20)
	noMods := NewVectorConfig()
	noMods.Mods = []attr.Modifier{attr.ModEQ}
	bodyOnly := NewVectorConfig()
	bodyOnly.Fields = []attr.Field{attr.FieldBodyOfText}
	rankingOnly := NewVectorConfig()
	rankingOnly.QueryParts = meta.PartsRanking
	custom := *rankingOnly.Analyzer
	custom.Stop = text.NewStopList("custom", append([]string{"distributed"}, text.EnglishStopWords().Words()...))
	rankingOnly.Analyzer = &custom
	configs := append(diffConfigs(), []struct {
		name string
		cfg  Config
	}{{"no modifiers", noMods}, {"body only", bodyOnly}, {"ranking only, custom stop list", rankingOnly}}...)

	filters := slices.Concat(seedFilters, []string{
		`((title "the") and (body-of-text "database"))`,
		`((title "the of") and-not (body-of-text "database"))`,
		`((body-of-text "database") and-not (title "who"))`,
		`((title "the") prox[2,F] (body-of-text "database"))`,
		`((linkage-type "text/html") prox[2,F] (author "Turing"))`,
		`((author phonetic "Turring") or (title stem case-sensitive "Databases"))`,
		`((body-of-text thesaurus "database") and-not (free-form-text "x"))`,
		`((document-text "distributed databases") and (author "Ullman"))`,
		`((creator "Turing") or (description stem "databases"))`,
	})
	rankings := slices.Concat(seedRankings, []string{
		`list(("the") ("database") (title "of who"))`,
		`list((author phonetic "Turring") (body-of-text thesaurus "database" 0.5) ("distributed"))`,
		`list((document-text "transaction recovery locking replication of distributed relational storage") ("query" 0.4))`,
		`((document-text "distributed databases") prox[3,F] ("query"))`,
		`(("query") prox[3,F] (document-text "distributed databases"))`,
		`(("the") and-not ("database"))`,
		`list((creator "Turing") (description "query"))`,
	})
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			e, err := NewWithDocs(c.cfg, docs, 2)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range filters {
				for _, r := range rankings {
					if f == "" && r == "" {
						continue
					}
					for _, keep := range []bool{false, true} {
						for _, set := range []attr.SetName{attr.SetBasic1, attr.SetDC1} {
							mk := func() *query.Query {
								q := mkQuery(t, f, r)
								q.DropStopWords, q.DefaultAttrSet = !keep, set
								return q
							}
							requireActualMatchesOracle(t, e, mk(), mk(), fmt.Sprintf("filter %s ranking %s keep=%v set=%s", f, r, keep, set))
						}
					}
				}
			}
		})
	}
}
