package merge

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"starts/internal/attr"
	"starts/internal/engine"
	"starts/internal/index"
	"starts/internal/lang"
	"starts/internal/meta"
	"starts/internal/query"
	"starts/internal/result"
	"starts/internal/source"
)

// TermStats.Merge and fuse as they were — every TermStats line keyed by a
// string built for it, three times over; document frequencies and weights
// in maps; a heap-allocated record per document, copied again by fuse —
// kept as the oracle of the term table and the value-slice fuse.

func oracleTermKey(t query.Term) string {
	return string(t.EffectiveField()) + "\x00" + strings.ToLower(t.Value.Text)
}

func oracleTermStatsMerge(t TermStats, q *query.Query, inputs []SourceResult) []*result.Document {
	totalDocs := 0
	globalDF := map[string]int{}
	for _, in := range inputs {
		n := 0
		if in.Summary != nil {
			n = in.Summary.NumDocs
		} else {
			n = len(in.Results.Documents)
		}
		totalDocs += n
		perSource := map[string]int{}
		for _, d := range in.Results.Documents {
			for _, s := range d.TermStats {
				key := oracleTermKey(s.Term)
				if s.DocFreq > perSource[key] {
					perSource[key] = s.DocFreq
				}
			}
		}
		for key, df := range perSource {
			globalDF[key] += df
		}
	}
	weights := map[string]float64{}
	expr := q.Ranking
	if expr == nil {
		expr = q.Filter
	}
	if expr != nil {
		for _, t := range expr.Terms(nil) {
			weights[oracleTermKey(t)] = t.EffectiveWeight()
		}
	}

	var items []*merged
	for _, in := range inputs {
		localN := 0
		if in.Summary != nil {
			localN = in.Summary.NumDocs
		}
		for _, d := range in.Results.Documents {
			score := 0.0
			for _, s := range d.TermStats {
				if s.Freq == 0 {
					continue
				}
				n, df := totalDocs, globalDF[oracleTermKey(s.Term)]
				if t.LocalIDF {
					n, df = localN, s.DocFreq
					if n == 0 {
						n = len(in.Results.Documents)
					}
				}
				if df == 0 {
					continue
				}
				w := (1 + math.Log(float64(s.Freq))) * math.Log(1+float64(n)/float64(df))
				wt, ok := weights[oracleTermKey(s.Term)]
				if !ok {
					wt = 1
				}
				score += wt * w
			}
			if d.Count > 1 {
				score /= math.Sqrt(float64(d.Count))
			}
			items = append(items, &merged{doc: d, score: score, order: len(items)})
		}
	}
	return oracleFuse(items, fuseLimit(q))
}

func oracleFuse(items []*merged, limit int) []*result.Document {
	byURL := map[string]*merged{}
	var keep []*merged
	for _, it := range items {
		url := it.doc.Linkage()
		if prev, ok := byURL[url]; ok {
			prev.doc.Sources = appendMissing(prev.doc.Sources, it.doc.Sources)
			if it.score > prev.score {
				prev.score = it.score
				prev.doc.RawScore, prev.doc.TermStats = it.doc.RawScore, it.doc.TermStats
				prev.doc.Size, prev.doc.Count = it.doc.Size, it.doc.Count
			}
			continue
		}
		cp := *it
		byURL[url] = &cp
		keep = append(keep, &cp)
	}
	sort.SliceStable(keep, func(i, j int) bool {
		if keep[i].score != keep[j].score {
			return keep[i].score > keep[j].score
		}
		return keep[i].order < keep[j].order
	})
	if limit > 0 && len(keep) > limit {
		keep = keep[:limit]
	}
	out := make([]*result.Document, len(keep))
	for i, it := range keep {
		out[i] = it.doc
	}
	return out
}

// oracleInputs builds a merge's inputs twice over (merging rewrites
// documents, so each side gets its own): sources that report the query's
// terms in their own case, under their own field spelling, with terms the
// query lacks, zero frequencies and zero document frequencies, duplicate
// linkages across sources, and one source without a summary.
func oracleInputs(seed int64) (a, b []SourceResult) {
	spellings := []query.Term{
		query.NewTerm(attr.FieldBodyOfText, lang.L("databases")),
		query.NewTerm(attr.FieldBodyOfText, lang.L("Databases")),
		query.NewTerm(attr.FieldBodyOfText, lang.L("DATABASES")),
		query.NewTerm(attr.FieldTitle, lang.L("databases")), // differs only in field
		query.NewTerm("Title", lang.L("databases")),         // fields are not folded
		query.NewTerm(attr.FieldBodyOfText, lang.L("distributed")),
		query.NewTerm("", lang.L("distributed")), // any
		query.NewTerm(attr.FieldBodyOfText, lang.L("Ünïcode")),
		query.NewTerm(attr.FieldBodyOfText, lang.L("ÜNÏCODE")),
		query.NewTerm(attr.FieldBodyOfText, lang.L("expanded")), // absent from the query
		query.NewTerm(attr.FieldAuthor, lang.L("Expanded")),
	}
	build := func() []SourceResult {
		rng := rand.New(rand.NewSource(seed))
		var inputs []SourceResult
		for s := 0; s < 4; s++ {
			in := SourceResult{SourceID: fmt.Sprintf("S%d", s), Results: &result.Results{}}
			if s != 2 {
				in.Summary = &meta.ContentSummary{NumDocs: 50 + rng.Intn(500)}
			}
			for d := 0; d < 3+rng.Intn(12); d++ {
				doc := &result.Document{
					RawScore: rng.Float64(), Count: rng.Intn(3000),
					Sources: []string{in.SourceID},
					Fields:  []result.FieldValue{{Field: attr.FieldLinkage, Value: fmt.Sprintf("http://x/%d", rng.Intn(25))}},
				}
				for l := 0; l < rng.Intn(5); l++ {
					doc.TermStats = append(doc.TermStats, result.TermStat{
						Term: spellings[rng.Intn(len(spellings))],
						Freq: rng.Intn(6), DocFreq: rng.Intn(4) * rng.Intn(90),
					})
				}
				in.Results.Documents = append(in.Results.Documents, doc)
			}
			inputs = append(inputs, in)
		}
		return inputs
	}
	return build(), build()
}

// TestTermStatsMatchesStringKeys holds TermStats.Merge, under both IDF
// settings, to the string-key implementation: same documents in the same
// order, same promoted scores and statistics, same attributions.
func TestTermStatsMatchesStringKeys(t *testing.T) {
	rankings := []string{
		`list((body-of-text "databases" 0.4) (body-of-text "distributed"))`,
		`list((body-of-text "DATABASES" 0.4) (title "databases" 0.9) (body-of-text "Databases" 0.2))`, // the last spelling's weight wins
		`list(("Distributed" 0.5) (body-of-text "ünïcode" 0.7))`,
	}
	var queries []*query.Query
	for _, r := range rankings {
		q := rankQuery(t, r)
		q.MaxResults = 8
		queries = append(queries, q)
	}
	filterOnly := query.New()
	filterOnly.Filter, _ = query.ParseFilter(`((title "databases") and (body-of-text "expanded"))`)
	queries = append(queries, filterOnly)
	for seed := int64(1); seed <= 25; seed++ {
		for qi, q := range queries {
			for _, strat := range []TermStats{{}, {LocalIDF: true}} {
				mine, theirs := oracleInputs(seed)
				got, want := strat.Merge(q, mine), oracleTermStatsMerge(strat, q, theirs)
				if len(got) != len(want) {
					t.Fatalf("seed %d query %d %s: %d documents, oracle %d", seed, qi, strat.Name(), len(got), len(want))
				}
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("seed %d query %d %s rank %d:\n got %+v\nwant %+v", seed, qi, strat.Name(), i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestMergeLeavesSourceAttributionAlone: a source stamps one shared
// len-1/cap-1 slice on everything it returns, so collapsing a duplicate
// across two sources must grow a copy — the survivor names both, and what
// either source returns afterwards still names only itself.
func TestMergeLeavesSourceAttributionAlone(t *testing.T) {
	var srcs []*source.Source
	for _, id := range []string{"s1", "s2"} {
		eng, err := engine.New(engine.NewVectorConfig())
		if err != nil {
			t.Fatal(err)
		}
		s, err := source.New(id, eng)
		if err != nil {
			t.Fatal(err)
		}
		for _, url := range []string{"http://shared/doc", "http://" + id + "/own"} {
			if err := s.Add(&index.Document{Linkage: url, Title: "t", Body: "distributed databases"}); err != nil {
				t.Fatal(err)
			}
		}
		srcs = append(srcs, s)
	}
	q := rankQuery(t, `list((body-of-text "databases"))`)
	search := func() []SourceResult {
		var inputs []SourceResult
		for _, s := range srcs {
			res, err := s.Search(q)
			if err != nil {
				t.Fatal(err)
			}
			inputs = append(inputs, SourceResult{SourceID: s.ID(), Results: res})
		}
		return inputs
	}
	for _, strat := range []Strategy{TermStats{}, RawScore{}} {
		shared := 0
		for _, d := range strat.Merge(q, search()) {
			if d.Linkage() == "http://shared/doc" {
				shared++
				if !reflect.DeepEqual(d.Sources, []string{"s1", "s2"}) {
					t.Errorf("%s: shared document attributed to %v", strat.Name(), d.Sources)
				}
			} else if len(d.Sources) != 1 {
				t.Errorf("%s: %s attributed to %v", strat.Name(), d.Linkage(), d.Sources)
			}
		}
		if shared != 1 {
			t.Errorf("%s: shared document appears %d times", strat.Name(), shared)
		}
		for _, in := range search() {
			for _, d := range append(in.Results.Documents, &result.Document{Sources: in.Results.Sources}) {
				if len(d.Sources) != 1 || cap(d.Sources) != 1 || d.Sources[0] != in.SourceID {
					t.Fatalf("%s: after a merge, %s returns attribution %v (cap %d)", strat.Name(), in.SourceID, d.Sources, cap(d.Sources))
				}
			}
		}
	}
}
