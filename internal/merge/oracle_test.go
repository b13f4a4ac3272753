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

// The strategies' batch merges and fuse as they were — each strategy
// scoring in its own Merge body, every TermStats line keyed by a string
// built for it, three times over, document frequencies and weights in
// maps; a heap-allocated record per document ranked by (score, arrival),
// copied again by fuse — kept as the oracles of the one scorer per
// strategy, the term table and the keyed fuse.

// oracleItem is the old working record: arrival order where Item has a key.
type oracleItem struct {
	doc   *result.Document
	score float64
	order int
}

func oracleRawScoreMerge(q *query.Query, inputs []SourceResult) []*result.Document {
	var items []*oracleItem
	for _, in := range inputs {
		for _, d := range in.Results.Documents {
			items = append(items, &oracleItem{doc: d, score: d.RawScore, order: len(items)})
		}
	}
	return oracleFuse(items, fuseLimit(q))
}

func oracleScaledMerge(q *query.Query, inputs []SourceResult) []*result.Document {
	var items []*oracleItem
	for _, in := range inputs {
		lo, hi := 0.0, 0.0
		if in.Meta != nil {
			lo, hi = in.Meta.ScoreMin, in.Meta.ScoreMax
		}
		if in.Meta == nil || math.IsInf(hi, 1) || hi <= lo {
			lo = 0
			hi = 0
			for _, d := range in.Results.Documents {
				if d.RawScore > hi {
					hi = d.RawScore
				}
			}
		}
		span := hi - lo
		for _, d := range in.Results.Documents {
			s := 0.0
			if span > 0 {
				s = (d.RawScore - lo) / span
			}
			items = append(items, &oracleItem{doc: d, score: s, order: len(items)})
		}
	}
	return oracleFuse(items, fuseLimit(q))
}

func oracleRoundRobinMerge(q *query.Query, inputs []SourceResult) []*result.Document {
	var items []*oracleItem
	maxLen := 0
	for _, in := range inputs {
		if len(in.Results.Documents) > maxLen {
			maxLen = len(in.Results.Documents)
		}
	}
	for pos := 0; pos < maxLen; pos++ {
		for _, in := range inputs {
			if pos < len(in.Results.Documents) {
				d := in.Results.Documents[pos]
				// Score encodes the interleave position so fuse sorts it.
				items = append(items, &oracleItem{doc: d, score: -float64(pos), order: len(items)})
			}
		}
	}
	return oracleFuse(items, fuseLimit(q))
}

// oracleMerge is s's batch merge as it was.
func oracleMerge(s Strategy, q *query.Query, inputs []SourceResult) []*result.Document {
	switch s := s.(type) {
	case RawScore:
		return oracleRawScoreMerge(q, inputs)
	case Scaled:
		return oracleScaledMerge(q, inputs)
	case RoundRobin:
		return oracleRoundRobinMerge(q, inputs)
	case TermStats:
		return oracleTermStatsMerge(s, q, inputs)
	}
	panic("no oracle for " + s.Name())
}

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
				key := oracleTermKey(*s.Term)
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

	var items []*oracleItem
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
				n, df := totalDocs, globalDF[oracleTermKey(*s.Term)]
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
				wt, ok := weights[oracleTermKey(*s.Term)]
				if !ok {
					wt = 1
				}
				score += wt * w
			}
			if d.Count > 1 {
				score /= math.Sqrt(float64(d.Count))
			}
			items = append(items, &oracleItem{doc: d, score: score, order: len(items)})
		}
	}
	return oracleFuse(items, fuseLimit(q))
}

func oracleFuse(items []*oracleItem, limit int) []*result.Document {
	byURL := map[string]*oracleItem{}
	var keep []*oracleItem
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
					// Every other entry points at a copy of its own, as
					// no decoder or engine would: equal terms behind
					// distinct pointers still share one slot.
					term := &spellings[rng.Intn(len(spellings))]
					if l%2 == 1 {
						cp := *term
						term = &cp
					}
					doc.TermStats = append(doc.TermStats, result.TermStat{
						Term: term,
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

// fuzzBytes hands out a fuzz input one choice at a time; an exhausted
// input chooses 0.
type fuzzBytes []byte

func (b *fuzzBytes) next(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// fuzzMerge builds one merge from data: a query, a roster whose sources
// have no metadata or a bounded, unbounded, inverted or empty score
// range, answers that are empty, missing (a failed source) or drawn from
// a small linkage pool (duplicates across and within sources) on a
// coarse score grid (ties), and term statistics in several spellings.
// Building twice from the same data gives independent copies, which
// merging needs because it rewrites documents.
func fuzzMerge(data []byte) (*query.Query, scenario, []int) {
	b := fuzzBytes(data)
	spellings := []query.Term{
		query.NewTerm(attr.FieldBodyOfText, lang.L("alpha")),
		query.NewTerm(attr.FieldBodyOfText, lang.L("Alpha")),
		query.NewTerm(attr.FieldBodyOfText, lang.L("beta")),
		query.NewTerm("", lang.L("beta")),
		query.NewTerm(attr.FieldTitle, lang.L("gamma")), // absent from the query
	}
	q := query.New()
	q.Ranking, _ = query.ParseRanking(fmt.Sprintf(`list((body-of-text "alpha" %g) (body-of-text "BETA"))`, float64(1+b.next(4))/4))
	q.MaxResults = b.next(6) // 0 is the default cap
	ranges := [][2]float64{{0, 10}, {0, math.Inf(1)}, {8, 2}, {3, 3}}
	var sc scenario
	nSrc, pool := 1+b.next(5), 1+b.next(12)
	for s := 0; s < nSrc; s++ {
		id := fmt.Sprintf("S%d", s)
		src := StreamSource{SourceID: id}
		if k := b.next(len(ranges) + 1); k > 0 {
			src.Meta = metaWithRange(ranges[k-1][0], ranges[k-1][1])
		}
		if b.next(3) > 0 {
			src.Summary = &meta.ContentSummary{NumDocs: 10 * b.next(40)}
		}
		sc.roster = append(sc.roster, src)
		if b.next(6) == 0 {
			sc.results = append(sc.results, nil)
			continue
		}
		r := &result.Results{Sources: []string{id}}
		for d := b.next(7); d > 0; d-- {
			var stats []result.TermStat
			for k := b.next(3); k > 0; k-- {
				stats = append(stats, result.TermStat{
					Term: &spellings[b.next(len(spellings))],
					Freq: b.next(4), DocFreq: 10 * b.next(5),
				})
			}
			doc := doc(fmt.Sprintf("http://pool/%d", b.next(pool)), float64(b.next(11)), stats...)
			doc.Sources, doc.Count, doc.Size = []string{id}, 1000*b.next(3), b.next(3)
			r.Documents = append(r.Documents, doc)
		}
		sc.results = append(sc.results, r)
	}
	order := make([]int, nSrc)
	for i := range order {
		j := i - b.next(i+1) // an inside-out shuffle
		order[i], order[j] = order[j], i
	}
	return q, sc, order
}

// inputsOf is a scenario's batch inputs: its answering sources in roster
// order.
func inputsOf(sc scenario) []SourceResult {
	var inputs []SourceResult
	for slot, src := range sc.roster {
		if r := sc.results[slot]; r != nil {
			inputs = append(inputs, SourceResult{SourceID: src.SourceID, Meta: src.Meta, Summary: src.Summary, Results: r})
		}
	}
	return inputs
}

// checkMergeMatchesOracle holds every strategy's Merge to its oracle —
// the same documents in the same order with the same attributions,
// promoted statistics and raw scores — and every strategy's incremental
// merge, fed in data's completion order, to its batch rank: the emitted
// prefix is that rank's prefix pointer for pointer.
func checkMergeMatchesOracle(t *testing.T, data []byte) {
	q, _, _ := fuzzMerge(data)
	for _, strat := range []Strategy{RawScore{}, Scaled{}, RoundRobin{}, TermStats{}, TermStats{LocalIDF: true}} {
		_, mine, _ := fuzzMerge(data)
		_, theirs, _ := fuzzMerge(data)
		got, want := strat.Merge(q, inputsOf(mine)), oracleMerge(strat, q, inputsOf(theirs))
		if len(got) != len(want) {
			t.Fatalf("%s: %d documents, oracle %d: %v vs %v", strat.Name(), len(got), len(want), urls(got), urls(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s rank %d:\n got %+v\nwant %+v", strat.Name(), i, got[i], want[i])
			}
		}

		_, streamed, order := fuzzMerge(data)
		inc := NewIncremental(strat, q, streamed.roster)
		var prefix []*result.Document
		for _, slot := range order {
			prefix = append(prefix, inc.Offer(slot, streamed.results[slot])...)
		}
		final := inc.Finish()
		if len(prefix) != inc.Emitted() || len(prefix) > len(final) {
			t.Fatalf("%s: emitted %d (counted %d) of a %d-document rank", strat.Name(), len(prefix), inc.Emitted(), len(final))
		}
		for i, d := range prefix {
			if final[i] != d {
				t.Fatalf("%s (order %v): emitted[%d] = %s, rank[%d] = %s", strat.Name(), order, i, d.Linkage(), i, final[i].Linkage())
			}
		}
		for i := range want {
			if !reflect.DeepEqual(final[i], want[i]) {
				t.Fatalf("%s, streamed, rank %d:\n got %+v\nwant %+v", strat.Name(), i, final[i], want[i])
			}
		}
	}
}

// FuzzMergeMatchesOracle: its seeds run under go test, and make fuzz
// searches beyond them.
func FuzzMergeMatchesOracle(f *testing.F) {
	f.Add([]byte{})
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 64; i++ {
		seed := make([]byte, 40+rng.Intn(160))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(checkMergeMatchesOracle)
}
