package starts_test

// The paper's qualitative claims, measured (EXPERIMENTS.md Part 2, X1–X8).
// Selection (X2, X2a), translation (X4), merging (X3, X8) and duplicate
// elimination (X7) are measured through the broker users run: core.New
// over client.LocalConns, wired as cmd/metasearch wires its default
// broker, every number read off an Answer. X1, X4a and X5 measure no
// pipeline step. Each test asserts the paper's direction; with -v it
// also prints its table:
//
//	go test -count=1 -run '^TestPaper' -v .

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"testing"
	"text/tabwriter"

	"starts/internal/attr"
	"starts/internal/client"
	"starts/internal/core"
	"starts/internal/corpus"
	"starts/internal/engine"
	"starts/internal/eval"
	"starts/internal/gloss"
	"starts/internal/index"
	"starts/internal/lang"
	"starts/internal/merge"
	"starts/internal/meta"
	"starts/internal/query"
	"starts/internal/result"
	"starts/internal/source"
	"starts/internal/text"
)

// newSource indexes docs into a source whose engine has cfg.
func newSource(t testing.TB, id string, cfg engine.Config, docs []*index.Document) *source.Source {
	t.Helper()
	eng, err := engine.NewWithDocs(cfg, docs, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := source.New(id, eng)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fleet indexes a generated universe, one source per spec, taking the
// engine configs round-robin.
func fleet(t testing.TB, g *corpus.Generated, cfgs ...engine.Config) []*source.Source {
	t.Helper()
	srcs := make([]*source.Source, len(g.Sources))
	for i, spec := range g.Sources {
		srcs[i] = newSource(t, spec.ID, cfgs[i%len(cfgs)], spec.Docs)
	}
	return srcs
}

// reference indexes the universe's documents, each linkage once, into one
// TF·IDF source: the single collection a merged rank is held to.
func reference(t testing.TB, g *corpus.Generated) *source.Source {
	seen := map[string]bool{}
	var docs []*index.Document
	for _, spec := range g.Sources {
		for _, d := range spec.Docs {
			if !seen[d.Linkage] {
				seen[d.Linkage] = true
				docs = append(docs, d)
			}
		}
	}
	return newSource(t, "reference", engine.NewVectorConfig(), docs)
}

func localConns(srcs []*source.Source) []client.Conn {
	conns := make([]client.Conn, len(srcs))
	for i, s := range srcs {
		conns[i] = client.NewLocalConn(s, nil)
	}
	return conns
}

// broker is a metasearcher under opts over conns.
func broker(t testing.TB, opts core.Options, conns ...client.Conn) *core.Metasearcher {
	ms := core.New(opts)
	t.Cleanup(ms.Close)
	for _, c := range conns {
		ms.Add(c)
	}
	return ms
}

func ask(t testing.TB, ms *core.Metasearcher, q *query.Query) *core.Answer {
	t.Helper()
	ans, err := ms.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return ans
}

func search(t testing.TB, s *source.Source, q *query.Query) []*result.Document {
	t.Helper()
	r, err := s.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	return r.Documents
}

func linkages(docs []*result.Document) []string {
	out := make([]string, len(docs))
	for i, d := range docs {
		out[i] = d.Linkage()
	}
	return out
}

// duplicates counts the documents of docs whose linkage came earlier.
func duplicates(docs []*result.Document) int {
	seen, n := map[string]bool{}, 0
	for _, d := range docs {
		if seen[d.Linkage()] {
			n++
		}
		seen[d.Linkage()] = true
	}
	return n
}

func summaryBytes(t testing.TB, sum *meta.ContentSummary) int {
	data, err := sum.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return len(data)
}

// printTable prints one experiment's table under -v; every row is its
// cells joined by tabs.
func printTable(title string, rows ...string) {
	if !testing.Verbose() {
		return
	}
	fmt.Println(title)
	w := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	for _, r := range rows {
		fmt.Fprintln(w, r)
	}
	w.Flush()
	fmt.Println()
}

// TestPaperX1SummarySize: content summaries are far smaller than the
// collections they describe, and the gap grows with collection size
// (summaries grow with vocabulary, not documents).
func TestPaperX1SummarySize(t *testing.T) {
	measure := func(docsPerSource int) (ratio float64, rows []string) {
		g := corpus.Generate(corpus.Config{Seed: 11, NumSources: 10, DocsPerSource: docsPerSource})
		var corpusB, summaryB, terms int
		for i, s := range fleet(t, g, engine.NewVectorConfig()) {
			cb := 0
			for _, d := range g.Sources[i].Docs {
				cb += len(d.Title) + len(d.Body)
				for _, a := range d.Authors {
					cb += len(a)
				}
			}
			sum := s.ContentSummary()
			sb := summaryBytes(t, sum)
			corpusB, summaryB, terms = corpusB+cb, summaryB+sb, terms+sum.TotalTerms()
			rows = append(rows, fmt.Sprintf("%s\t%d\t%d\t%.2f\t%d", s.ID(), cb, sb, float64(cb)/float64(sb), sum.TotalTerms()))
		}
		ratio = float64(corpusB) / float64(summaryB)
		return ratio, append(rows, fmt.Sprintf("TOTAL\t%d\t%d\t%.2f\t%d", corpusB, summaryB, ratio, terms))
	}
	small, _ := measure(100)
	ratio, rows := measure(300)
	printTable("X1 — content summary size vs collection size (10 sources × 300 docs)",
		append([]string{"source\tcorpus B\tsummary B\tratio\tterms"}, rows...)...)
	if ratio < 15 { // 20.77
		t.Errorf("corpus/summary ratio %.2f, want ≥ 15", ratio)
	}
	if ratio <= small {
		t.Errorf("ratio should grow with collection size: %.2f at 100 docs a source, %.2f at 300", small, ratio)
	}
}

// collapsedConn serves a source's summary collapsed to one unqualified
// vocabulary (the X2a ablation).
type collapsedConn struct{ *client.LocalConn }

func (c collapsedConn) Summary(ctx context.Context) (*meta.ContentSummary, error) {
	s, err := c.LocalConn.Summary(ctx)
	if err != nil {
		return nil, err
	}
	return collapseSummary(s), nil
}

// collapseSummary merges a field-qualified summary into one unqualified
// group, summing postings and document frequencies by term (so document
// frequencies become upper bounds).
func collapseSummary(c *meta.ContentSummary) *meta.ContentSummary {
	out := &meta.ContentSummary{
		Stemming: c.Stemming, StopWordsIncluded: c.StopWordsIncluded, CaseSensitive: c.CaseSensitive,
		NumDocs: c.NumDocs, Groups: []meta.SummaryGroup{{Field: attr.FieldAny}},
	}
	at := map[string]int{}
	for _, g := range c.Groups {
		for _, ti := range g.Terms {
			if i, ok := at[ti.Term]; ok {
				out.Groups[0].Terms[i].Postings += ti.Postings
				out.Groups[0].Terms[i].DocFreq += ti.DocFreq
				continue
			}
			at[ti.Term] = len(out.Groups[0].Terms)
			out.Groups[0].Terms = append(out.Groups[0].Terms, ti)
		}
	}
	out.SortTerms()
	return out
}

// selectionRig is X2's and X2a's universe: 10 sources of 300 documents
// and 100 ranking queries, each with every source's merit, its true match
// count (queries no source matches are left out: every order is ideal).
type selectionRig struct {
	srcs    []*source.Source
	queries []*query.Query
	merits  []map[string]float64
}

const selectionSeed, selectionDocs = 11, 300

func newSelectionRig(t *testing.T) *selectionRig {
	g := corpus.Generate(corpus.Config{Seed: selectionSeed, NumSources: 10, DocsPerSource: selectionDocs})
	r := &selectionRig{srcs: fleet(t, g, engine.NewVectorConfig())}
	for _, wq := range corpus.Workload(g, corpus.WorkloadConfig{
		Seed: selectionSeed + 1, NumQueries: 100, FilterFraction: -1, MaxResults: selectionDocs,
	}) {
		merit, total := map[string]float64{}, 0.0
		for _, s := range r.srcs {
			merit[s.ID()] = float64(len(search(t, s, wq.Query)))
			total += merit[s.ID()]
		}
		if total > 0 {
			r.queries, r.merits = append(r.queries, wq.Query), append(r.merits, merit)
		}
	}
	return r
}

// rn runs one broker with sel over conns and returns its mean Rn for
// n = 1..maxN, read off the order the broker contacted the sources in.
func (r *selectionRig) rn(t *testing.T, sel gloss.Selector, conns []client.Conn, maxN int) []float64 {
	ms := broker(t, core.Options{Selector: sel}, conns...)
	rn := make([]float64, maxN)
	for i, q := range r.queries {
		contacted := ask(t, ms, q).Contacted
		for n := 1; n <= maxN; n++ {
			rn[n-1] += eval.Rn(contacted, r.merits[i], n)
		}
	}
	for n := range rn {
		rn[n] /= float64(len(r.queries))
	}
	return rn
}

// TestPaperX2Selection: GlOSS estimators working from summaries alone
// pick nearly the sources an omniscient selector would (Rn near 1) and
// far better than random.
func TestPaperX2Selection(t *testing.T) {
	r := newSelectionRig(t)
	conns := localConns(r.srcs)
	rows := []string{"selector\tR1\tR2\tR3\tR4\tR5"}
	r1 := map[string]float64{}
	for _, sel := range []gloss.Selector{
		gloss.VSum{}, gloss.VMax{}, gloss.VSumL{L: 0}, gloss.VMaxL{L: 0}, gloss.BGloss{}, gloss.Random{Seed: selectionSeed},
	} {
		rn := r.rn(t, sel, conns, 5)
		r1[sel.Name()] = rn[0]
		rows = append(rows, fmt.Sprintf("%s\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f", sel.Name(), rn[0], rn[1], rn[2], rn[3], rn[4]))
	}
	printTable(fmt.Sprintf("X2 — source selection quality, mean Rn over %d queries (10 sources × %d docs)", len(r.queries), selectionDocs), rows...)
	for _, name := range []string{"vGlOSS-Sum(0)", "vGlOSS-Max(0)", "bGlOSS"} {
		if r1[name] < 0.75 || r1[name] <= r1["random"] { // 0.799 / 0.798 vs random 0.354
			t.Errorf("%s R1 %.3f, want ≥ 0.75 and above random's %.3f", name, r1[name], r1["random"])
		}
	}
}

// TestPaperX2aGranularity: X2's vGlOSS-Sum loop over summaries collapsed
// to one vocabulary, served by a LocalConn whose Summary collapses, so
// the broker harvests and selects from them like any other. Collapsing
// saves bytes; field-qualified summaries select no worse.
func TestPaperX2aGranularity(t *testing.T) {
	r := newSelectionRig(t)
	collapsed := make([]client.Conn, len(r.srcs))
	var qualifiedB, collapsedB int
	for i, s := range r.srcs {
		collapsed[i] = collapsedConn{client.NewLocalConn(s, nil)}
		qualifiedB += summaryBytes(t, s.ContentSummary())
		collapsedB += summaryBytes(t, collapseSummary(s.ContentSummary()))
	}
	qualifiedR1 := r.rn(t, gloss.VSum{}, localConns(r.srcs), 1)[0]
	collapsedR1 := r.rn(t, gloss.VSum{}, collapsed, 1)[0]
	printTable("X2a — ablation: summary granularity (vGlOSS-Sum R1)",
		"summary form\tmean R1\ttotal bytes",
		fmt.Sprintf("field-qualified\t%.3f\t%d", qualifiedR1, qualifiedB),
		fmt.Sprintf("collapsed\t%.3f\t%d", collapsedR1, collapsedB))
	if qualifiedR1 < collapsedR1 { // 0.799 vs 0.797
		t.Errorf("field-qualified R1 %.3f below collapsed %.3f", qualifiedR1, collapsedR1)
	}
	if collapsedB >= qualifiedB {
		t.Errorf("collapsed summaries should be smaller: %d vs %d bytes", collapsedB, qualifiedB)
	}
}

// mergeRig is X3's and X8's universe: 6 sources alternating TF·IDF,
// top-document-1000 and raw-tf engines, whose raw scores do not compare,
// and the reference over their union.
type mergeRig struct {
	g     *corpus.Generated
	conns []client.Conn
	ref   *source.Source
}

func newMergeRig(t *testing.T) *mergeRig {
	g := corpus.Generate(corpus.Config{Seed: 23, NumSources: 6, DocsPerSource: 200})
	topk, rawtf := engine.NewVectorConfig(), engine.NewVectorConfig()
	topk.Scorer, rawtf.Scorer = engine.TopK{}, engine.RawTF{}
	return &mergeRig{g, localConns(fleet(t, g, engine.NewVectorConfig(), topk, rawtf)), reference(t, g)}
}

// quality runs one broker per merger over a workload drawn with seed and
// returns each merger's mean P@10 against the reference's top 10, and
// its mean Kendall τ against the reference's rank over the documents
// both hold (queries where fewer than two are shared are left out).
func (r *mergeRig) quality(t *testing.T, seed int64, mergers ...merge.Strategy) (p, tau map[string]float64) {
	type judged struct {
		q        *query.Query
		want     []string // the reference's rank
		relevant map[string]bool
	}
	var queries []judged
	for _, wq := range corpus.Workload(r.g, corpus.WorkloadConfig{Seed: seed, NumQueries: 60, FilterFraction: -1, MaxResults: 30}) {
		if want := linkages(search(t, r.ref, wq.Query)); len(want) > 0 {
			relevant := map[string]bool{}
			for _, l := range want[:min(10, len(want))] {
				relevant[l] = true
			}
			queries = append(queries, judged{wq.Query, want, relevant})
		}
	}
	p, tau = map[string]float64{}, map[string]float64{}
	for _, m := range mergers {
		ms, taus := broker(t, core.Options{Merger: m}, r.conns...), 0
		for _, j := range queries {
			got := linkages(ask(t, ms, j.q).Documents)
			p[m.Name()] += eval.PrecisionAtK(got, j.relevant, 10)
			if tv, err := eval.KendallTau(got, j.want); err == nil {
				taus++
				tau[m.Name()] += tv
			}
		}
		p[m.Name()] /= float64(len(queries))
		tau[m.Name()] /= float64(max(taus, 1))
	}
	return p, tau
}

// TestPaperX3Merging: raw scores from incompatible rankers do not merge;
// the TermStats STARTS returns let the broker re-rank as if every
// document lived in one collection.
func TestPaperX3Merging(t *testing.T) {
	mergers := []merge.Strategy{merge.RawScore{}, merge.Scaled{}, merge.RoundRobin{}, merge.TermStats{}, merge.TermStats{LocalIDF: true}}
	p, tau := newMergeRig(t).quality(t, 24, mergers...)
	rows := []string{"strategy\tP@10\tKendall tau"}
	for _, m := range mergers {
		rows = append(rows, fmt.Sprintf("%s\t%.3f\t%.3f", m.Name(), p[m.Name()], tau[m.Name()]))
	}
	printTable("X3 — rank merging vs a single-collection reference, 60 queries (6 sources, 3 incompatible rankers)", rows...)
	if ts := p["term-stats"]; ts < 0.75 { // 0.825
		t.Errorf("term-stats P@10 %.3f, want ≥ 0.75", ts)
	}
	for _, name := range []string{"raw-score", "scaled-score", "round-robin", "term-stats-local-idf"} {
		if p["term-stats"] < p[name]+0.3 { // 0.825 vs at most 0.453
			t.Errorf("term-stats P@10 %.3f should beat %s's %.3f by 0.3", p["term-stats"], name, p[name])
		}
	}
}

// calibration maps one source's raw scores onto a reference scale, as
// fitted from sample-database results (Section 4.2): every source
// publishes its results for the same known collection and queries, so a
// black-box ranker's scores can be regressed against a reference
// ranker's for the same (query, document) pairs.
type calibration struct{ slope, intercept float64 }

// apply maps a raw score onto the reference scale, clamped at zero.
func (c calibration) apply(raw float64) float64 { return max(0, c.slope*raw+c.intercept) }

// fit is the least-squares line from src's sample scores to ref's, the
// pairs joined on (query index, document linkage); constant sample
// scores carry no slope and map to the mean reference score.
func fit(tb testing.TB, src, ref []*source.SampleEntry) calibration {
	tb.Helper()
	if len(src) != len(ref) {
		tb.Fatalf("sample streams differ in length: %d vs %d", len(src), len(ref))
	}
	var n, sx, sy, sxx, sxy float64
	for i := range src {
		refScores := map[string]float64{}
		for _, d := range ref[i].Results.Documents {
			refScores[d.Linkage()] = d.RawScore
		}
		for _, d := range src[i].Results.Documents {
			if y, ok := refScores[d.Linkage()]; ok {
				x := d.RawScore
				n, sx, sy, sxx, sxy = n+1, sx+x, sy+y, sxx+x*x, sxy+x*y
			}
		}
	}
	if n < 2 {
		tb.Fatalf("need at least two joined sample pairs to calibrate, have %g", n)
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return calibration{intercept: sy / n}
	}
	slope := (n*sxy - sx*sy) / den
	return calibration{slope: slope, intercept: (sy - slope*sx) / n}
}

// calibrated is X8's merger: each answer's scores pass through its
// source's calibration, on copies, and the copies merge as raw scores. A
// source with no calibration keeps its raw scores.
type calibrated map[string]calibration

func (calibrated) Name() string { return "sample-calibrated" }

func (c calibrated) Merge(q *query.Query, inputs []merge.SourceResult) []*result.Document {
	mapped := slices.Clone(inputs)
	for i, in := range inputs {
		cal, ok := c[in.SourceID]
		if !ok {
			continue
		}
		r := *in.Results
		r.Documents = make([]*result.Document, len(r.Documents))
		for j, d := range in.Results.Documents {
			cp := *d
			cp.RawScore = cal.apply(d.RawScore)
			r.Documents[j] = &cp
		}
		mapped[i].Results = &r
	}
	return merge.RawScore{}.Merge(q, mapped)
}

// TestPaperX8Calibration: sources that return no TermStats can still be
// calibrated from their sample-database results, and merging on the
// calibrated scores does not lose to merging raw ones. The broker does
// not harvest samples: the fit and the merger are this test's own.
func TestPaperX8Calibration(t *testing.T) {
	r := newMergeRig(t)
	samples := func(c client.Conn) []*source.SampleEntry {
		s, err := c.Sample(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// Every source is calibrated against the TF·IDF one's sample results.
	refSamples, cals := samples(r.conns[0]), calibrated{}
	for _, c := range r.conns[1:] {
		cals[c.SourceID()] = fit(t, samples(c), refSamples)
	}
	p, _ := r.quality(t, 25, merge.RawScore{}, merge.Scaled{}, cals)
	printTable("X8 — sample-database calibration, 60 queries: merging raw vs range-scaled vs sample-calibrated scores",
		"strategy\tP@10",
		fmt.Sprintf("raw-score\t%.3f", p["raw-score"]),
		fmt.Sprintf("scaled-score\t%.3f", p["scaled-score"]),
		fmt.Sprintf("sample-calibrated\t%.3f", p["sample-calibrated"]))
	if cal := p["sample-calibrated"]; cal < p["raw-score"] || cal < p["scaled-score"] { // 0.395 vs 0.328, 0.225
		t.Errorf("sample-calibrated P@10 %.3f loses to raw %.3f or scaled %.3f", cal, p["raw-score"], p["scaled-score"])
	}
}

// TestPaperX4Translation: exported capability metadata lets one query
// run against very different engines, and verification mode recovers on
// the broker what an engine lacking a field cannot check. Each restricted
// engine indexes the same collection as a full one, whose answer is the
// reference; overlap is Jaccard against it.
func TestPaperX4Translation(t *testing.T) {
	const seed = 31
	g := corpus.Generate(corpus.Config{Seed: seed, NumSources: 1, DocsPerSource: 250})
	docs := g.Sources[0].Docs
	ref := newSource(t, "reference", engine.NewVectorConfig(), docs)
	rng, topic := rand.New(rand.NewSource(seed)), g.Topics[0]
	authors := []string{"Ada", "Grace", "Alan", "Donald", "Edgar", "Jim", "Ana", "Wei"}
	queries := make([]*query.Query, 80)
	for i := range queries {
		w1, w2 := topic.Words[rng.Intn(20)], topic.Words[rng.Intn(20)]
		author := authors[rng.Intn(len(authors))]
		q := query.New()
		q.MaxResults = 50
		var err error
		if q.Filter, err = query.ParseFilter(fmt.Sprintf(`((author "%s") and ((title stem "%s") or (body-of-text "%s")))`, author, w1, w2)); err != nil {
			t.Fatal(err)
		}
		if q.Ranking, err = query.ParseRanking(fmt.Sprintf(`list((body-of-text "%s") (body-of-text "%s"))`, w1, w2)); err != nil {
			t.Fatal(err)
		}
		queries[i] = q
	}
	noAuthor, noMods, required := engine.NewVectorConfig(), engine.NewVectorConfig(), engine.NewVectorConfig()
	noAuthor.Fields = []attr.Field{attr.FieldBodyOfText}
	noMods.Mods = []attr.Modifier{attr.ModEQ}
	required.Fields = nil // title, date, any and linkage only
	profiles := []struct {
		name string
		cfg  engine.Config
	}{
		{"boolean-only", engine.NewBooleanConfig()}, {"no-author-field", noAuthor},
		{"no-modifiers", noMods}, {"required-fields", required},
	}
	rows := []string{"profile\tterm survival\tanswer overlap\tafter post-filter"}
	for _, pr := range profiles {
		conn := client.NewLocalConn(newSource(t, pr.name, pr.cfg, docs), nil)
		plain, verified := broker(t, core.Options{}, conn), broker(t, core.Options{PostFilter: true}, conn)
		var survival, overlap, post float64
		for _, q := range queries {
			want := linkages(search(t, ref, q))
			ans := ask(t, plain, q)
			terms := len(q.Filter.Terms(nil)) + len(q.Ranking.Terms(nil))
			survival += 1 - float64(len(ans.PerSource[pr.name].Report.DroppedTerms))/float64(terms)
			overlap += eval.Overlap(want, linkages(ans.Documents))
			post += eval.Overlap(want, linkages(ask(t, verified, q).Documents))
		}
		n := float64(len(queries))
		survival, overlap, post = survival/n, overlap/n, post/n
		rows = append(rows, fmt.Sprintf("%s\t%.3f\t%.3f\t%.3f", pr.name, survival, overlap, post))
		switch {
		case survival <= 0 || survival > 1:
			t.Errorf("%s: term survival %.3f out of range", pr.name, survival)
		case pr.name == "no-modifiers" && survival != 1:
			t.Errorf("no-modifiers dropped terms: survival %.3f", survival)
		case pr.name == "no-author-field" && (post < 0.25 || post <= overlap): // 0.069 → 0.311
			t.Errorf("post-filtering no-author-field moved overlap %.3f → %.3f, want a rise to ≥ 0.25", overlap, post)
		case post < overlap:
			t.Errorf("%s: post-filtering lowered overlap %.3f → %.3f", pr.name, overlap, post)
		}
	}
	printTable(fmt.Sprintf("X4 — metadata-driven translation across restricted engines, %d mixed field/modifier queries", len(queries)), rows...)
}

// TestPaperX4aProx: a non-positional engine approximating prox by "and"
// over-answers, which is the case for positional postings.
func TestPaperX4aProx(t *testing.T) {
	g := corpus.Generate(corpus.Config{Seed: 51, NumSources: 1, DocsPerSource: 400})
	ix := fleet(t, g, engine.NewVectorConfig())[0].Engine().Index()
	words := g.Topics[0].Words
	opts := index.LookupOptions{DefaultLang: lang.EnglishUS}
	matches := func(expr string) int {
		f, err := query.ParseFilter(expr)
		if err != nil {
			t.Fatal(err)
		}
		set, err := ix.EvalFilter(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		return len(set)
	}
	pairs, ratio := 0, 0.0
	for i := 0; i < 60; i++ {
		w1, w2 := words[i%15], words[(i*7+3)%15]
		if w1 == w2 {
			continue
		}
		and := matches(fmt.Sprintf(`((body-of-text "%s") and (body-of-text "%s"))`, w1, w2))
		if and == 0 {
			continue
		}
		pairs++
		ratio += float64(matches(fmt.Sprintf(`((body-of-text "%s") prox[2,F] (body-of-text "%s"))`, w1, w2))) / float64(and)
	}
	ratio /= float64(pairs)
	printTable(fmt.Sprintf("X4a — ablation: prox via positions vs AND co-occurrence approximation (%d term pairs)", pairs),
		"measure\tvalue",
		fmt.Sprintf("fraction of AND matches that satisfy prox[2,F]\t%.3f", ratio),
		fmt.Sprintf("i.e. AND over-answers by a factor of\t%.2f", 1/ratio))
	if ratio <= 0 || ratio >= 0.5 { // 0.371
		t.Errorf("prox/AND ratio %.3f, want in (0, 0.5)", ratio)
	}
}

// TestPaperX5StopWords: the paper's "The Who" scenario. Documents about
// entities named by stop words are findable exactly when the source can
// turn stop-word elimination off and the query asks it to.
func TestPaperX5StopWords(t *testing.T) {
	phrases := []struct{ phrase, title string }{
		{"the who", "The Who live at Leeds"},
		{"to be or not to be", "To be or not to be: the soliloquy"},
		{"it", "It, a novel"},
		{"no more", "No More: a history of refusals"},
	}
	var docs []*index.Document
	for i, p := range phrases {
		docs = append(docs, &index.Document{
			Linkage: fmt.Sprintf("http://docs/%d", i), Title: p.title,
			Body: "An article about " + p.phrase + " and related matters of rock history.",
		})
	}
	for i := 0; i < 20; i++ {
		docs = append(docs, &index.Document{
			Linkage: fmt.Sprintf("http://noise/%d", i), Title: fmt.Sprintf("Unrelated piece %d", i),
			Body: "completely unrelated filler content about engineering",
		})
	}
	recall := func(turnOff bool) float64 {
		cfg := engine.NewVectorConfig()
		cfg.TurnOffStopWords = turnOff
		cfg.Analyzer = &text.Analyzer{Tokenizer: cfg.Analyzer.Tokenizer, Stop: text.EnglishStopWords()}
		s := newSource(t, "stop-words", cfg, docs)
		found := 0.0
		for i, p := range phrases {
			q := query.New()
			q.DropStopWords = false
			var err error
			if q.Filter, err = query.ParseFilter(fmt.Sprintf(`(body-of-text "%s")`, p.phrase)); err != nil {
				t.Fatal(err)
			}
			for _, l := range linkages(search(t, s, q)) {
				if l == docs[i].Linkage {
					found++
				}
			}
		}
		return found / float64(len(phrases))
	}
	off, on := recall(false), recall(true)
	printTable(fmt.Sprintf("X5 — stop-word control (%d stop-word phrases, DropStopWords=F)", len(phrases)),
		"source capability\trecall of stop-phrase targets",
		fmt.Sprintf("TurnOffStopWords=F (elimination forced)\t%.2f", off),
		fmt.Sprintf("TurnOffStopWords=T (query keeps them)\t%.2f", on))
	if off != 0 || on != 1 {
		t.Errorf("stop-phrase recall %.2f → %.2f, want 0 → 1", off, on)
	}
}

// TestPaperX7Duplicates (the Figure 1 rationale): a resource evaluating
// one query at several of its sources eliminates duplicates itself; a
// broker querying them independently gets them back and must collapse
// them in its merge. The resource-side row asks the resource directly,
// since that is the source-side behaviour the claim is about.
func TestPaperX7Duplicates(t *testing.T) {
	g := corpus.Generate(corpus.Config{Seed: 41, NumSources: 4, DocsPerSource: 150, Overlap: 0.25})
	srcs := fleet(t, g, engine.NewVectorConfig())
	res := source.NewResource()
	var others []string
	for i, s := range srcs {
		if err := res.Add(s); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			others = append(others, s.ID())
		}
	}
	ms := broker(t, core.Options{}, localConns(srcs)...)
	var resDocs, resDups, resMulti, naiveDocs, naiveDups, mergedDocs, mergedDups int
	for _, wq := range corpus.Workload(g, corpus.WorkloadConfig{Seed: 42, NumQueries: 40, FilterFraction: -1, MaxResults: 30}) {
		q := *wq.Query
		q.Sources = others
		rr, err := res.Search(srcs[0].ID(), &q)
		if err != nil {
			t.Fatal(err)
		}
		resDocs, resDups = resDocs+len(rr.Documents), resDups+duplicates(rr.Documents)
		for _, d := range rr.Documents {
			if len(d.Sources) > 1 {
				resMulti++
			}
		}
		ans := ask(t, ms, wq.Query)
		var naive []*result.Document
		for _, id := range ans.Contacted {
			naive = append(naive, ans.PerSource[id].Results.Documents...)
		}
		naiveDocs, naiveDups = naiveDocs+len(naive), naiveDups+duplicates(naive)
		mergedDocs, mergedDups = mergedDocs+len(ans.Documents), mergedDups+duplicates(ans.Documents)
	}
	rate := func(n, of int) float64 { return float64(n) / float64(max(of, 1)) }
	printTable("X7 — duplicate elimination, 40 queries over 4 sources with 25% overlap",
		"evaluation path\tduplicate rate\tmulti-source attributed",
		fmt.Sprintf("resource-side (same-resource query)\t%.3f\t%.3f", rate(resDups, resDocs), rate(resMulti, resDocs)),
		fmt.Sprintf("client-side, naive concatenation\t%.3f\t-", rate(naiveDups, naiveDocs)),
		fmt.Sprintf("client-side, merge layer\t%.3f\t-", rate(mergedDups, mergedDocs)))
	if resDups != 0 || mergedDups != 0 {
		t.Errorf("duplicates: %d resource-side, %d in merged answers; want none", resDups, mergedDups)
	}
	if naiveDups == 0 || resMulti == 0 {
		t.Errorf("with overlap, concatenation should duplicate (%d) and the resource attribute documents to several sources (%d)", naiveDups, resMulti)
	}
}
