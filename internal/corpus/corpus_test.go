package corpus

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"starts/internal/index"
	"starts/internal/lang"
	"starts/internal/text"
)

// oracleGenerate is Generate as it was before drawing and rendering were
// split: one goroutine draws and builds each document in turn, picking
// words by binary search over the harmonic CDF.
func oracleGenerate(cfg Config) *Generated {
	if cfg.NumSources <= 0 {
		cfg.NumSources = 4
	}
	if cfg.DocsPerSource <= 0 {
		cfg.DocsPerSource = 100
	}
	if cfg.BodyWords <= 0 {
		cfg.BodyWords = 80
	}
	if cfg.VocabWords <= 0 {
		cfg.VocabWords = defaultVocabWords
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	topics := TopicsWithVocab(cfg.VocabWords)
	g := &Generated{Topics: topics}
	for si := 0; si < cfg.NumSources; si++ {
		ti := si % len(topics)
		spec := SourceSpec{
			ID:           fmt.Sprintf("src-%02d-%s", si, topics[ti].Name),
			PrimaryTopic: topics[ti].Name,
		}
		for di := 0; di < cfg.DocsPerSource; di++ {
			spec.Docs = append(spec.Docs, genDoc(rng, topics, ti, spec.ID, di, cfg))
		}
		g.Sources = append(g.Sources, spec)
	}
	if cfg.Overlap > 0 && len(g.Sources) > 1 {
		for si := range g.Sources {
			next := &g.Sources[(si+1)%len(g.Sources)]
			n := int(cfg.Overlap * float64(cfg.DocsPerSource))
			for di := 0; di < n && di < len(g.Sources[si].Docs); di++ {
				d := g.Sources[si].Docs[di]
				cp := *d
				next.Docs = append(next.Docs, &cp)
			}
		}
	}
	return g
}

// oraclePick samples the i-th word with probability proportional to
// 1/(i+1) by binary search.
func oraclePick(rng *rand.Rand, words []string) string {
	cum := zipfOf(len(words)).cum
	i, _ := slices.BinarySearch(cum, rng.Float64()*cum[len(cum)-1])
	return words[min(i, len(cum)-1)]
}

// genDoc draws and builds document di of a source whose primary topic is
// topics[primary].
func genDoc(rng *rand.Rand, topics []Topic, primary int, sourceID string, di int, cfg Config) *index.Document {
	title := make([]string, 4+rng.Intn(5))
	for i := range title {
		title[i] = oraclePick(rng, topics[primary].Words)
	}
	body := make([]string, cfg.BodyWords/2+rng.Intn(cfg.BodyWords))
	for i := range body {
		r := rng.Float64()
		switch {
		case r < primaryBias:
			body[i] = oraclePick(rng, topics[primary].Words)
		case r < primaryBias+0.2:
			body[i] = generalWords[rng.Intn(len(generalWords))]
		default:
			body[i] = oraclePick(rng, topics[rng.Intn(len(topics))].Words)
		}
	}
	tb := []byte(strings.Join(title, " "))
	titleCase(tb)
	doc := &index.Document{
		Linkage: fmt.Sprintf("http://%s/doc-%04d", sourceID, di),
		Title:   string(tb),
		Authors: []string{authorPool[rng.Intn(len(authorPool))]},
		Body:    strings.Join(body, " ") + ".",
		Date: time.Date(1990+rng.Intn(7), time.Month(1+rng.Intn(12)),
			1+rng.Intn(28), 0, 0, 0, 0, time.UTC),
	}
	if language := topics[primary].Language; !language.IsZero() {
		doc.Languages = []lang.Tag{language}
	}
	return doc
}

// TestGenerateMatchesOracle holds Generate to the sequential generator it
// replaced over random configurations — sizes that end batches early and
// late, vocabularies from the curated head alone to past 2 000 words,
// overlap or none — at one worker and at four: the same universe, field
// for field, whatever renders it.
func TestGenerateMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfgs := []Config{{}, {DocsPerSource: batchDocs}, {DocsPerSource: batchDocs + 1, NumSources: 6, VocabWords: 2500}}
	for range 12 {
		cfgs = append(cfgs, Config{
			Seed:          rng.Int63(),
			NumSources:    1 + rng.Intn(7),
			DocsPerSource: 1 + rng.Intn(3*batchDocs),
			BodyWords:     rng.Intn(120),
			VocabWords:    rng.Intn(3000),
			Overlap:       []float64{0, 0, 0.1, 0.5}[rng.Intn(4)],
		})
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, cfg := range cfgs {
			if got, want := Generate(cfg), oracleGenerate(cfg); !reflect.DeepEqual(got, want) {
				t.Errorf("GOMAXPROCS %d: Generate(%+v) differs from the sequential generator", procs, cfg)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestDrawFitsItsBatch: a batch's words, sized from maxDrawnWords, hold
// every document draw can draw without growing, at body lengths from 1 to
// 160 words.
func TestDrawFitsItsBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	topics := TopicsWithVocab(0)
	vocabs, bases := make([]zipf, len(topics)), make([]int32, len(topics)+1)
	for i, tp := range topics {
		vocabs[i], bases[i+1] = zipfOf(len(tp.Words)), bases[i]+int32(len(tp.Words))
	}
	for _, bodyWords := range []int{1, 2, 3, 40, 80, 81, 160} {
		b := &drawn{spec: &SourceSpec{}, words: make([]int32, 0, batchDocs*maxDrawnWords(bodyWords))}
		for range batchDocs {
			before := len(b.words)
			b.draw(rng, vocabs, bases, 0, bodyWords)
			if n := len(b.words) - before; n > maxDrawnWords(bodyWords) {
				t.Fatalf("body of %d words: a document drew %d words, past %d", bodyWords, n, maxDrawnWords(bodyWords))
			}
		}
		if cap(b.words) != batchDocs*maxDrawnWords(bodyWords) {
			t.Errorf("body of %d words: the batch grew to %d words", bodyWords, cap(b.words))
		}
	}
}

// TestZipfPickMatchesBinarySearch holds the guided pick to a binary search
// over the harmonic CDF, draw for draw, at every vocabulary size up to
// 300 and a few beyond.
func TestZipfPickMatchesBinarySearch(t *testing.T) {
	var sizes []int
	for n := 1; n <= 300; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range append(sizes, 1999, 2000, 4096) {
		words := make([]string, n)
		for i := range words {
			words[i] = strconv.Itoa(i)
		}
		z := zipfOf(n)
		a, b := rand.New(rand.NewSource(int64(n))), rand.New(rand.NewSource(int64(n)))
		for range 2000 {
			if got, want := words[z.pick(a)], oraclePick(b, words); got != want {
				t.Fatalf("%d words: pick = %s, binary search %s", n, got, want)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, NumSources: 3, DocsPerSource: 20}
	a := Generate(cfg)
	b := Generate(cfg)
	if len(a.Sources) != 3 {
		t.Fatalf("sources = %d", len(a.Sources))
	}
	for si := range a.Sources {
		if a.Sources[si].ID != b.Sources[si].ID {
			t.Fatalf("nondeterministic IDs")
		}
		for di := range a.Sources[si].Docs {
			if !reflect.DeepEqual(a.Sources[si].Docs[di], b.Sources[si].Docs[di]) {
				t.Fatalf("nondeterministic doc %d/%d", si, di)
			}
		}
	}
	// A different seed changes content.
	c := Generate(Config{Seed: 8, NumSources: 3, DocsPerSource: 20})
	if a.Sources[0].Docs[0].Body == c.Sources[0].Docs[0].Body {
		t.Error("different seeds produced identical bodies")
	}
}

func TestGenerateDefaults(t *testing.T) {
	g := Generate(Config{})
	if len(g.Sources) != 4 {
		t.Errorf("default sources = %d", len(g.Sources))
	}
	for _, s := range g.Sources {
		if len(s.Docs) != 100 {
			t.Errorf("source %s has %d docs", s.ID, len(s.Docs))
		}
	}
}

func TestTopicalSkew(t *testing.T) {
	g := Generate(Config{Seed: 1, NumSources: 4, DocsPerSource: 50})
	// Count occurrences of each source's primary head-word in every
	// source; the owning source must dominate.
	count := func(src SourceSpec, word string) int {
		n := 0
		for _, d := range src.Docs {
			n += strings.Count(strings.ToLower(d.Body), word)
		}
		return n
	}
	dbSrc, gdSrc := g.Sources[0], g.Sources[3]
	if dbSrc.PrimaryTopic != "databases" || gdSrc.PrimaryTopic != "gardening" {
		t.Fatalf("topic rotation changed: %s %s", dbSrc.PrimaryTopic, gdSrc.PrimaryTopic)
	}
	if count(dbSrc, "database") <= 4*count(gdSrc, "database") {
		t.Errorf("database skew too weak: %d vs %d", count(dbSrc, "database"), count(gdSrc, "database"))
	}
	if count(gdSrc, "tomato") <= 4*count(dbSrc, "tomato") {
		t.Errorf("tomato skew too weak: %d vs %d", count(gdSrc, "tomato"), count(dbSrc, "tomato"))
	}
}

func TestSpanishTopicTagsLanguage(t *testing.T) {
	g := Generate(Config{Seed: 1, NumSources: 5, DocsPerSource: 5})
	es := g.Sources[4]
	if es.PrimaryTopic != "datos" {
		t.Fatalf("fifth topic = %s", es.PrimaryTopic)
	}
	for _, d := range es.Docs {
		if len(d.Languages) != 1 || d.Languages[0] != lang.Spanish {
			t.Fatalf("Spanish doc untagged: %+v", d.Languages)
		}
	}
}

func TestOverlapDuplication(t *testing.T) {
	g := Generate(Config{Seed: 1, NumSources: 2, DocsPerSource: 10, Overlap: 0.3})
	if len(g.Sources[1].Docs) != 13 {
		t.Fatalf("overlap docs = %d, want 13", len(g.Sources[1].Docs))
	}
	// Source 1 holds 3 documents whose linkage belongs to source 0 (the
	// wrap-around also copies 3 of source 1's docs back into source 0).
	dups := 0
	for _, d := range g.Sources[1].Docs {
		if strings.HasPrefix(d.Linkage, "http://src-00") {
			dups++
		}
	}
	if dups != 3 {
		t.Errorf("dups = %d", dups)
	}
}

func TestDocsAreIndexable(t *testing.T) {
	g := Generate(Config{Seed: 2, NumSources: 5, DocsPerSource: 10})
	for _, s := range g.Sources {
		seen := map[string]bool{}
		for _, d := range s.Docs {
			if err := d.Validate(); err != nil {
				t.Fatalf("%s: %v", s.ID, err)
			}
			if seen[d.Linkage] {
				t.Fatalf("%s: duplicate linkage %s within source", s.ID, d.Linkage)
			}
			seen[d.Linkage] = true
			if d.Title == "" || d.Body == "" || len(d.Authors) == 0 || d.Date.IsZero() {
				t.Fatalf("%s: incomplete document %+v", s.ID, d)
			}
		}
	}
}

func TestZipfPickSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	words := make([]string, 50)
	for i := range words {
		words[i] = fmt.Sprint(i)
	}
	z := zipfOf(len(words))
	counts := make([]int, len(words))
	for i := 0; i < 20000; i++ {
		w, _ := strconv.Atoi(words[z.pick(rng)])
		counts[w]++
	}
	if counts[0] <= counts[10] || counts[10] <= counts[49] {
		t.Errorf("zipf not monotone-ish: head %d mid %d tail %d", counts[0], counts[10], counts[49])
	}
	if counts[0] < 3*counts[9] {
		t.Errorf("zipf head too flat: %d vs %d", counts[0], counts[9])
	}
}

func TestWorkloadDeterministicAndValid(t *testing.T) {
	g := Generate(Config{Seed: 1, NumSources: 5, DocsPerSource: 10})
	cfg := WorkloadConfig{Seed: 9, NumQueries: 30}
	a := Workload(g, cfg)
	b := Workload(g, cfg)
	if len(a) != 30 {
		t.Fatalf("queries = %d", len(a))
	}
	filters := 0
	for i := range a {
		if a[i].Query.Ranking.String() != b[i].Query.Ranking.String() {
			t.Fatal("nondeterministic workload")
		}
		if err := a[i].Query.Validate(); err != nil {
			t.Fatalf("invalid generated query: %v", err)
		}
		if a[i].Topic == "" || len(a[i].Terms) == 0 || len(a[i].Terms) > 3 {
			t.Fatalf("bad workload entry: %+v", a[i])
		}
		if a[i].Query.Filter != nil {
			filters++
		}
	}
	if filters == 0 || filters == 30 {
		t.Errorf("filter fraction degenerate: %d/30", filters)
	}
}

// TestGenerateGolden pins every field Generate produces for two configs:
// the defaults, and a large vocabulary with overlapping sources. The
// benchmark's oracle compares answers against a fleet built by the same
// generator, so a drifted generator would pass it while silently changing
// every workload; any change to what the RNG draws map to fails here.
func TestGenerateGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"defaults", Config{}, "d19e6a909f50a9b86a01917cbc3f665513286b20603af048635194e0a61600e2"},
		{"vocab2000-overlap", Config{VocabWords: 2000, Overlap: 0.2}, "c59dd59f4a4eb85d59d542eef78f93131e0dce11b02e347e9506c73b8a23140b"},
		{"big-source-shape", Config{Seed: 1, NumSources: 6, DocsPerSource: 300, BodyWords: 40, VocabWords: 2000}, "1e2af9fa72f55ec6893c0f4c3ff6cc2c12755bd51fb8ed161affdadd0127cb96"},
	} {
		h := sha256.New()
		g := Generate(tc.cfg)
		for _, tp := range g.Topics {
			fmt.Fprintf(h, "topic %q %q %q\n", tp.Name, tp.Language, tp.Words)
		}
		for _, s := range g.Sources {
			fmt.Fprintf(h, "source %q %q %d\n", s.ID, s.PrimaryTopic, len(s.Docs))
			for _, d := range s.Docs {
				fmt.Fprintf(h, "doc %q %q %q %q %q %s %q %q\n", d.Linkage, d.LinkageType,
					d.Title, d.Authors, d.Body, d.Date.Format(time.RFC3339Nano), d.Languages, d.CrossRefs)
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s: Generate digest = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestWorkloadGolden pins every query Workload draws over a 2 000-word
// vocabulary: it samples through the same Zipf pick as Generate.
func TestWorkloadGolden(t *testing.T) {
	const want = "d4d0b4f3a6d11c57f1a5864467babc4fbcb73162dc8b32594a052ca37f3113e8"
	g := Generate(Config{Seed: 1, NumSources: 5, DocsPerSource: 1, VocabWords: 2000})
	h := sha256.New()
	for _, wq := range Workload(g, WorkloadConfig{Seed: 2, NumQueries: 500}) {
		fmt.Fprintf(h, "%q %q %s", wq.Topic, wq.Terms, wq.Query.Ranking)
		if wq.Query.Filter != nil {
			fmt.Fprintf(h, " %s", wq.Query.Filter)
		}
		fmt.Fprintln(h, wq.Query.MaxResults)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("Workload digest = %s, want %s", got, want)
	}
}

// bigSource is the big-source workload's universe: 2 sources of 20 000
// documents of 40-word bodies over 2 000-word vocabularies.
func bigSource(seed int64) Config {
	return Config{Seed: seed, NumSources: 2, DocsPerSource: 20000, BodyWords: 40, VocabWords: 2000}
}

// generateSink and buildSink keep the benchmarks' last results alive.
var (
	generateSink *Generated
	buildSink    *index.Index
)

// BenchmarkGenerate generates one big-source universe.
func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		generateSink = Generate(bigSource(int64(i)))
	}
}

// BenchmarkSetup is the bulk of a big-source set-up: the universe
// generated, then each source's index built (make prof-setup).
func BenchmarkSetup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, s := range Generate(bigSource(int64(i))).Sources {
			ix, err := index.Build(text.NewAnalyzer(), s.Docs, 0)
			if err != nil {
				b.Fatal(err)
			}
			buildSink = ix
		}
	}
}

func TestVocabularySize(t *testing.T) {
	for _, topic := range TopicsWithVocab(defaultVocabWords) {
		if len(topic.Words) != 120 {
			t.Errorf("topic %s vocab = %d", topic.Name, len(topic.Words))
		}
		seen := map[string]bool{}
		for _, w := range topic.Words {
			if seen[w] {
				t.Errorf("topic %s duplicate word %q", topic.Name, w)
			}
			seen[w] = true
		}
	}
}
