// Package corpus generates the deterministic synthetic document
// collections and query workloads the experiment harnesses run on. The
// paper's sources (Dialog, CS-TR, web crawls) are proprietary or gone;
// what the metasearch experiments actually require of them is controlled
// topical skew — sources whose term distributions differ enough that
// source selection has signal and rank merging has tension — which the
// generator provides directly: each source draws most of its text from a
// primary topic's Zipf-distributed vocabulary, a little from shared
// general vocabulary, and a trickle from other topics.
package corpus

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"time"

	"starts/internal/index"
	"starts/internal/lang"
)

// Topic is a named vocabulary. Sampling is Zipfian: the i-th word has
// probability proportional to 1/(i+1), so every topic has a few very
// common words and a long tail.
type Topic struct {
	Name  string
	Words []string
	// Language tags documents whose primary topic this is.
	Language lang.Tag
}

// TopicsWithVocab returns the standard topic set with each topic's
// vocabulary extended (or left) at words distinct words. Larger
// vocabularies model larger collections: under the Zipf draw the
// generated tail becomes genuinely rare, the way real million-document
// collections have far more distinct terms than a toy vocabulary.
func TopicsWithVocab(words int) []Topic {
	return []Topic{
		{Name: "databases", Words: vocab([]string{
			"database", "query", "transaction", "index", "relational",
			"distributed", "schema", "join", "optimizer", "concurrency",
			"recovery", "storage", "tuple", "relation", "normalization",
			"deductive", "object", "parallel", "replication", "locking",
		}, "dat", words)},
		{Name: "medicine", Words: vocab([]string{
			"patient", "diagnosis", "treatment", "clinical", "disease",
			"symptom", "therapy", "vaccine", "infection", "surgery",
			"cardiology", "oncology", "dosage", "trial", "immune",
			"pathology", "prognosis", "chronic", "acute", "remission",
		}, "med", words)},
		{Name: "law", Words: vocab([]string{
			"court", "statute", "plaintiff", "defendant", "contract",
			"liability", "tort", "appeal", "verdict", "jurisdiction",
			"counsel", "evidence", "precedent", "damages", "injunction",
			"negligence", "testimony", "litigation", "settlement", "clause",
		}, "law", words)},
		{Name: "gardening", Words: vocab([]string{
			"tomato", "compost", "pruning", "soil", "harvest", "seedling",
			"mulch", "watering", "perennial", "fertilizer", "greenhouse",
			"cultivar", "germination", "trellis", "weeding", "bloom",
			"rootstock", "grafting", "pollinator", "raised",
		}, "gar", words)},
		{Name: "datos", Language: lang.Spanish, Words: vocab([]string{
			"datos", "consulta", "sistema", "distribuido", "busqueda",
			"indice", "archivo", "red", "servidor", "biblioteca",
			"documento", "texto", "coleccion", "fuente", "resultado",
			"algoritmo", "modelo", "analisis", "recuperacion", "catalogo",
		}, "esp", words)},
	}
}

// defaultVocabWords is the per-topic vocabulary size when Config leaves
// VocabWords zero — the historical 120, which keeps every existing seed
// reproducing the same documents.
const defaultVocabWords = 120

// vocab extends a curated head with generated tail words so each topic
// has size distinct words. The syllable pair cycles every 100 tail
// words; beyond that a cycle counter keeps words unique while the first
// 100 stay byte-identical to what smaller vocabularies generate, so
// existing seeds reproduce the same documents.
func vocab(head []string, prefix string, size int) []string {
	if size < len(head) {
		size = len(head)
	}
	words := append([]string(nil), head...)
	syllables := []string{"ra", "ne", "to", "li", "qua", "ver", "min", "sol", "tek", "dor"}
	for i := 0; len(words) < size; i++ {
		w := prefix + syllables[i%len(syllables)] + syllables[(i/len(syllables))%len(syllables)] + fmt.Sprintf("%d", i%10)
		if cycle := i / 100; cycle > 0 {
			w += fmt.Sprintf("x%d", cycle)
		}
		words = append(words, w)
	}
	return words
}

// generalWords is shared, topic-neutral vocabulary present everywhere.
var generalWords = []string{
	"system", "approach", "result", "method", "analysis", "study",
	"problem", "design", "evaluation", "performance", "model", "paper",
	"experiment", "framework", "overview", "novel", "improved", "practical",
}

// authorPool provides document authors.
var authorPool = []string{
	"Ada Lovelace", "Edsger Dijkstra", "Grace Hopper", "Alan Turing",
	"Barbara Liskov", "Donald Knuth", "Edgar Codd", "Jim Gray",
	"Ana Garcia", "Luis Moreno", "Wei Chen", "Yuki Tanaka",
}

// primaryBias is the fraction of body words drawn from a document's
// primary topic; of the rest, 0.2 is general vocabulary and the remainder
// other topics.
const primaryBias float64 = 0.7

// Config controls generation.
type Config struct {
	// Seed makes generation deterministic.
	Seed int64
	// NumSources is the number of sources to generate; topics rotate, so
	// several sources may share a primary topic (with different tails).
	NumSources int
	// DocsPerSource is each source's collection size.
	DocsPerSource int
	// BodyWords is the mean body length in words (default 80).
	BodyWords int
	// VocabWords is the per-topic vocabulary size (default 120). Large
	// collections should use proportionally larger vocabularies — real
	// corpora grow distinct terms with size (Heaps' law), and it is the
	// long rare tail that gives ranked retrieval its selectivity spread.
	VocabWords int
	// Overlap, in [0,1), is the fraction of each source's documents that
	// are duplicated into the next source, exercising duplicate
	// elimination (default 0).
	Overlap float64
}

// SourceSpec is one generated source: its documents plus ground truth.
type SourceSpec struct {
	ID           string
	PrimaryTopic string
	Docs         []*index.Document
}

// Generated is a complete synthetic universe.
type Generated struct {
	Topics  []Topic
	Sources []SourceSpec
}

// Generate builds a deterministic universe from the config.
func Generate(cfg Config) *Generated {
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
	vocabs := make([]zipfWords, len(topics))
	for i, t := range topics {
		vocabs[i] = zipfWords{t.Words, harmonicCDF(len(t.Words))}
	}

	for si := 0; si < cfg.NumSources; si++ {
		ti := si % len(topics)
		spec := SourceSpec{
			ID:           fmt.Sprintf("src-%02d-%s", si, topics[ti].Name),
			PrimaryTopic: topics[ti].Name,
		}
		for di := 0; di < cfg.DocsPerSource; di++ {
			spec.Docs = append(spec.Docs, genDoc(rng, vocabs, ti, topics[ti].Language, spec.ID, di, cfg))
		}
		g.Sources = append(g.Sources, spec)
	}
	// Duplicate a fraction of each source's documents into the next
	// source (same linkage: the same logical document held twice).
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

// titleCase upper-cases the first letter of each space-separated word.
func titleCase(s string) string {
	b := []byte(s)
	up := true
	for i, c := range b {
		if c == ' ' {
			up = true
			continue
		}
		if up && c >= 'a' && c <= 'z' {
			b[i] = c - 'a' + 'A'
		}
		up = false
	}
	return string(b)
}

// harmonicCDF caches the cumulative harmonic weights per vocabulary
// size, so sampling is a binary search instead of an O(n) rebuild and
// scan per pick. The cached prefix sums are accumulated left to right,
// term by term — exactly the additions the previous incremental scan
// performed — so every draw maps to the same word index as before.
var (
	harmonicsMu sync.Mutex
	harmonics   = map[int][]float64{}
)

func harmonicCDF(n int) []float64 {
	harmonicsMu.Lock()
	defer harmonicsMu.Unlock()
	if c, ok := harmonics[n]; ok {
		return c
	}
	c := make([]float64, n)
	var acc float64
	for i := 0; i < n; i++ {
		acc += 1 / float64(i+1)
		c[i] = acc
	}
	harmonics[n] = c
	return c
}

// zipfWords is a vocabulary with its harmonic CDF, fetched once so that
// a draw takes no lock.
type zipfWords struct {
	words []string
	cum   []float64
}

// pick samples the i-th word with probability proportional to 1/(i+1).
func (z zipfWords) pick(rng *rand.Rand) string {
	n := len(z.cum)
	i, _ := slices.BinarySearch(z.cum, rng.Float64()*z.cum[n-1])
	return z.words[min(i, n-1)]
}

// genDoc draws document di of a source whose primary topic is
// vocabs[primary].
func genDoc(rng *rand.Rand, vocabs []zipfWords, primary int, language lang.Tag, sourceID string, di int, cfg Config) *index.Document {
	title := make([]string, 4+rng.Intn(5))
	for i := range title {
		title[i] = vocabs[primary].pick(rng)
	}
	body := make([]string, cfg.BodyWords/2+rng.Intn(cfg.BodyWords))
	for i := range body {
		r := rng.Float64()
		switch {
		case r < primaryBias:
			body[i] = vocabs[primary].pick(rng)
		case r < primaryBias+0.2:
			body[i] = generalWords[rng.Intn(len(generalWords))]
		default:
			body[i] = vocabs[rng.Intn(len(vocabs))].pick(rng)
		}
	}
	doc := &index.Document{
		Linkage: fmt.Sprintf("http://%s/doc-%04d", sourceID, di),
		Title:   titleCase(strings.Join(title, " ")),
		Authors: []string{authorPool[rng.Intn(len(authorPool))]},
		Body:    strings.Join(body, " ") + ".",
		Date: time.Date(1990+rng.Intn(7), time.Month(1+rng.Intn(12)),
			1+rng.Intn(28), 0, 0, 0, 0, time.UTC),
	}
	if !language.IsZero() {
		doc.Languages = []lang.Tag{language}
	}
	return doc
}
