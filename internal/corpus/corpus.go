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
	"runtime"
	"slices"
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

// batchDocs is how many drawn documents a render worker takes at a time.
const batchDocs = 256

// Generate builds a deterministic universe from the config. The calling
// goroutine draws every document in order, and only it reads the random
// source; GOMAXPROCS workers render the drawn documents batch by batch,
// so the output does not depend on how many there are. Every worker has
// finished when Generate returns.
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
	g := &Generated{Topics: topics, Sources: make([]SourceSpec, cfg.NumSources)}
	// Words are drawn as indices into one table: topic i's vocabulary from
	// bases[i] on, then the general words.
	var table []string
	vocabs, bases := make([]zipf, len(topics)), make([]int32, len(topics)+1)
	for i, t := range topics {
		vocabs[i], bases[i] = zipfOf(len(t.Words)), int32(len(table))
		table = append(table, t.Words...)
	}
	bases[len(topics)], table = int32(len(table)), append(table, generalWords...)
	// A batch can wait for each worker, so drawing seldom waits for one.
	batches := make(chan *drawn, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for range cap(batches) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range batches {
				b.render(table)
			}
		}()
	}
	for si := range g.Sources {
		ti := si % len(topics)
		spec := &g.Sources[si]
		spec.ID, spec.PrimaryTopic = fmt.Sprintf("src-%02d-%s", si, topics[ti].Name), topics[ti].Name
		spec.Docs = make([]*index.Document, cfg.DocsPerSource)
		for lo := 0; lo < cfg.DocsPerSource; lo += batchDocs {
			hi := min(lo+batchDocs, cfg.DocsPerSource)
			b := &drawn{spec: spec, lo: lo, words: make([]int32, 0, (hi-lo)*maxDrawnWords(cfg.BodyWords))}
			for di := lo; di < hi; di++ {
				spec.Docs[di] = b.draw(rng, vocabs, bases, ti, cfg.BodyWords)
				if !topics[ti].Language.IsZero() {
					spec.Docs[di].Languages = []lang.Tag{topics[ti].Language}
				}
			}
			batches <- b
		}
	}
	close(batches)
	wg.Wait()
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

// drawn is a batch of a source's documents from Docs[lo] on, as drawn:
// each one's title and then its body words, each run headed by its
// length, as indices into the table.
type drawn struct {
	spec  *SourceSpec
	lo    int
	words []int32
}

// maxDrawnWords is the most words draw appends for one document: a title
// of at most 8 words, a body of fewer than 1.5 × bodyWords, and the two
// length headers.
func maxDrawnWords(bodyWords int) int { return 8 + bodyWords/2 + bodyWords + 2 }

// draw draws the batch's next document, whose primary topic is
// vocabs[primary] — the draws the generator has always made, in order —
// and returns it with its author and date; its words go to the batch.
func (b *drawn) draw(rng *rand.Rand, vocabs []zipf, bases []int32, primary, bodyWords int) *index.Document {
	pick := func(t int) int32 { return bases[t] + int32(vocabs[t].pick(rng)) }
	n := 4 + rng.Intn(5)
	for b.words = append(b.words, int32(n)); n > 0; n-- {
		b.words = append(b.words, pick(primary))
	}
	n = bodyWords/2 + rng.Intn(bodyWords)
	for b.words = append(b.words, int32(n)); n > 0; n-- {
		switch r := rng.Float64(); {
		case r < primaryBias:
			b.words = append(b.words, pick(primary))
		case r < primaryBias+0.2:
			b.words = append(b.words, bases[len(vocabs)]+int32(rng.Intn(len(generalWords))))
		default:
			b.words = append(b.words, pick(rng.Intn(len(vocabs))))
		}
	}
	return &index.Document{
		Authors: []string{authorPool[rng.Intn(len(authorPool))]},
		Date: time.Date(1990+rng.Intn(7), time.Month(1+rng.Intn(12)),
			1+rng.Intn(28), 0, 0, 0, 0, time.UTC),
	}
}

// render writes the text of the batch's documents, each one's linkage,
// title and body in one string.
func (b *drawn) render(table []string) {
	var buf []byte
	words := b.words
	join := func() {
		for i, w := range words[1 : 1+words[0]] {
			if i > 0 {
				buf = append(buf, ' ')
			}
			buf = append(buf, table[w]...)
		}
		words = words[1+words[0]:]
	}
	for di := b.lo; len(words) > 0; di++ {
		buf = fmt.Appendf(buf[:0], "http://%s/doc-%04d", b.spec.ID, di)
		link := len(buf)
		join()
		titleCase(buf[link:])
		title := len(buf)
		join()
		text := string(append(buf, '.'))
		d := b.spec.Docs[di]
		d.Linkage, d.Title, d.Body = text[:link], text[link:title], text[title:]
	}
}

// titleCase upper-cases the first letter of each space-separated word,
// in place.
func titleCase(b []byte) {
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
}

// harmonics caches a vocabulary size's sampler, so that a draw takes no
// lock.
var (
	harmonicsMu sync.Mutex
	harmonics   = map[int]zipf{}
)

// zipfOf returns the sampler of n words. The prefix sums are accumulated
// left to right, term by term — the additions the first, scanning sampler
// made — so every draw maps to the word it always has.
func zipfOf(n int) zipf {
	harmonicsMu.Lock()
	defer harmonicsMu.Unlock()
	z, ok := harmonics[n]
	if !ok {
		z = zipf{cum: make([]float64, n), guide: make([]int32, 2*n)}
		var acc float64
		for i := range z.cum {
			acc += 1 / float64(i+1)
			z.cum[i] = acc
		}
		for b := range z.guide {
			i, _ := slices.BinarySearch(z.cum, float64(b)/float64(len(z.guide))*acc)
			z.guide[b] = int32(min(i, n-1))
		}
		harmonics[n] = z
	}
	return z
}

// zipf samples the i-th of len(cum) words with probability proportional
// to 1/(i+1): cum is the harmonic CDF, and guide[b] is where the search
// for a draw in [b, b+1)/len(guide) starts.
type zipf struct {
	cum   []float64
	guide []int32
}

// pick returns the index of the first word whose cumulative weight reaches
// the draw, the one a binary search over cum finds: from the guide's start
// it walks down, then up, so the guide only has to be close.
func (z zipf) pick(rng *rand.Rand) int {
	u := rng.Float64()
	x, i := u*z.cum[len(z.cum)-1], int(z.guide[min(int(u*float64(len(z.guide))), len(z.guide)-1)])
	for i > 0 && z.cum[i-1] >= x {
		i--
	}
	for i < len(z.cum)-1 && z.cum[i] < x {
		i++
	}
	return i
}
