package corpus

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"starts/internal/lang"
)

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
	z := zipfWords{words, harmonicCDF(len(words))}
	counts := make([]int, len(words))
	for i := 0; i < 20000; i++ {
		w, _ := strconv.Atoi(z.pick(rng))
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
