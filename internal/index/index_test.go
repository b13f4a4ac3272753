package index

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"starts/internal/attr"
	"starts/internal/lang"
	"starts/internal/query"
	"starts/internal/text"
)

// testIndex builds a small hand-checkable collection under a default
// (folding, stemming) analyzer.
func testIndex(t *testing.T) *Index {
	t.Helper()
	ix := New(text.NewAnalyzer())
	docs := []*Document{
		{
			Linkage: "http://example.edu/dood.ps",
			Title:   "A Comparison Between Deductive and Object-Oriented Database Systems",
			Authors: []string{"Jeffrey D. Ullman"},
			Body:    "Deductive databases and object-oriented databases are compared. Distributed evaluation of deductive databases remains open.",
			Date:    time.Date(1995, 6, 1, 0, 0, 0, 0, time.UTC),
		},
		{
			Linkage: "http://example.edu/lagunita.ps",
			Title:   "Database Research: Achievements and Opportunities",
			Authors: []string{"Avi Silberschatz", "Mike Stonebraker", "Jeff Ullman"},
			Body:    "Database research has delivered distributed databases, parallel databases and more. The distributed systems community contributed heavily.",
			Date:    time.Date(1996, 9, 15, 0, 0, 0, 0, time.UTC),
		},
		{
			Linkage:   "http://example.edu/gloss.ps",
			Title:     "The Effectiveness of GlOSS for the Text Database Discovery Problem",
			Authors:   []string{"Luis Gravano", "Hector Garcia-Molina", "Anthony Tomasic"},
			Body:      "GlOSS chooses promising text databases for a query using compact summaries. The who of source selection matters.",
			Date:      time.Date(1994, 5, 20, 0, 0, 0, 0, time.UTC),
			CrossRefs: []string{"http://example.edu/dood.ps"},
		},
		{
			Linkage:   "http://example.edu/datos.ps",
			Title:     "Búsqueda de datos distribuidos",
			Authors:   []string{"Ana García"},
			Body:      "Los sistemas distribuidos de bases de datos requieren búsqueda eficiente.",
			Date:      time.Date(1996, 1, 10, 0, 0, 0, 0, time.UTC),
			Languages: []lang.Tag{lang.Spanish},
		},
	}
	for _, d := range docs {
		if _, err := ix.Add(d); err != nil {
			t.Fatalf("Add(%s): %v", d.Linkage, err)
		}
	}
	return ix
}

func term(t *testing.T, src string) query.Term {
	t.Helper()
	tm, rest, err := query.ScanTerm(src)
	if err != nil || rest != "" {
		t.Fatalf("ScanTerm(%q): %v rest %q", src, err, rest)
	}
	return tm
}

func ids(m *TermMatch) []int {
	var out []int
	for id := range m.Docs {
		out = append(out, id)
	}
	return out
}

func defaultOpts() LookupOptions {
	return LookupOptions{DropStopWords: true, Stop: text.EnglishStopWords(), DefaultLang: lang.EnglishUS}
}

func TestAddAndBasicLookup(t *testing.T) {
	ix := testIndex(t)
	if ix.NumDocs() != 4 {
		t.Fatalf("NumDocs = %d", ix.NumDocs())
	}
	m, err := ix.Lookup(term(t, `(body-of-text "databases")`), defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Stemming engine: "databases" matches docs 0, 1 via stem; doc 2 says
	// "databases"? body has "databases" twice via "text databases"? doc2
	// body: "text databases for a query" -> yes "databases".
	if len(m.Docs) != 3 {
		t.Errorf("databases matches %v", ids(m))
	}
	if m.Docs[0] == nil || m.Docs[0].Freq != 3 {
		t.Errorf("doc0 freq = %+v, want 3 occurrences", m.Docs[0])
	}
}

func TestAddRejectsDuplicatesAndInvalid(t *testing.T) {
	ix := testIndex(t)
	if _, err := ix.Add(&Document{Linkage: "http://example.edu/dood.ps"}); err == nil {
		t.Error("duplicate linkage accepted")
	}
	if _, err := ix.Add(&Document{Title: "no url"}); err == nil {
		t.Error("document without linkage accepted")
	}
}

func TestDocAccessors(t *testing.T) {
	ix := testIndex(t)
	d, err := ix.Doc(0)
	if err != nil || d.Title == "" {
		t.Fatalf("Doc(0) = %v, %v", d, err)
	}
	if _, err := ix.Doc(99); err == nil {
		t.Error("Doc(99) should fail")
	}
	if _, err := ix.Doc(-1); err == nil {
		t.Error("Doc(-1) should fail")
	}
	if id, ok := ix.ByLinkage("http://example.edu/gloss.ps"); !ok || id != 2 {
		t.Errorf("ByLinkage = %d, %v", id, ok)
	}
	if _, ok := ix.ByLinkage("http://nowhere"); ok {
		t.Error("ByLinkage found nothing")
	}
	snap := ix.Snapshot()
	defer snap.Close()
	if snap.TokenCount(0) == 0 {
		t.Error("TokenCount(0) = 0")
	}
	if snap.TokenCount(99) != 0 {
		t.Error("TokenCount(99) != 0")
	}
}

func TestFieldScoping(t *testing.T) {
	ix := testIndex(t)
	// "Ullman" appears only in author fields.
	m, err := ix.Lookup(term(t, `(author "Ullman")`), defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Docs) != 2 {
		t.Errorf("author Ullman matches %v", ids(m))
	}
	m2, _ := ix.Lookup(term(t, `(title "Ullman")`), defaultOpts())
	if len(m2.Docs) != 0 {
		t.Errorf("title Ullman matches %v", ids(m2))
	}
	// Any-field search unions all text fields.
	m3, _ := ix.Lookup(term(t, `(any "Ullman")`), defaultOpts())
	if len(m3.Docs) != 2 {
		t.Errorf("any Ullman matches %v", ids(m3))
	}
	// Unqualified terms default to any.
	m4, _ := ix.Lookup(term(t, `"GlOSS"`), defaultOpts())
	if len(m4.Docs) != 1 {
		t.Errorf("bare GlOSS matches %v", ids(m4))
	}
}

func TestStemmedEngineMatchesVariants(t *testing.T) {
	ix := testIndex(t)
	// The paper's Example 2: (title stem "databases") matches documents
	// whose title has "database" — on a stemming engine even without the
	// modifier.
	m, _ := ix.Lookup(term(t, `(title "databases")`), defaultOpts())
	// Docs 0 ("... Database Systems"), 1 ("Database Research ...") and 2
	// ("... Text Database Discovery ...") all match via the shared stem.
	if len(m.Docs) != 3 {
		t.Errorf("stemmed title match = %v", ids(m))
	}
}

func TestStemModifierOnUnstemmedEngine(t *testing.T) {
	a := &text.Analyzer{Tokenizer: mustTok(t, "Acme-2"), Stemming: false}
	ix := New(a)
	if _, err := ix.Add(&Document{Linkage: "u1", Title: "Database systems"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Add(&Document{Linkage: "u2", Title: "Databases everywhere"}); err != nil {
		t.Fatal(err)
	}
	opts := defaultOpts()
	// Without the modifier, exact matching only.
	m, _ := ix.Lookup(term(t, `(title "database")`), opts)
	if len(m.Docs) != 1 {
		t.Errorf("exact match = %v", ids(m))
	}
	// With stem, both spellings match.
	m2, _ := ix.Lookup(term(t, `(title stem "database")`), opts)
	if len(m2.Docs) != 2 {
		t.Errorf("stem match = %v", ids(m2))
	}
}

func mustTok(t *testing.T, id string) text.Tokenizer {
	t.Helper()
	tok, ok := text.LookupTokenizer(id)
	if !ok {
		t.Fatalf("tokenizer %s missing", id)
	}
	return tok
}

func TestPhoneticModifier(t *testing.T) {
	ix := testIndex(t)
	m, _ := ix.Lookup(term(t, `(author phonetic "Ulman")`), defaultOpts())
	if len(m.Docs) != 2 {
		t.Errorf("phonetic Ulman matches %v", ids(m))
	}
}

func TestTruncationModifiers(t *testing.T) {
	ix := testIndex(t)
	m, _ := ix.Lookup(term(t, `(body-of-text right-truncation "distribut")`), defaultOpts())
	if len(m.Docs) < 2 {
		t.Errorf("right-truncation matches %v", ids(m))
	}
	m2, _ := ix.Lookup(term(t, `(title left-truncation "search")`), LookupOptions{DefaultLang: lang.Spanish})
	// "búsqueda" does not end in "search"; English titles have no
	// *search. Check a real suffix: "veness" in "effectiveness".
	_ = m2
	// The index is stemmed, so the suffix scan runs over stemmed
	// vocabulary: "Systems" is indexed as "system", matched by "tem".
	m3, _ := ix.Lookup(term(t, `(title left-truncation "tem")`), defaultOpts())
	if len(m3.Docs) != 1 || m3.Docs[0] == nil {
		t.Errorf("left-truncation tem matches %v", ids(m3))
	}
}

func TestCaseSensitiveEngine(t *testing.T) {
	a := &text.Analyzer{Tokenizer: mustTok(t, "Acme-2"), CaseSensitive: true}
	ix := New(a)
	if _, err := ix.Add(&Document{Linkage: "u1", Title: "The Who concert"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Add(&Document{Linkage: "u2", Title: "who is who"}); err != nil {
		t.Fatal(err)
	}
	opts := LookupOptions{DefaultLang: lang.EnglishUS}
	// Default matching is case-insensitive even on a case-sensitive index.
	m, _ := ix.Lookup(term(t, `(title "WHO")`), opts)
	if len(m.Docs) != 2 {
		t.Errorf("default case match = %v", ids(m))
	}
	// The case-sensitive modifier matches exact spelling only.
	m2, _ := ix.Lookup(term(t, `(title case-sensitive "Who")`), opts)
	if len(m2.Docs) != 1 {
		t.Errorf("case-sensitive match = %v", ids(m2))
	}
}

func TestStopWordHandling(t *testing.T) {
	ix := testIndex(t)
	// "the who" with stop words dropped: both words are stop words; the
	// term is eliminated.
	m, err := ix.Lookup(term(t, `(body-of-text "the who")`), defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !m.Eliminated || len(m.Docs) != 0 {
		t.Errorf("stop phrase: eliminated=%v docs=%v", m.Eliminated, ids(m))
	}
	// With stop words kept, the phrase matches doc 2 ("The who of source
	// selection").
	opts := defaultOpts()
	opts.DropStopWords = false
	m2, err := ix.Lookup(term(t, `(body-of-text "the who")`), opts)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Eliminated || len(m2.Docs) != 1 {
		t.Errorf("kept phrase: eliminated=%v docs=%v", m2.Eliminated, ids(m2))
	}
}

func TestPhraseMatch(t *testing.T) {
	ix := testIndex(t)
	m, _ := ix.Lookup(term(t, `(body-of-text "distributed databases")`), defaultOpts())
	if len(m.Docs) != 1 || m.Docs[1] == nil {
		t.Errorf("phrase matches %v", ids(m))
	}
	// Reversed order does not match as a phrase.
	m2, _ := ix.Lookup(term(t, `(body-of-text "databases distributed")`), defaultOpts())
	if len(m2.Docs) != 0 {
		t.Errorf("reversed phrase matches %v", ids(m2))
	}
}

func TestLanguageQualifiedTerm(t *testing.T) {
	ix := testIndex(t)
	// Spanish term matches only the Spanish document.
	m, _ := ix.Lookup(term(t, `(body-of-text [es "datos"])`), LookupOptions{DefaultLang: lang.EnglishUS})
	if len(m.Docs) != 1 || m.Docs[3] == nil {
		t.Errorf("es datos matches %v", ids(m))
	}
	// English-qualified probe of a Spanish-only word misses: doc 3 is
	// marked Spanish, so an en-US term cannot match it.
	m2, _ := ix.Lookup(term(t, `(body-of-text [en-US "datos"])`), LookupOptions{})
	if len(m2.Docs) != 0 {
		t.Errorf("en datos matches %v", ids(m2))
	}
}

func TestDateComparisons(t *testing.T) {
	ix := testIndex(t)
	opts := defaultOpts()
	cases := []struct {
		src  string
		want int
	}{
		{`(date-last-modified > "1996-08-01")`, 1}, // doc 1 only
		{`(date-last-modified >= "1996-01-10")`, 2},
		{`(date-last-modified < "1995-01-01")`, 1}, // doc 2
		{`(date-last-modified <= "1995-06-01")`, 2},
		{`(date-last-modified = "1994-05-20")`, 1},
		{`(date-last-modified != "1994-05-20")`, 3},
	}
	for _, tc := range cases {
		m, err := ix.Lookup(term(t, tc.src), opts)
		if err != nil {
			t.Errorf("%s: %v", tc.src, err)
			continue
		}
		if len(m.Docs) != tc.want {
			t.Errorf("%s matches %d docs (%v), want %d", tc.src, len(m.Docs), ids(m), tc.want)
		}
	}
	if _, err := ix.Lookup(term(t, `(date-last-modified > "not a date")`), opts); err == nil {
		t.Error("bad date accepted")
	}
}

func TestSpecialFields(t *testing.T) {
	ix := testIndex(t)
	opts := defaultOpts()
	m, _ := ix.Lookup(term(t, `(linkage "http://example.edu/gloss.ps")`), opts)
	if len(m.Docs) != 1 || m.Docs[2] == nil {
		t.Errorf("linkage matches %v", ids(m))
	}
	m2, _ := ix.Lookup(term(t, `(cross-reference-linkage "http://example.edu/dood.ps")`), opts)
	if len(m2.Docs) != 1 || m2.Docs[2] == nil {
		t.Errorf("cross-ref matches %v", ids(m2))
	}
	m3, err := ix.Lookup(term(t, `(languages "es")`), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(m3.Docs) != 1 || m3.Docs[3] == nil {
		t.Errorf("languages matches %v", ids(m3))
	}
	if _, err := ix.Lookup(term(t, `(languages "!!")`), opts); err == nil {
		t.Error("bad language tag accepted")
	}
	// Unknown fields match nothing rather than failing.
	m4, err := ix.Lookup(term(t, `(free-form-text "native(query)")`), opts)
	if err != nil || len(m4.Docs) != 0 {
		t.Errorf("unknown field: %v, %v", ids(m4), err)
	}
}

func TestDocFreqAndVocab(t *testing.T) {
	ix := testIndex(t)
	if df := ix.DocFreq(attr.FieldBodyOfText, "databases"); df != 3 {
		t.Errorf("DocFreq(databases) = %d", df)
	}
	if df := ix.DocFreq(attr.FieldBodyOfText, "zebra"); df != 0 {
		t.Errorf("DocFreq(zebra) = %d", df)
	}
	seen := 0
	ix.VocabTerms(func(f attr.Field, term string, postings, docFreq int) {
		seen++
		if postings < docFreq || docFreq < 1 {
			t.Errorf("%s/%s: postings %d < docfreq %d", f, term, postings, docFreq)
		}
	})
	if seen == 0 {
		t.Error("VocabTerms visited nothing")
	}
}

func TestThesaurusModifier(t *testing.T) {
	ix := testIndex(t)
	opts := defaultOpts()
	opts.Thesaurus = text.DefaultThesaurus()
	// "federated" expands to "distributed" among others.
	m, _ := ix.Lookup(term(t, `(body-of-text thesaurus "federated")`), opts)
	if len(m.Docs) < 2 {
		t.Errorf("thesaurus federated matches %v", ids(m))
	}
	// Without the thesaurus, no match.
	m2, _ := ix.Lookup(term(t, `(body-of-text "federated")`), opts)
	if len(m2.Docs) != 0 {
		t.Errorf("plain federated matches %v", ids(m2))
	}
}

func TestNativeLookupAtIndexLevel(t *testing.T) {
	ix := testIndex(t)
	opts := defaultOpts()
	opts.Native = func(native string) (map[int]bool, error) {
		if native == "boom" {
			return nil, errNative
		}
		return map[int]bool{0: true, 99: true}, nil // 99 out of range: dropped
	}
	m, err := ix.Lookup(term(t, `(free-form-text "native stuff")`), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Docs) != 1 || m.Docs[0] == nil {
		t.Errorf("native lookup = %v", ids(m))
	}
	if m.DocFreq() != 1 {
		t.Errorf("DocFreq = %d", m.DocFreq())
	}
	if _, err := ix.Lookup(term(t, `(free-form-text "boom")`), opts); err == nil {
		t.Error("native error swallowed")
	}
	// Without a handler the field matches nothing.
	m2, err := ix.Lookup(term(t, `(free-form-text "x")`), defaultOpts())
	if err != nil || len(m2.Docs) != 0 {
		t.Errorf("no-handler native = %v, %v", ids(m2), err)
	}
}

var errNative = fmt.Errorf("native backend down")

func TestLinkageTypeLookup(t *testing.T) {
	a := text.NewAnalyzer()
	ix := New(a)
	if _, err := ix.Add(&Document{Linkage: "u1", Title: "PostScript doc", LinkageType: "application/postscript"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Add(&Document{Linkage: "u2", Title: "HTML doc", LinkageType: "text/html"}); err != nil {
		t.Fatal(err)
	}
	m, err := ix.Lookup(term(t, `(linkage-type "text/html")`), LookupOptions{})
	if err != nil || len(m.Docs) != 1 || m.Docs[1] == nil {
		t.Errorf("linkage-type = %v, %v", ids(m), err)
	}
}

func TestDocumentHelpers(t *testing.T) {
	d := &Document{
		Linkage: "u", Title: "T", Authors: []string{"A", "B"},
		Body: "some body", LinkageType: "text/plain",
		CrossRefs: []string{"http://x", "http://y"},
		Languages: []lang.Tag{lang.Spanish},
	}
	if d.FieldText(attr.FieldAuthor) != "A, B" {
		t.Errorf("author text = %q", d.FieldText(attr.FieldAuthor))
	}
	if d.FieldText(attr.FieldCrossReferenceLinkage) != "http://x http://y" {
		t.Errorf("crossref text = %q", d.FieldText(attr.FieldCrossReferenceLinkage))
	}
	if d.FieldText(attr.FieldLanguages) != "es" {
		t.Errorf("languages text = %q", d.FieldText(attr.FieldLanguages))
	}
	if d.FieldText(attr.FieldLinkage) != "u" || d.FieldText(attr.FieldLinkageType) != "text/plain" {
		t.Error("linkage texts wrong")
	}
	if d.FieldText("no-such") != "" {
		t.Error("unknown field text")
	}
	if (&Document{}).SizeKB() != 0 {
		t.Error("empty doc size")
	}
	small := &Document{Body: "tiny"}
	if small.SizeKB() != 1 {
		t.Errorf("small doc SizeKB = %d", small.SizeKB())
	}
	big := &Document{Body: string(make([]byte, 5000))}
	if big.SizeKB() != 4 {
		t.Errorf("big doc SizeKB = %d", big.SizeKB())
	}
	if ix := New(text.NewAnalyzer()); ix.Analyzer() == nil {
		t.Error("Analyzer accessor")
	}
	if ix := New(text.NewAnalyzer()); ix.DocFreq(attr.FieldTitle, "x") != 0 {
		t.Error("DocFreq on empty index")
	}
}

// TestLookupLeavesPostingsAlone: a match's Positions may be the posting's
// own storage, which concurrent lookups read, so nothing a lookup or its
// caller does to a result may show in the index — not the merge of two
// expansion terms or of two fields, not an append to the result.
func TestLookupLeavesPostingsAlone(t *testing.T) {
	ix := testIndex(t)
	snapshot := func() map[string][][]int {
		all := map[string][][]int{}
		for f, fi := range ix.fields {
			for word, pl := range fi.postings {
				for _, b := range pl.blocks {
					for _, p := range b.docs {
						all[string(f)+"/"+word] = append(all[string(f)+"/"+word], append([]int(nil), p.Positions...))
					}
				}
			}
		}
		return all
	}
	before := snapshot()
	for _, src := range []string{
		`(body-of-text "databases")`,
		`(body-of-text right-truncation "d")`, // many expansion terms per document
		`(any "database")`,                    // title and body merged
		`(any right-truncation "d")`,
	} {
		m, err := ix.Lookup(term(t, src), defaultOpts())
		if err != nil || len(m.Docs) == 0 {
			t.Fatalf("%s: %v, %v", src, m, err)
		}
		for id, info := range m.Docs {
			if info.Freq != len(info.Positions) || !sort.IntsAreSorted(info.Positions) {
				t.Errorf("%s: doc %d: freq %d, positions %v", src, id, info.Freq, info.Positions)
			}
			// The posting's next position, had the capacity not been clipped.
			info.Positions = append(info.Positions, -1)
		}
	}
	if after := snapshot(); !reflect.DeepEqual(after, before) {
		t.Fatalf("lookups changed the postings:\n%v\nwas\n%v", after, before)
	}
}
