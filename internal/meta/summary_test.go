package meta

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"starts/internal/attr"
	"starts/internal/lang"
	"starts/internal/soif"
)

// example11Summary reconstructs the content summary of the paper's
// Example 11: unstemmed, case-insensitive, field-qualified words with
// English and Spanish title groups, 892 documents.
func example11Summary() *ContentSummary {
	return &ContentSummary{
		Stemming:          false,
		StopWordsIncluded: false,
		CaseSensitive:     false,
		FieldsQualified:   true,
		NumDocs:           892,
		Groups: []SummaryGroup{
			{
				Field:    attr.FieldTitle,
				Language: lang.EnglishUS,
				Terms: []TermInfo{
					{Term: "algorithm", Postings: 100, DocFreq: 53},
					{Term: "analysis", Postings: 50, DocFreq: 23},
				},
			},
			{
				Field:    attr.FieldTitle,
				Language: lang.Spanish,
				Terms: []TermInfo{
					{Term: "algoritmo", Postings: 23, DocFreq: 11},
					{Term: "datos", Postings: 59, DocFreq: 12},
				},
			},
		},
	}
}

// TestPaperExample11 is experiment E10: the Example 11 content summary
// encodes with the paper's layout and round trips.
func TestPaperExample11(t *testing.T) {
	c := example11Summary()
	data, err := c.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	text := string(data)
	for _, want := range []string{
		"@SContentSummary{",
		"Stemming{1}: F",
		"StopWords{1}: F",
		"CaseSensitive{1}: F",
		"Fields{1}: T",
		"NumDocs{3}: 892",
		"Field{5}: title",
		"Language{5}: en-US",
		`"algorithm" 100 53`,
		`"analysis" 50 23`,
		"Language{2}: es",
		`"algoritmo" 23 11`,
		`"datos" 59 12`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("encoded summary missing %q\n%s", want, text)
		}
	}

	back, err := ParseSummary(data)
	if err != nil {
		t.Fatalf("ParseSummary: %v", err)
	}
	if back.NumDocs != 892 || !back.FieldsQualified || back.Stemming {
		t.Errorf("flags = %+v", back)
	}
	if len(back.Groups) != 2 {
		t.Fatalf("groups = %d", len(back.Groups))
	}
	// The paper's reading: "algorithm" appears in the title of 53 English
	// documents; "datos" in the title of 12 Spanish documents.
	if ti, ok := back.Lookup(attr.FieldTitle, lang.EnglishUS, "algorithm"); !ok || ti.DocFreq != 53 {
		t.Errorf("Lookup(algorithm) = %+v, %v", ti, ok)
	}
	if ti, ok := back.Lookup(attr.FieldTitle, lang.Spanish, "datos"); !ok || ti.DocFreq != 12 {
		t.Errorf("Lookup(datos) = %+v, %v", ti, ok)
	}
}

func TestSummaryLookupSemantics(t *testing.T) {
	c := example11Summary()
	c.SortTerms()
	// Any-field lookup probes every group.
	if ti, ok := c.Lookup(attr.FieldAny, lang.Tag{}, "algoritmo"); !ok || ti.Postings != 23 {
		t.Errorf("any-field lookup = %+v, %v", ti, ok)
	}
	// Wrong field misses.
	if _, ok := c.Lookup(attr.FieldAuthor, lang.Tag{}, "algorithm"); ok {
		t.Error("author-field lookup should miss")
	}
	// Case-insensitive summaries match upper-cased probes.
	if _, ok := c.Lookup(attr.FieldTitle, lang.EnglishUS, "Algorithm"); !ok {
		t.Error("case-insensitive lookup failed")
	}
	// DocFreq sums across matching groups.
	if df := c.DocFreq(attr.FieldTitle, lang.Tag{}, "algorithm"); df != 53 {
		t.Errorf("DocFreq = %d", df)
	}
	if df := c.DocFreq(attr.FieldTitle, lang.Tag{}, "missing"); df != 0 {
		t.Errorf("DocFreq(missing) = %d", df)
	}
	if n := c.TotalTerms(); n != 4 {
		t.Errorf("TotalTerms = %d", n)
	}
}

func TestSummaryCaseSensitive(t *testing.T) {
	c := &ContentSummary{
		CaseSensitive: true,
		NumDocs:       1,
		Groups: []SummaryGroup{{
			Field: attr.FieldTitle,
			Terms: []TermInfo{{Term: "Ullman", Postings: 5, DocFreq: 3}},
		}},
	}
	c.SortTerms()
	if _, ok := c.Lookup(attr.FieldTitle, lang.Tag{}, "ullman"); ok {
		t.Error("case-sensitive summary matched folded probe")
	}
	if ti, ok := c.Lookup(attr.FieldTitle, lang.Tag{}, "Ullman"); !ok || ti.DocFreq != 3 {
		t.Errorf("exact probe = %+v, %v", ti, ok)
	}
}

func TestSummaryErrors(t *testing.T) {
	mk := func(name, val string) *soif.Object {
		o := soif.New(SummaryType)
		o.Add(name, val)
		return o
	}
	cases := []*soif.Object{
		soif.New("SQuery"),
		mk("Stemming", "yes"),
		mk("NumDocs", "many"),
		mk("Language", "!!"),
		mk("TermDocFreq", `"word"`),
		mk("TermDocFreq", `"word" 10`),
		mk("TermDocFreq", `"word" ten 5`),
		mk("TermDocFreq", `"word" 10 five`),
		mk("TermDocFreq", `unquoted 10 5`),
		mk("Unknown", "value"),
	}
	for i, o := range cases {
		if _, err := SummaryFromSOIF(o); err == nil {
			t.Errorf("case %d accepted, want error", i)
		}
	}
}

// Property: summaries round trip through SOIF.
func TestQuickSummaryRoundTrip(t *testing.T) {
	fields := []attr.Field{attr.FieldTitle, attr.FieldBodyOfText, attr.FieldAuthor}
	tags := []lang.Tag{lang.EnglishUS, lang.Spanish, {}}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := &ContentSummary{
			Stemming:          r.Intn(2) == 0,
			StopWordsIncluded: r.Intn(2) == 0,
			CaseSensitive:     r.Intn(2) == 0,
			FieldsQualified:   true,
			NumDocs:           r.Intn(10000),
		}
		ng := 1 + r.Intn(3)
		for i := 0; i < ng; i++ {
			g := SummaryGroup{Field: fields[r.Intn(len(fields))], Language: tags[r.Intn(len(tags))]}
			nt := 1 + r.Intn(5)
			for j := 0; j < nt; j++ {
				g.Terms = append(g.Terms, TermInfo{
					Term:     "w" + string(rune('a'+j)),
					Postings: r.Intn(1000),
					DocFreq:  r.Intn(500),
				})
			}
			c.Groups = append(c.Groups, g)
		}
		c.SortTerms()
		data, err := c.Marshal()
		if err != nil {
			return false
		}
		back, err := ParseSummary(data)
		if err != nil {
			return false
		}
		if back.NumDocs != c.NumDocs || len(back.Groups) != len(c.Groups) {
			return false
		}
		for i := range c.Groups {
			if len(back.Groups[i].Terms) != len(c.Groups[i].Terms) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPaperExample12 is experiment E11: the Example 12 resource object.
func TestPaperExample12(t *testing.T) {
	r := &Resource{Entries: []ResourceEntry{
		{SourceID: "Source-1", MetadataURL: "ftp://www.stanford.edu/source_1"},
		{SourceID: "Source-2", MetadataURL: "ftp://www.stanford.edu/source_2"},
	}}
	data, err := r.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{
		"@SResource{",
		"Version{10}: STARTS 1.0",
		"Source-1 ftp://www.stanford.edu/source_1",
		"Source-2 ftp://www.stanford.edu/source_2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("encoded resource missing %q\n%s", want, text)
		}
	}
	back, err := ParseResource(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Entries) != 2 || back.Entries[1].SourceID != "Source-2" {
		t.Errorf("entries = %+v", back.Entries)
	}
}

func TestResourceErrors(t *testing.T) {
	if _, err := ResourceFromSOIF(soif.New("SQuery")); err == nil {
		t.Error("wrong type accepted")
	}
	if _, err := ResourceFromSOIF(soif.New(ResourceType)); err == nil {
		t.Error("missing SourceList accepted")
	}
	o := soif.New(ResourceType)
	o.Add("SourceList", "only-an-id")
	if _, err := ResourceFromSOIF(o); err == nil {
		t.Error("malformed line accepted")
	}
	o2 := soif.New(ResourceType)
	o2.Add("SourceList", "  \n  ")
	if _, err := ResourceFromSOIF(o2); err == nil {
		t.Error("empty source list accepted")
	}
}

func BenchmarkMetaEncode(b *testing.B) {
	m := example10Meta()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMetaDecode(b *testing.B) {
	data, err := example10Meta().Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseMeta(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSummaryDecode(b *testing.B) {
	c := example11Summary()
	// Grow to a realistic vocabulary size.
	for i := 0; i < 1000; i++ {
		c.Groups[0].Terms = append(c.Groups[0].Terms, TermInfo{
			Term:     "term" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26)),
			Postings: i, DocFreq: i / 2,
		})
	}
	c.SortTerms()
	data, err := c.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseSummary(data); err != nil {
			b.Fatal(err)
		}
	}
}

func TestResourceFormatToken(t *testing.T) {
	r := &Resource{Entries: []ResourceEntry{
		{SourceID: "S1", MetadataURL: "http://x/s1/metadata"},
		{SourceID: "S2", MetadataURL: "http://x/s2/metadata", Format: FormatJSON},
	}}
	data, err := r.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "S2 http://x/s2/metadata json") {
		t.Errorf("format token missing:\n%s", data)
	}
	if strings.Contains(string(data), "S1 http://x/s1/metadata soif") {
		t.Error("default format should be elided")
	}
	back, err := ParseResource(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Entries[0].Format != "" || back.Entries[1].Format != FormatJSON {
		t.Errorf("formats = %q %q", back.Entries[0].Format, back.Entries[1].Format)
	}
	// Four tokens is malformed.
	o := soif.New(ResourceType)
	o.Add("SourceList", "S1 http://x a b")
	if _, err := ResourceFromSOIF(o); err == nil {
		t.Error("four-token line accepted")
	}
}
