package result

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"starts/internal/attr"
	"starts/internal/lang"
	"starts/internal/query"
	"starts/internal/soif"
)

// bodyTerm is (body-of-text "text"), as a TermStat points at it.
func bodyTerm(text string) *query.Term {
	t := query.NewTerm(attr.FieldBodyOfText, lang.L(text))
	return &t
}

// source1Doc reconstructs the SQRDocument of the paper's Example 8.
func source1Doc() *Document {
	return &Document{
		RawScore: 0.82,
		Sources:  []string{"Source-1"},
		Fields: []FieldValue{
			{attr.FieldLinkage, "http://www-db.stanford.edu/~ullman/pub/dood.ps"},
			{attr.FieldTitle, "A Comparison Between Deductive and Object-Oriented Database Systems"},
			{attr.FieldAuthor, "Jeffrey D. Ullman"},
		},
		TermStats: []TermStat{
			{Term: bodyTerm("distributed"), Freq: 10, Weight: 0.31, DocFreq: 190},
			{Term: bodyTerm("databases"), Freq: 15, Weight: 0.51, DocFreq: 232},
		},
		Size:  248,
		Count: 10213,
	}
}

// source2Doc reconstructs the SQRDocument of the paper's Example 9.
func source2Doc() *Document {
	return &Document{
		RawScore: 0.27,
		Sources:  []string{"Source-2"},
		Fields: []FieldValue{
			{attr.FieldLinkage, "http://elib.stanford.edu/lagunita.ps"},
			{attr.FieldTitle, "Database Research: Achievements and Opportunities into the 21st. Century"},
			{attr.FieldAuthor, "Avi Silberschatz, Mike Stonebraker, Jeff Ullman"},
		},
		TermStats: []TermStat{
			{Term: bodyTerm("distributed"), Freq: 20, Weight: 0.12, DocFreq: 901},
			{Term: bodyTerm("databases"), Freq: 34, Weight: 0.15, DocFreq: 788},
		},
		Size:  125,
		Count: 9031,
	}
}

// TestPaperExample8 is experiment E8 (first half): the Example 8 result —
// header echoing the actually-processed query (Source-1 dropped the stop
// word "distributed" from the ranking expression) plus the document object
// with its term statistics — encodes and decodes faithfully.
func TestPaperExample8(t *testing.T) {
	actualFilter, err := query.ParseFilter("((author ``Ullman'') and (title stem ``databases''))")
	if err != nil {
		t.Fatal(err)
	}
	actualRanking, err := query.ParseRanking("(body-of-text ``databases'')")
	if err != nil {
		t.Fatal(err)
	}
	r := &Results{
		Sources:       []string{"Source-1"},
		ActualFilter:  actualFilter,
		ActualRanking: actualRanking,
		Documents:     []*Document{source1Doc()},
	}
	data, err := r.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	text := string(data)
	for _, want := range []string{
		"@SQResults{",
		"Sources{8}: Source-1",
		`ActualFilterExpression{48}: ((author "Ullman") and (title stem "databases"))`,
		`ActualRankingExpression{26}: (body-of-text "databases")`,
		"NumDocSOIFs{1}: 1",
		"@SQRDocument{",
		"RawScore{4}: 0.82",
		"linkage{46}: http://www-db.stanford.edu/~ullman/pub/dood.ps",
		"title{67}: A Comparison Between Deductive and Object-Oriented Database Systems",
		"author{17}: Jeffrey D. Ullman",
		`(body-of-text "distributed") 10 0.31 190`,
		`(body-of-text "databases") 15 0.51 232`,
		"DocSize{3}: 248",
		"DocCount{5}: 10213",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("encoded result missing %q\n%s", want, text)
		}
	}

	back, err := Parse(data)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(back.Documents) != 1 {
		t.Fatalf("documents = %d", len(back.Documents))
	}
	d := back.Documents[0]
	if d.RawScore != 0.82 || d.Size != 248 || d.Count != 10213 {
		t.Errorf("document = %+v", d)
	}
	if d.Title() != source1Doc().Title() || d.Linkage() != source1Doc().Linkage() {
		t.Errorf("fields = %v", d.Fields)
	}
	if !reflect.DeepEqual(d.TermStats, source1Doc().TermStats) {
		t.Errorf("TermStats = %+v", d.TermStats)
	}
	if back.ActualRanking.String() != `(body-of-text "databases")` {
		t.Errorf("ActualRanking = %s", back.ActualRanking)
	}
}

// TestPaperExample9Stats is experiment E8 (second half): the Example 9
// document from Source-2 decodes with the statistics the paper's
// re-ranking narrative depends on — the Source-2 document has the LOWER
// raw score (0.27 vs 0.82) but HIGHER term frequencies (20 and 34 vs 10
// and 15).
func TestPaperExample9Stats(t *testing.T) {
	d1, d2 := source1Doc(), source2Doc()
	if d2.RawScore >= d1.RawScore {
		t.Fatal("example premise broken: d2 must have lower raw score")
	}
	// TermStats[0] is "distributed", [1] "databases".
	if !(d2.TermStats[0].Freq > d1.TermStats[0].Freq && d2.TermStats[1].Freq > d1.TermStats[1].Freq) {
		t.Fatal("example premise broken: d2 must have higher term frequencies")
	}
	// Round trip both documents.
	r := &Results{Sources: []string{"Source-1", "Source-2"}, Documents: []*Document{d1, d2}}
	data, err := r.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Documents) != 2 {
		t.Fatalf("documents = %d", len(back.Documents))
	}
	if !reflect.DeepEqual(back.Documents[1].TermStats, d2.TermStats) {
		t.Errorf("d2 stats = %+v", back.Documents[1].TermStats)
	}
	if !reflect.DeepEqual(back.Documents[1].Sources, []string{"Source-2"}) {
		t.Errorf("d2 sources = %v", back.Documents[1].Sources)
	}
}

func TestParseTermStatsMultiline(t *testing.T) {
	v := "(body-of-text \"distributed\") 10 0.31 190\n(body-of-text \"databases\") 15 0.51 232"
	stats, err := ParseTermStats(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 || stats[1].DocFreq != 232 {
		t.Errorf("stats = %+v", stats)
	}
	// Terms whose text contains runs of spaces survive.
	v2 := `(title "meta  search") 3 0.5 7`
	stats2, err := ParseTermStats(v2)
	if err != nil {
		t.Fatal(err)
	}
	if stats2[0].Term.Value.Text != "meta  search" {
		t.Errorf("interior spaces collapsed: %q", stats2[0].Term.Value.Text)
	}
	if _, err := ParseTermStats(""); err != nil {
		t.Errorf("empty TermStats should parse: %v", err)
	}
}

// TestTermStatSize pins an entry at a term pointer and three numbers: an
// answer holds docs × terms of them.
func TestTermStatSize(t *testing.T) {
	if got := unsafe.Sizeof(TermStat{}); got > 32 {
		t.Errorf("a TermStat is %d bytes, want at most 32", got)
	}
}

// TestDecodedTermsShareBySpelling: across an answer's documents, entries
// that spell their term alike point at one term, and spellings that
// differ in case, modifiers or weight are distinct terms, each exactly as
// spelled. The first document reports two terms, so the later ones add
// more than the first allocation holds.
func TestDecodedTermsShareBySpelling(t *testing.T) {
	spellings := []string{
		`(body-of-text "Databases")`,
		`(body-of-text "databases")`,
		`(body-of-text stem "databases")`,
		`(body-of-text "databases" 0.5)`,
		`"databases"`,
		`(title "databases")`,
	}
	var objs []*soif.Object
	for _, n := range []int{2, len(spellings), len(spellings)} {
		var lines []string
		for _, sp := range spellings[:n] {
			lines = append(lines, sp+" 1 0.5 2")
		}
		objs = append(objs, soif.New(DocumentType).Add("RawScore", "1").Add("TermStats", strings.Join(lines, "\n")))
	}
	docs, err := slabDocs(objs...)
	if err != nil {
		t.Fatal(err)
	}
	var terms []*query.Term // each spelling's, where it first appears
	for _, d := range docs {
		for j, st := range d.TermStats {
			if j == len(terms) {
				terms = append(terms, st.Term)
			}
			if st.Term != terms[j] {
				t.Errorf("%s: entry %v does not share the term of its first occurrence", spellings[j], st)
			}
		}
	}
	for j, sp := range spellings {
		want, _, err := query.ScanTerm(sp)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*terms[j], want) {
			t.Errorf("%s decodes to %+v, want %+v", sp, *terms[j], want)
		}
		for k := range j {
			if terms[k] == terms[j] {
				t.Errorf("%s shares its term with %s", sp, spellings[k])
			}
		}
	}
}

// TestManyDistinctSpellingsParseEach: a remote value may spell thousands
// of distinct terms. The table files only the first maxSpellings, so an
// entry is tried against at most that many before it is parsed into a term
// of its own, and decoding stays linear in the entries.
func TestManyDistinctSpellingsParseEach(t *testing.T) {
	const n = 40000
	var b strings.Builder
	for i := range n {
		fmt.Fprintf(&b, "(body-of-text \"t%d\") 1 0.5 2\n", i)
	}
	var terms spellings
	start := time.Now()
	stats, err := appendTermStats(nil, b.String(), &terms)
	took := time.Since(start)
	if err != nil || len(stats) != n {
		t.Fatalf("%d entries, %v", len(stats), err)
	}
	t.Logf("%d distinct terms decoded in %v, %d filed", n, took, len(terms))
	if len(terms) > maxSpellings {
		t.Errorf("the table filed %d spellings, want at most %d", len(terms), maxSpellings)
	}
	seen := map[*query.Term]bool{}
	for i, st := range stats {
		if want := fmt.Sprintf("t%d", i); st.Term.Value.Text != want || seen[st.Term] {
			t.Fatalf("entry %d: %v (shared: %v), want its own term %q", i, st.Term, seen[st.Term], want)
		}
		seen[st.Term] = true
	}
	// A quadratic scan makes n²/2 = 8·10⁸ prefix checks here: seconds,
	// where a linear one takes milliseconds, under -race too.
	if took > 3*time.Second {
		t.Errorf("decoding %d distinct terms took %v", n, took)
	}
}

func TestParseTermStatsErrors(t *testing.T) {
	bad := []string{
		`(title "x") 1 0.5`,      // missing docfreq
		`(title "x") 1`,          // missing weight and docfreq
		`(title "x")`,            // missing all numbers
		`(title "x") one 0.5 2`,  // non-numeric freq
		`(title "x") 1 heavy 2`,  // non-numeric weight
		`(title "x") 1 0.5 many`, // non-numeric docfreq
		`not-a-term 1 0.5 2`,     // malformed term
		`("a" and "b") 1 0.5 2`,  // compound, not a term
	}
	for _, v := range bad {
		if _, err := ParseTermStats(v); err == nil {
			t.Errorf("ParseTermStats(%q) succeeded, want error", v)
		}
	}
}

// TestParseErrors: the bytes of every malformed answer fail to parse.
func TestParseErrors(t *testing.T) {
	// answer is a header promising count documents, then objs.
	answer := func(count string, objs ...*soif.Object) []byte {
		h := soif.New(ResultsType)
		if count != "" {
			h.Add("NumDocSOIFs", count)
		}
		return marshalAll(append([]*soif.Object{h}, objs...)...)
	}
	doc := func(name, val string) *soif.Object { return soif.New(DocumentType).Add(name, val) }
	cases := map[string][]byte{
		"empty stream":             nil,
		"wrong header type":        marshalAll(soif.New("SQuery")),
		"NumDocSOIFs mismatch":     answer("2"),
		"no NumDocSOIFs":           answer("", doc("RawScore", "1")),
		"non-document tail object": answer("1", soif.New("SQuery")),
		"object after the answer":  answer("0", doc("RawScore", "1")),
		"answer after the answer":  join(answer("0"), answer("0")),
	}
	for _, tc := range [][2]string{
		{"RawScore", "high"},
		{"DocSize", "big"},
		{"DocCount", "lots"},
		{"TermStats", "broken"},
	} {
		cases["document with "+tc[0]+"="+tc[1]] = answer("1", doc(tc[0], tc[1]))
	}
	for name, data := range cases {
		if _, err := Parse(data); err == nil {
			t.Errorf("%s accepted:\n%s", name, data)
		}
	}
}

func TestEmptyResults(t *testing.T) {
	r := &Results{Sources: []string{"Source-1"}}
	data, err := r.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Documents) != 0 || back.Sources[0] != "Source-1" {
		t.Errorf("round trip = %+v", back)
	}
}

// Property: document round trip is the identity over generated documents.
func TestQuickDocumentRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := &Document{
			RawScore: float64(r.Intn(1000)) / 100,
			Sources:  []string{"S1"},
			Fields: []FieldValue{
				{attr.FieldLinkage, "http://example.com/doc"},
				{attr.FieldTitle, "Title with\nnewline and {braces}"},
			},
			Size:  1 + r.Intn(1000),
			Count: 1 + r.Intn(100000),
		}
		n := r.Intn(4)
		for i := 0; i < n; i++ {
			d.TermStats = append(d.TermStats, TermStat{
				Term:    bodyTerm("t" + string(rune('a'+i))),
				Freq:    r.Intn(100),
				Weight:  float64(r.Intn(100)) / 100,
				DocFreq: r.Intn(10000),
			})
		}
		res := &Results{Sources: []string{"S1"}, Documents: []*Document{d}}
		data, err := res.Marshal()
		if err != nil {
			return false
		}
		back, err := Parse(data)
		if err != nil || len(back.Documents) != 1 {
			return false
		}
		return reflect.DeepEqual(back.Documents[0], d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func BenchmarkResultsDecode(b *testing.B) {
	var docs []*Document
	for i := 0; i < 10; i++ {
		d := source1Doc()
		docs = append(docs, d)
	}
	r := &Results{Sources: []string{"Source-1"}, Documents: docs}
	data, err := r.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(data); err != nil {
			b.Fatal(err)
		}
	}
}
