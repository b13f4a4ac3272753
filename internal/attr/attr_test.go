package attr

import "testing"

// TestBasic1FieldsTable is experiment E1: the Basic-1 field table of
// Section 4.1.1, row for row (name, required flag, new flag).
func TestBasic1FieldsTable(t *testing.T) {
	want := []struct {
		field    Field
		required bool
		isNew    bool
	}{
		{"title", true, false},
		{"author", false, false},
		{"body-of-text", false, false},
		{"document-text", false, true},
		{"date-last-modified", true, false},
		{"any", true, false},
		{"linkage", true, false},
		{"linkage-type", false, false},
		{"cross-reference-linkage", false, false},
		{"languages", false, false},
		{"free-form-text", false, true},
	}
	got := Basic1Fields()
	if len(got) != len(want) {
		t.Fatalf("Basic1Fields has %d rows, paper table has %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Field != w.field || g.Required != w.required || g.New != w.isNew {
			t.Errorf("row %d = {%s req=%v new=%v}, want {%s req=%v new=%v}",
				i, g.Field, g.Required, g.New, w.field, w.required, w.isNew)
		}
	}
}

// TestBasic1ModifiersTable is experiment E2: the Basic-1 modifier table of
// Section 4.1.1. Every modifier is optional; the New column must match.
func TestBasic1ModifiersTable(t *testing.T) {
	newOnes := map[Modifier]bool{ModThesaurus: true, ModCaseSensitive: true}
	seen := map[Modifier]bool{}
	for _, mi := range Basic1Modifiers() {
		seen[mi.Modifier] = true
		if mi.New != newOnes[mi.Modifier] {
			t.Errorf("%s: New = %v, paper says %v", mi.Modifier, mi.New, newOnes[mi.Modifier])
		}
	}
	all := []Modifier{ModLT, ModLE, ModEQ, ModGE, ModGT, ModNE,
		ModPhonetic, ModStem, ModThesaurus, ModRightTruncation, ModLeftTruncation, ModCaseSensitive}
	for _, m := range all {
		if !seen[m] {
			t.Errorf("modifier %s missing from table", m)
		}
	}
	if len(seen) != len(all) {
		t.Errorf("table has %d distinct modifiers, want %d", len(seen), len(all))
	}
}

// TestMBasic1Table is experiment E3: the MBasic-1 metadata attribute table
// of Section 4.3.1.
func TestMBasic1Table(t *testing.T) {
	required := map[MetaAttr]bool{
		MetaFieldsSupported: true, MetaModifiersSupported: true,
		MetaFieldModifierCombinations: true, MetaScoreRange: true,
		MetaRankingAlgorithmID: true, MetaSampleDatabaseResults: true,
		MetaStopWordList: true, MetaTurnOffStopWords: true,
		MetaLinkage: true, MetaContentSummaryLinkage: true,
	}
	isNew := map[MetaAttr]bool{
		MetaFieldsSupported: true, MetaModifiersSupported: true,
		MetaFieldModifierCombinations: true, MetaQueryPartsSupported: true,
		MetaScoreRange: true, MetaRankingAlgorithmID: true,
		MetaTokenizerIDList: true, MetaSampleDatabaseResults: true,
		MetaStopWordList: true, MetaTurnOffStopWords: true,
		MetaContentSummaryLinkage: true,
	}
	rows := MBasic1Attrs()
	if len(rows) != 19 {
		t.Fatalf("MBasic-1 table has %d rows, paper has 19", len(rows))
	}
	for _, mi := range rows {
		if mi.Required != required[mi.Attr] {
			t.Errorf("%s: Required = %v, paper says %v", mi.Attr, mi.Required, required[mi.Attr])
		}
		if mi.New != isNew[mi.Attr] {
			t.Errorf("%s: New = %v, paper says %v", mi.Attr, mi.New, isNew[mi.Attr])
		}
	}
}

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Title", "title"},
		{"Date/time-last-modified", "date-last-modified"},
		{"BODY-OF-TEXT", "body-of-text"},
		{"Any", "any"},
	}
	for _, tc := range cases {
		if got := Normalize(Field(tc.in)); string(got) != tc.want {
			t.Errorf("Normalize(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestLookupField(t *testing.T) {
	fi, ok := LookupField("Date/time-last-modified")
	if !ok || fi.Field != FieldDateLastModified || !fi.Required {
		t.Errorf("LookupField(Date/time-last-modified) = %+v, %v", fi, ok)
	}
	if _, ok := LookupField("no-such-field"); ok {
		t.Error("LookupField accepted unknown field")
	}
	if !FieldTitle.IsRequired() {
		t.Error("title should be required")
	}
	if FieldAuthor.IsRequired() {
		t.Error("author should be optional")
	}
}

func TestRequiredFields(t *testing.T) {
	want := []Field{FieldTitle, FieldDateLastModified, FieldAny, FieldLinkage}
	got := RequiredFields()
	if len(got) != len(want) {
		t.Fatalf("RequiredFields = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("RequiredFields[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestLookupModifier(t *testing.T) {
	mi, ok := LookupModifier("STEM")
	if !ok || mi.Modifier != ModStem || mi.Default != "no stemming" {
		t.Errorf("LookupModifier(STEM) = %+v, %v", mi, ok)
	}
	if _, ok := LookupModifier(">="); !ok {
		t.Error("LookupModifier(>=) failed")
	}
	if _, ok := LookupModifier("fuzzy"); ok {
		t.Error("LookupModifier accepted unknown modifier")
	}
	// The query parser asks about every word of every term.
	if n := testing.AllocsPerRun(100, func() { LookupModifier("stem"); LookupModifier("body-of-text") }); n != 0 {
		t.Errorf("LookupModifier of a lower-case name allocates %v times", n)
	}
	// Callers that range over the table get their own.
	Basic1Modifiers()[0].Default = "clobbered"
	if mi, _ := LookupModifier("<"); mi.Default != "=" {
		t.Errorf("Basic1Modifiers handed out the table itself: %+v", mi)
	}
}

func TestIsComparison(t *testing.T) {
	for _, m := range []Modifier{ModLT, ModLE, ModEQ, ModGE, ModGT, ModNE} {
		if !m.IsComparison() {
			t.Errorf("%s should be a comparison", m)
		}
	}
	for _, m := range []Modifier{ModStem, ModPhonetic, ModCaseSensitive} {
		if m.IsComparison() {
			t.Errorf("%s should not be a comparison", m)
		}
	}
}

func TestLookupMetaAttr(t *testing.T) {
	// The paper's Example 10 uses SOIF spellings like "source-name" for the
	// table's SourceName.
	cases := []struct {
		in   string
		want MetaAttr
	}{
		{"source-name", MetaSourceName},
		{"SourceName", MetaSourceName},
		{"content-summary-linkage", MetaContentSummaryLinkage},
		{"ScoreRange", MetaScoreRange},
		{"date-changed", MetaDateChanged},
	}
	for _, tc := range cases {
		mi, ok := LookupMetaAttr(tc.in)
		if !ok || mi.Attr != tc.want {
			t.Errorf("LookupMetaAttr(%q) = %v, %v; want %v", tc.in, mi.Attr, ok, tc.want)
		}
	}
	if _, ok := LookupMetaAttr("unknown-attr"); ok {
		t.Error("LookupMetaAttr accepted unknown attribute")
	}
}

func BenchmarkFieldLookup(b *testing.B) {
	names := []string{"title", "Author", "body-of-text", "Date/time-last-modified", "any"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := LookupField(names[i%len(names)]); !ok {
			b.Fatal("lookup failed")
		}
	}
}

func BenchmarkModifierApply(b *testing.B) {
	names := []string{"stem", "phonetic", ">=", "case-sensitive"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := LookupModifier(names[i%len(names)]); !ok {
			b.Fatal("lookup failed")
		}
	}
}

func TestResolveFieldDC1(t *testing.T) {
	cases := []struct {
		set  SetName
		in   string
		want Field
	}{
		{SetDC1, "creator", FieldAuthor},
		{SetDC1, "Creator", FieldAuthor},
		{SetDC1, "title", FieldTitle},
		{SetDC1, "description", FieldBodyOfText},
		{SetDC1, "date", FieldDateLastModified},
		{SetDC1, "identifier", FieldLinkage},
		{SetDC1, "unknown-dc-field", "unknown-dc-field"},
		{SetBasic1, "author", FieldAuthor},
		{"no-such-set", "author", FieldAuthor},
	}
	for _, tc := range cases {
		if got := ResolveField(tc.set, Field(tc.in)); got != tc.want {
			t.Errorf("ResolveField(%s, %s) = %s, want %s", tc.set, tc.in, got, tc.want)
		}
	}
	if len(DC1Fields()) != 8 {
		t.Errorf("DC1Fields = %v", DC1Fields())
	}
}
