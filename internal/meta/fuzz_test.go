package meta

import (
	"math"
	"reflect"
	"testing"

	"starts/internal/attr"
	"starts/internal/lang"
	"starts/internal/soif"
)

// paperSeeds are the paper's Examples 10–12 as bytes — the metadata, the
// content summary and the resource object — plus an Example 10 variant
// with everything the example leaves out: infinite scores, tokenizers,
// per-field languages, expiry, and the paper's own "phonetics".
func paperSeeds(tb testing.TB) [][]byte {
	full := example10Meta()
	full.ScoreMin, full.ScoreMax = math.Inf(-1), math.Inf(1)
	full.Tokenizers = []TokenizerUse{{ID: "Acme-1", Tag: lang.EnglishUS}, {ID: "Acme-2", Tag: lang.Spanish}}
	full.FieldsSupported = append(full.FieldsSupported, FieldSupport{Set: attr.SetBasic1, Field: attr.FieldTitle, Languages: []lang.Tag{lang.EnglishUS}})
	full.DateExpires = full.DateChanged.AddDate(1, 0, 0)
	full.Abstract, full.AccessConstraints, full.Contact = "Papers", "none", "admin@example.edu"
	verbatim := soif.New(MetaType).
		Add("SourceID", "Source-1").
		Add("ModifiersSupported", "{basic-1 phonetics}").
		Add("FieldModifierCombinations", "([basic-1 author] {basic-1 phonetics})").
		Add("ScoreRange", "0.0 1.0")
	resource := &Resource{Entries: []ResourceEntry{
		{SourceID: "Source-1", MetadataURL: "ftp://www.stanford.edu/source_1"},
		{SourceID: "Source-2", MetadataURL: "ftp://www.stanford.edu/source_2"},
	}}
	// Inputs that decoded, once, to what did not encode back: a NaN score
	// bound, a combination whose groups come reversed around a delimiter,
	// a field on a summary whose words are not field-qualified.
	nan := soif.New(MetaType).Add("ScoreRange", "NaN 1.0")
	reversed := soif.New(MetaType).Add("FieldModifierCombinations", "({basic-1 stem} [basic-1 a{b])")
	unqualified := soif.New(SummaryType).Add("Fields", "F").Add("Field", "title").Add("TermDocFreq", `"a" 1 1`)
	var seeds [][]byte
	for _, o := range []*soif.Object{
		example10Meta().ToSOIF(), full.ToSOIF(), verbatim, example11Summary().ToSOIF(), resource.ToSOIF(),
		nan, reversed, unqualified,
	} {
		data, err := soif.Marshal(o)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	return seeds
}

// FuzzParseMeta: whatever the bytes — harvested metadata is the least
// trusted input a metasearcher takes — ParseMeta returns, and metadata it
// accepts encodes to bytes that decode to the same metadata.
func FuzzParseMeta(f *testing.F) {
	for _, seed := range paperSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseMeta(data)
		if err != nil {
			return
		}
		enc, err := m.Marshal()
		if err != nil {
			t.Fatalf("decoded metadata does not encode: %v\n%+v", err, m)
		}
		back, err := ParseMeta(enc)
		if err != nil {
			t.Fatalf("encoded metadata does not decode: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("round trip changed the metadata:\n%+v\n%s\n%+v", m, enc, back)
		}
	})
}

// negativeSummaries are summaries with a negative NumDocs, postings
// count or df, each of which a parse must refuse.
func negativeSummaries(tb testing.TB) [][]byte {
	var out [][]byte
	for _, o := range []*soif.Object{
		soif.New(SummaryType).Add("NumDocs", "-5"),
		soif.New(SummaryType).Add("NumDocs", "3").Add("TermDocFreq", `"a" -3 1`),
		soif.New(SummaryType).Add("NumDocs", "3").Add("TermDocFreq", `"a" 1 -7`),
	} {
		data, err := soif.Marshal(o)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

func TestParseSummaryRefusesNegativeCounts(t *testing.T) {
	for _, data := range negativeSummaries(t) {
		if c, err := ParseSummary(data); err == nil {
			t.Errorf("accepted %s as %+v", data, c)
		}
	}
}

// FuzzParseSummary is FuzzParseMeta for content summaries; a summary it
// accepts also has no negative count.
func FuzzParseSummary(f *testing.F) {
	for _, seed := range append(paperSeeds(f), negativeSummaries(f)...) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ParseSummary(data)
		if err != nil {
			return
		}
		neg := c.NumDocs < 0
		for _, g := range c.Groups {
			for _, ti := range g.Terms {
				neg = neg || ti.Postings < 0 || ti.DocFreq < 0
			}
		}
		if neg {
			t.Fatalf("accepted a negative count: %+v", c)
		}
		enc, err := c.Marshal()
		if err != nil {
			t.Fatalf("decoded summary does not encode: %v\n%+v", err, c)
		}
		back, err := ParseSummary(enc)
		if err != nil {
			t.Fatalf("encoded summary does not decode: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(back, c) {
			t.Fatalf("round trip changed the summary:\n%+v\n%s\n%+v", c, enc, back)
		}
	})
}
