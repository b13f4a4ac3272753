package index

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"starts/internal/attr"
	"starts/internal/lang"
	"starts/internal/text"
)

// roundTripDocs are documents whose every part the index must give back:
// several authors, empty names, an author holding the separator the
// author text joins with, languages, cross-references, a linkage type,
// dates in other zones and with nanoseconds — next to plain ones.
func roundTripDocs() []*Document {
	west := time.FixedZone("UTC-7", -7*3600)
	both := []lang.Tag{lang.Spanish, lang.EnglishUS}
	docs := []*Document{
		{
			Linkage: "http://r/0", LinkageType: "text/html", Title: "Multi",
			Authors: []string{"A. One", "B. Two", "C. Three"}, Body: "body text",
			Date:      time.Date(1996, 3, 4, 23, 30, 0, 0, west),
			Languages: both, CrossRefs: []string{"http://x", "http://y"},
		},
		{Linkage: "http://r/1", Title: "no date, no authors"},
		{Linkage: "http://r/2", Authors: []string{"Last, First"}, Date: time.Date(2001, 1, 1, 0, 0, 0, 123456789, time.UTC)},
		{Linkage: "http://r/3", Authors: []string{""}, Body: "one empty name"},
		{Linkage: "http://r/4", Authors: []string{"Solo"}, Languages: both},
		{Linkage: "http://r/5", Title: "ÜNÏCÖDÉ", Body: "same languages as the one before", Languages: both},
		{Linkage: "http://r/6", Authors: []string{"", "x", ""}, Date: time.Date(1, 1, 1, 0, 0, 0, 1, time.UTC), Body: "a nanosecond after the zero time"},
		{Linkage: "http://r/7", Title: string(make([]byte, 3000)), Body: "big", Date: time.Date(1990, 5, 6, 1, 2, 3, 0, time.FixedZone("UTC+9", 9*3600))},
	}
	return append(docs, genTestDocs(60)...)
}

func cloneDoc(d *Document) *Document {
	c := *d
	c.Authors, c.Languages, c.CrossRefs = slices.Clone(d.Authors), slices.Clone(d.Languages), slices.Clone(d.CrossRefs)
	return &c
}

func docsEqual(a, b *Document) bool {
	return a.Linkage == b.Linkage && a.LinkageType == b.LinkageType && a.Title == b.Title && a.Body == b.Body &&
		slices.Equal(a.Authors, b.Authors) && a.Date.Equal(b.Date) &&
		slices.Equal(a.Languages, b.Languages) && slices.Equal(a.CrossRefs, b.CrossRefs)
}

// TestDocRoundTrip holds the index's document storage to its input:
// every Doc(id) equals the document indexed (dates by Equal), and the
// index's accessors answer what the document's own methods do — even
// after the caller has changed the documents it handed over.
func TestDocRoundTrip(t *testing.T) {
	fields := []attr.Field{
		attr.FieldLinkage, attr.FieldLinkageType, attr.FieldTitle, attr.FieldAuthor, attr.FieldBodyOfText,
		attr.FieldCrossReferenceLinkage, attr.FieldLanguages, attr.FieldDateLastModified, "no-such",
	}
	for _, workers := range []int{1, 3} {
		how := fmt.Sprintf("%d workers", workers)
		docs := roundTripDocs()
		want := make([]*Document, len(docs))
		for i, d := range docs {
			want[i] = cloneDoc(d)
		}
		ix, err := Build(text.NewAnalyzer(), docs, workers)
		if err != nil {
			t.Fatal(err)
		}
		// Nothing the caller does to its documents reaches the index.
		for _, d := range docs {
			d.Title += " changed"
			if len(d.Authors) > 0 {
				d.Authors[0] = "changed"
			}
			if len(d.Languages) > 0 {
				d.Languages[0] = lang.Tag{Language: "xx"}
			}
		}
		if ix.recs[4].extra == 0 || ix.recs[4].extra != ix.recs[5].extra {
			t.Errorf("%s: equal neighbours' side-table entries %d and %d, want one shared", how, ix.recs[4].extra, ix.recs[5].extra)
		}
		for id, w := range want {
			got := ix.document(id)
			if !docsEqual(got, w) {
				t.Errorf("%s: Doc(%d) = %+v\nwant %+v", how, id, *got, *w)
			}
			for _, f := range fields {
				if g, w := ix.FieldText(id, f), w.FieldText(f); g != w {
					t.Errorf("%s: doc %d %s text %q, want %q", how, id, f, g, w)
				}
			}
			if g, w := ix.SizeKB(id), w.SizeKB(); g != w {
				t.Errorf("%s: doc %d SizeKB %d, want %d", how, id, g, w)
			}
		}
		if ix.FieldText(len(want), attr.FieldTitle) != "" || ix.SizeKB(-1) != 0 || ix.CompareDates(-1, 0) >= 0 {
			t.Errorf("%s: a missing document reads as non-empty", how)
		}
		if d, err := ix.Doc(0); err != nil || !docsEqual(d, want[0]) {
			t.Errorf("%s: Index.Doc(0) = %+v, %v", how, d, err)
		}
	}
}

// TestCompareFoldMatchesToLower holds the in-place comparator to the
// folds it stands for on the strings that make folding hard: capitals
// outside ASCII, one whose fold is shorter than it, invalid UTF-8 next to
// an encoded U+FFFD, shared prefixes. FuzzSortMatchesKeyOracle (engine)
// takes it further.
func TestCompareFoldMatchesToLower(t *testing.T) {
	strs := []string{"", "a", "A", "ab", "abc", "ABD", "École", "école", "ecole", "Zebra", "zèbre",
		"İstanbul", "istanbul", "\u212a", "k", "\xff", "\ufffd", "a\xffb", "a\ufffdb", "\xc3", "\xc3\xa9"}
	for _, a := range strs {
		for _, b := range strs {
			if g, w := CompareFold(a, b), strings.Compare(strings.ToLower(a), strings.ToLower(b)); g != w {
				t.Errorf("CompareFold(%q, %q) = %d, want %d", a, b, g, w)
			}
		}
	}
}
