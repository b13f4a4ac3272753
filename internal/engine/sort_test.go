package engine

import (
	"cmp"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"starts/internal/attr"
	"starts/internal/index"
	"starts/internal/lang"
	"starts/internal/query"
)

// sortTopOf runs sortTop over the engine's index.
func sortTopOf(e *Engine, docs []scoredDoc, keys []query.SortKey, max int) []scoredDoc {
	return sortTop(e.Index(), docs, keys, max)
}

func sortIDs(docs []scoredDoc) []int {
	ids := make([]int, len(docs))
	for i, sd := range docs {
		ids[i] = sd.id
	}
	return ids
}

func mkScored(pairs ...float64) []scoredDoc {
	// pairs alternate id, score.
	var out []scoredDoc
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, scoredDoc{id: int(pairs[i]), score: pairs[i+1]})
	}
	return out
}

// TestSortTopTable covers the sort specification space: single and
// multi-key, ascending and descending, score and field keys, date
// formatting, and documents missing the sorted field.
func TestSortTopTable(t *testing.T) {
	e := newEngine(t, NewVectorConfig())
	// A fourth document with no date and no authors: its sort keys for
	// those fields are empty strings, which order before any value.
	if err := e.Add(&index.Document{Linkage: "http://x/bare.ps", Title: "zzz minimal"}); err != nil {
		t.Fatal(err)
	}
	// Collection: 0 dood(1995-06-01), 1 lagunita(1996-09-15),
	// 2 gloss(1994-05-20), 3 bare(no date, title "zzz minimal").
	cases := []struct {
		name string
		keys []query.SortKey
		in   []scoredDoc
		want []int
	}{
		{
			name: "score descending default",
			keys: []query.SortKey{{Field: query.ScoreSortField}},
			in:   mkScored(0, 0.2, 1, 0.9, 2, 0.5),
			want: []int{1, 2, 0},
		},
		{
			name: "score ascending",
			keys: []query.SortKey{{Field: query.ScoreSortField, Ascending: true}},
			in:   mkScored(0, 0.2, 1, 0.9, 2, 0.5),
			want: []int{0, 2, 1},
		},
		{
			name: "score ties break by ascending id",
			keys: []query.SortKey{{Field: query.ScoreSortField}},
			in:   mkScored(2, 0.5, 0, 0.5, 1, 0.5),
			want: []int{0, 1, 2},
		},
		{
			name: "date ascending, missing date first",
			keys: []query.SortKey{{Field: attr.FieldDateLastModified, Ascending: true}},
			in:   mkScored(0, 0, 1, 0, 2, 0, 3, 0),
			want: []int{3, 2, 0, 1},
		},
		{
			name: "date descending",
			keys: []query.SortKey{{Field: attr.FieldDateLastModified}},
			in:   mkScored(0, 0, 1, 0, 2, 0),
			want: []int{1, 0, 2},
		},
		{
			name: "title ascending folds case",
			keys: []query.SortKey{{Field: attr.FieldTitle, Ascending: true}},
			in:   mkScored(3, 0, 2, 0, 1, 0, 0, 0),
			want: []int{0, 1, 2, 3},
		},
		{
			name: "author ascending, missing author first",
			keys: []query.SortKey{{Field: attr.FieldAuthor, Ascending: true}},
			in:   mkScored(0, 0, 1, 0, 3, 0),
			want: []int{3, 1, 0}, // "" < "avi silberschatz, ..." < "jeffrey d. ullman"
		},
		{
			name: "multi-key: score desc then date asc",
			keys: []query.SortKey{
				{Field: query.ScoreSortField},
				{Field: attr.FieldDateLastModified, Ascending: true},
			},
			in:   mkScored(0, 0.5, 1, 0.5, 2, 0.9),
			want: []int{2, 0, 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := sortIDs(sortTopOf(e, tc.in, tc.keys, 0))
			if len(got) != len(tc.want) {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
			for i := range tc.want {
				if got[i] != tc.want[i] {
					t.Fatalf("got %v, want %v", got, tc.want)
				}
			}
		})
	}
}

// TestSortTopMissingDocRegression is the crash regression: a scored id
// with no document behind it (a stale or corrupted id) used to make the
// field comparator dereference a nil *index.Document and panic. Sorting
// must instead treat the missing document as having empty sort keys.
func TestSortTopMissingDocRegression(t *testing.T) {
	e := newEngine(t, NewVectorConfig())
	docs := mkScored(1, 0.5, 999, 0.9, 0, 0.2) // 999 does not exist
	got := sortIDs(sortTopOf(e, docs, []query.SortKey{{Field: attr.FieldTitle, Ascending: true}}, 0))
	// The missing document sorts on the empty title, before any real one.
	if got[0] != 999 {
		t.Fatalf("missing doc sorted at %v, want first (empty key); order %v", got, got)
	}
	// Score sorting must survive missing ids too.
	got = sortIDs(sortTopOf(e, docs, []query.SortKey{{Field: query.ScoreSortField}}, 0))
	if got[0] != 999 || got[1] != 1 || got[2] != 0 {
		t.Fatalf("score sort with missing id = %v", got)
	}
}

// TestSortTopHeapMatchesFullSort cross-checks the bounded-heap selection
// against the full sort on randomized scored docs with heavy ties.
func TestSortTopHeapMatchesFullSort(t *testing.T) {
	e := newEngine(t, NewVectorConfig())
	rng := rand.New(rand.NewSource(3))
	keys := []query.SortKey{
		{Field: attr.FieldDateLastModified, Ascending: true},
		{Field: query.ScoreSortField},
	}
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(40)
		mk := func() []scoredDoc {
			docs := make([]scoredDoc, n)
			for i := range docs {
				docs[i] = scoredDoc{id: rng.Intn(4), score: float64(rng.Intn(3))}
			}
			return docs
		}
		a, b := mk(), mk()
		for i := range a {
			b[i] = scoredDoc{id: a[i].id, score: a[i].score}
		}
		max := 1 + rng.Intn(n)
		full := sortIDs(sortTopOf(e, a, keys, 0))
		capped := sortIDs(sortTopOf(e, b, keys, max))
		if len(capped) != max && len(capped) != len(full) {
			t.Fatalf("capped len %d, max %d, full %d", len(capped), max, len(full))
		}
		for i := range capped {
			if capped[i] != full[i] {
				t.Fatalf("trial %d: capped %v != full prefix %v", trial, capped, full[:len(capped)])
			}
		}
	}
}

// TestSortTopAllocs pins the headline perf property of precomputed sort
// keys: comparisons allocate nothing, so a sort's allocation count is a
// small constant independent of collection size (the old comparator
// formatted the date and lower-cased the title on every comparison —
// thousands of allocations for a few hundred documents).
func TestSortTopAllocs(t *testing.T) {
	cfg := NewVectorConfig()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		d := &index.Document{
			Linkage: "http://a/" + string(rune('a'+i%26)) + "/" + itoa(i),
			Title:   "Title " + itoa(i%37),
			Authors: []string{"Author " + itoa(i%11)},
			Date:    time.Date(1990+i%8, time.Month(1+i%12), 1+i%28, 0, 0, 0, 0, time.UTC),
		}
		if err := e.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	docs := make([]scoredDoc, 400)
	for i := range docs {
		docs[i] = scoredDoc{id: i, score: float64(i % 17)}
	}
	keys := []query.SortKey{
		{Field: attr.FieldDateLastModified},
		{Field: attr.FieldTitle, Ascending: true},
		{Field: query.ScoreSortField},
	}
	allocs := testing.AllocsPerRun(10, func() {
		sortTopOf(e, docs, keys, 0)
	})
	// Key precompute makes a handful of slices; comparisons themselves
	// are allocation-free. The pre-fix comparator allocated per
	// comparison (two date formats or two ToLower calls), putting this
	// in the thousands.
	if allocs > 40 {
		t.Errorf("sortTop allocations = %.0f, want a small constant (comparator must not allocate)", allocs)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// sortKeyOf is the sort-key oracle: the string key an index used to store
// per document and field before sorting compared text and dates in place
// — the date formatted in UTC, "" without one; any other field's text
// folded — with a missing document on the empty key.
func sortKeyOf(d *index.Document, f attr.Field) string {
	switch {
	case d == nil:
		return ""
	case attr.Normalize(f) != attr.FieldDateLastModified:
		return strings.ToLower(d.FieldText(f))
	case d.Date.IsZero():
		return ""
	}
	return d.Date.UTC().Format("2006-01-02")
}

// oracleSort orders scored documents by the oracle's keys with
// strings.Compare, the score and the ascending-id tiebreak, and keeps the
// best max (all when max <= 0).
func oracleSort(docs []*index.Document, in []scoredDoc, keys []query.SortKey, max int) []int {
	doc := func(id int) *index.Document {
		if id < 0 || id >= len(docs) {
			return nil
		}
		return docs[id]
	}
	sorted := slices.Clone(in)
	slices.SortFunc(sorted, func(a, b scoredDoc) int {
		for _, k := range keys {
			c := cmp.Compare(a.score, b.score)
			if k.Field != query.ScoreSortField {
				c = strings.Compare(sortKeyOf(doc(a.id), k.Field), sortKeyOf(doc(b.id), k.Field))
			}
			if c != 0 && k.Ascending {
				return c
			} else if c != 0 {
				return -c
			}
		}
		return a.id - b.id
	})
	if max > 0 && len(sorted) > max {
		sorted = sorted[:max]
	}
	return sortIDs(sorted)
}

// sortKeySets are the sort specifications the fuzz target draws from.
var sortKeySets = [][]query.SortKey{
	{{Field: attr.FieldTitle, Ascending: true}},
	{{Field: attr.FieldAuthor}},
	{{Field: attr.FieldDateLastModified, Ascending: true}},
	{{Field: attr.FieldDateLastModified}, {Field: attr.FieldTitle, Ascending: true}},
	{{Field: attr.FieldAuthor, Ascending: true}, {Field: query.ScoreSortField}, {Field: attr.FieldDateLastModified}},
	{{Field: query.ScoreSortField, Ascending: true}, {Field: attr.FieldTitle}},
	{{Field: attr.FieldLinkage}, {Field: attr.FieldLanguages, Ascending: true}},
}

// FuzzSortMatchesKeyOracle holds sortTop, which folds text and reads
// dates in place, to the stored string keys it replaced: six documents
// whose titles and authors are drawn from four fuzzed strings, dates from
// three fuzzed instants (one document has none) shown in a fuzzed zone,
// scored and sorted under each key set, with an id that has no document.
func FuzzSortMatchesKeyOracle(f *testing.F) {
	const day = 86400
	f.Add("Éclair", "éclair", "eclair", "ÉCOLE", int64(0), int64(day-1), int64(3600), int8(-7), uint32(0x5a5a))
	f.Add("İstanbul", "istanbul", "\u212a", "k", int64(day), int64(2*day), int64(day+1), int8(9), uint32(0x1234))
	f.Add("\xff", "\ufffd", "a\xffb", "a\ufffdb", int64(-1), int64(0), int64(1), int8(0), uint32(0xffff))
	f.Add("abc", "ab", "abcd", "ABC", int64(820454400), int64(820454400+day-1), int64(820454400+day), int8(-12), uint32(0x0f0f))
	f.Add("\xc3", "\xc3\xa9", "É", "", int64(-62135596800), int64(253402300799), int64(0), int8(14), uint32(7))
	f.Fuzz(func(t *testing.T, s0, s1, s2, s3 string, d0, d1, d2 int64, zone int8, spec uint32) {
		// Instants from year 1 to 9999, where the date keys' text orders
		// as their days do.
		lo, hi := time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC).Unix(), time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC).Unix()
		at := func(sec int64) time.Time {
			sec = lo + ((sec-lo)%(hi-lo+1)+(hi-lo+1))%(hi-lo+1)
			return time.Unix(sec, 0).In(time.FixedZone("fuzz", int(zone%15)*3600))
		}
		strs := []string{s0, s1, s2, s3}
		dates := []time.Time{at(d0), at(d1), at(d2), at(d0 + int64(spec>>24)), {}, at(d1)}
		e, err := New(NewVectorConfig())
		if err != nil {
			t.Fatal(err)
		}
		var docs []*index.Document
		for i, date := range dates {
			d := &index.Document{Linkage: "http://f/" + itoa(i), Title: strs[i%4], Date: date}
			if spec>>i&1 == 1 {
				d.Authors = []string{strs[(i+1)%4], strs[(i+2)%4]}
			}
			if spec>>(i+6)&1 == 1 {
				d.Languages = []lang.Tag{lang.Spanish}
			}
			if err := e.Add(d); err != nil {
				t.Fatal(err)
			}
			docs = append(docs, d)
		}
		var in []scoredDoc
		for _, id := range []int{3, 0, 99, 5, 1, 4, 2} {
			in = append(in, scoredDoc{id: id, score: float64(spec >> (12 + id%6) & 3)})
		}
		keys := sortKeySets[int(spec>>16)%len(sortKeySets)]
		max := int(spec>>20) & 7
		want := oracleSort(docs, in, keys, max)
		if got := sortIDs(sortTopOf(e, slices.Clone(in), keys, max)); !slices.Equal(got, want) {
			t.Fatalf("keys %v, max %d: sortTop %v, key oracle %v", keys, max, got, want)
		}
	})
}
