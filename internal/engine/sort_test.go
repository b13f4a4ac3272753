package engine

import (
	"math/rand"
	"testing"
	"time"

	"starts/internal/attr"
	"starts/internal/index"
	"starts/internal/query"
)

// sortTopOf runs sortTop under a snapshot of the engine's index.
func sortTopOf(e *Engine, docs []scoredDoc, keys []query.SortKey, max int) []scoredDoc {
	snap := e.ix.Snapshot()
	defer snap.Close()
	return sortTop(snap, docs, keys, max)
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
