package client_test

import (
	"context"
	"errors"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"starts/internal/client"
	"starts/internal/faulty"
	"starts/internal/obs"
	"starts/internal/qcache"
	"starts/internal/query"
	"starts/internal/resilient"
	"starts/internal/result"
)

// termLeaf answers a query by the term it was built from: "bad" fails
// permanently, "flaky" fails retryably the first time it is asked and
// then succeeds, anything else succeeds. calls counts what reaches the
// leaf — every Query, and on the batch-native variant every QueryBatch.
type termLeaf struct {
	flakyConn // SourceID, Metadata, Summary, Sample
	terms     map[*query.Query]string
	calls     atomic.Int64

	mu      sync.Mutex
	flunked bool
}

var errBad = &client.StatusError{StatusCode: http.StatusBadRequest, Status: "400 Bad Request"}

func (l *termLeaf) answer(q *query.Query) (*result.Results, error) {
	switch term := l.terms[q]; term {
	case "bad":
		return nil, errBad
	case "flaky":
		l.mu.Lock()
		first := !l.flunked
		l.flunked = true
		l.mu.Unlock()
		if first {
			return nil, errors.New("transient network failure")
		}
		fallthrough
	default:
		return &result.Results{Sources: []string{term}}, nil
	}
}

func (l *termLeaf) Query(_ context.Context, q *query.Query) (*result.Results, error) {
	l.calls.Add(1)
	return l.answer(q)
}

// nativeLeaf is termLeaf with its own QueryBatch: one call per batch.
type nativeLeaf struct{ *termLeaf }

func (l nativeLeaf) QueryBatch(_ context.Context, qs []*query.Query) ([]*result.Results, []error) {
	l.calls.Add(1)
	results := make([]*result.Results, len(qs))
	errs := make([]error, len(qs))
	for i, q := range qs {
		results[i], errs[i] = l.answer(q)
	}
	return results, errs
}

// TestBatchOfNEqualsNSingles is the differential between the two ways
// into a conn: a QueryBatch of N and N Query calls must yield identical
// results and per-item errors through every middleware and through the
// recommended chain, over a batch-native leaf and over a plain Conn that
// only client.Batched makes batch-shaped; one item's failure stays that
// item's; and the leaf sees the documented number of wire calls. Every
// case runs its queries twice, so caching layers show their hits.
func TestBatchOfNEqualsNSingles(t *testing.T) {
	policy := resilient.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 1}
	retry := func(c client.Conn) client.Conn { return resilient.Wrap(c, policy, nil) }
	// wire is the leaf's call count after each of the two passes.
	type wire struct{ singles, nativeBatch, plainBatch [2]int64 }
	cases := []struct {
		name  string
		wrap  func(client.Conn) client.Conn
		terms []string
		want  wire
	}{
		{
			// Pass-through layers: a single is a call, a native batch is
			// one call, a plain leaf gets one call per item either way.
			name:  "obs",
			wrap:  func(c client.Conn) client.Conn { return obs.WrapConn(c, obs.NewRegistry()) },
			terms: []string{"a", "bad", "c"},
			want:  wire{singles: [2]int64{3, 6}, nativeBatch: [2]int64{1, 2}, plainBatch: [2]int64{3, 6}},
		},
		{
			name:  "faulty",
			wrap:  func(c client.Conn) client.Conn { return faulty.WrapConn(c, faulty.Config{}) },
			terms: []string{"a", "bad", "c"},
			want:  wire{singles: [2]int64{3, 6}, nativeBatch: [2]int64{1, 2}, plainBatch: [2]int64{3, 6}},
		},
		{
			// The retrier re-sends only the retryable failure: one extra
			// call on pass 1 — as a batch of one over a native leaf — and
			// never the permanent one.
			name:  "resilient",
			wrap:  retry,
			terms: []string{"a", "flaky", "bad", "c"},
			want:  wire{singles: [2]int64{5, 9}, nativeBatch: [2]int64{2, 3}, plainBatch: [2]int64{5, 9}},
		},
		{
			// The cache forwards only misses: on pass 2 that is the failed
			// item alone (errors are not cached).
			name:  "qcache",
			wrap:  func(c client.Conn) client.Conn { return qcache.WrapConn(c, qcache.New(qcache.Config{})) },
			terms: []string{"a", "bad", "c"},
			want:  wire{singles: [2]int64{3, 4}, nativeBatch: [2]int64{1, 2}, plainBatch: [2]int64{3, 4}},
		},
		{
			name: "observe(cache(retry(leaf)))",
			wrap: func(c client.Conn) client.Conn {
				return obs.WrapConn(qcache.WrapConn(retry(c), qcache.New(qcache.Config{})), obs.NewRegistry())
			},
			terms: []string{"a", "flaky", "bad", "c"},
			want:  wire{singles: [2]int64{5, 6}, nativeBatch: [2]int64{2, 3}, plainBatch: [2]int64{5, 6}},
		},
	}
	ctx := context.Background()
	for _, tc := range cases {
		for _, native := range []bool{true, false} {
			name := tc.name + "/plain-leaf"
			if native {
				name = tc.name + "/native-leaf"
			}
			t.Run(name, func(t *testing.T) {
				// build returns a fresh leaf under a fresh wrapper, with the
				// case's queries registered on the leaf.
				build := func() (*termLeaf, client.BatchConn, []*query.Query) {
					leaf := &termLeaf{terms: map[*query.Query]string{}}
					qs := make([]*query.Query, len(tc.terms))
					for i, term := range tc.terms {
						qs[i] = termQuery(t, term)
						leaf.terms[qs[i]] = term
					}
					var c client.Conn = leaf
					if native {
						c = nativeLeaf{leaf}
					}
					wrapped := tc.wrap(c)
					if _, ok := wrapped.(client.BatchConn); !ok {
						t.Fatalf("%T is not a client.BatchConn", wrapped)
					}
					return leaf, client.Batched(wrapped), qs
				}
				sLeaf, singles, sQs := build()
				bLeaf, batch, bQs := build()
				wantBatch := tc.want.plainBatch
				if native {
					wantBatch = tc.want.nativeBatch
				}
				for pass := 0; pass < 2; pass++ {
					sRes := make([]*result.Results, len(sQs))
					sErr := make([]error, len(sQs))
					for i, q := range sQs {
						sRes[i], sErr[i] = singles.Query(ctx, q)
					}
					bRes, bErr := batch.QueryBatch(ctx, bQs)
					if len(bRes) != len(bQs) || len(bErr) != len(bQs) {
						t.Fatalf("pass %d: batch returned %d results, %d errors for %d queries", pass+1, len(bRes), len(bErr), len(bQs))
					}
					for i, term := range tc.terms {
						if !reflect.DeepEqual(sRes[i], bRes[i]) {
							t.Errorf("pass %d, %q: single result %+v, batch result %+v", pass+1, term, sRes[i], bRes[i])
						}
						var sSE, bSE *client.StatusError
						wantFail := term == "bad"
						if errors.As(sErr[i], &sSE) != wantFail || errors.As(bErr[i], &bSE) != wantFail {
							t.Errorf("pass %d, %q: single err %v, batch err %v; want failure = %v on both",
								pass+1, term, sErr[i], bErr[i], wantFail)
						}
						if !wantFail && (sErr[i] != nil || bErr[i] != nil || bRes[i] == nil) {
							t.Errorf("pass %d, %q: a sibling's failure leaked: single err %v, batch (%v, %v)",
								pass+1, term, sErr[i], bRes[i], bErr[i])
						}
					}
					if got := sLeaf.calls.Load(); got != tc.want.singles[pass] {
						t.Errorf("pass %d: singles reached the leaf %d times, want %d", pass+1, got, tc.want.singles[pass])
					}
					if got := bLeaf.calls.Load(); got != wantBatch[pass] {
						t.Errorf("pass %d: the batch reached the leaf %d times, want %d", pass+1, got, wantBatch[pass])
					}
				}
			})
		}
	}
}

// TestBatchedAdaptsOnlyPlainConns: Batched hands a batch-native conn
// back untouched and gives a plain one a QueryBatch that keeps the
// index-aligned contract.
func TestBatchedAdaptsOnlyPlainConns(t *testing.T) {
	leaf := &termLeaf{terms: map[*query.Query]string{}}
	native := nativeLeaf{leaf}
	if got := client.Batched(native); got != client.BatchConn(native) {
		t.Errorf("Batched(native) = %T, want the conn itself", got)
	}
	qs := []*query.Query{termQuery(t, "a"), termQuery(t, "bad"), termQuery(t, "c")}
	for i, term := range []string{"a", "bad", "c"} {
		leaf.terms[qs[i]] = term
	}
	rs, errs := client.Batched(leaf).QueryBatch(context.Background(), qs)
	if len(rs) != 3 || len(errs) != 3 {
		t.Fatalf("adapter returned %d results, %d errors for 3 queries", len(rs), len(errs))
	}
	for i := range qs {
		if (rs[i] == nil) == (errs[i] == nil) {
			t.Errorf("item %d: result %v and error %v; want exactly one", i, rs[i], errs[i])
		}
	}
	if errs[1] == nil || rs[0] == nil || rs[2] == nil {
		t.Errorf("results %v, errors %v: the failure must stay on item 1", rs, errs)
	}
}
