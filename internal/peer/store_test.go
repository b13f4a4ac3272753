package peer

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"starts/internal/faulty"
	"starts/internal/obs"
	"starts/internal/qcache"
	"starts/internal/qcache/storetest"
)

// swapHandler lets a test replace a node's HTTP behavior mid-run —
// wrap it in faults, turn it into a brick, heal it — without tearing
// down the listener.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) Set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, "not up yet", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// node is one cluster member: its store, its HTTP server and the
// swappable handler between them.
type node struct {
	url   string
	store *Store
	srv   *httptest.Server
	sh    *swapHandler
	reg   *obs.Registry
}

// newCluster starts n peer nodes that know each other; tweak (optional)
// adjusts each node's config before its store is built.
func newCluster(t *testing.T, n int, tweak func(i int, cfg *Config)) []*node {
	t.Helper()
	nodes := make([]*node, n)
	urls := make([]string, n)
	for i := range nodes {
		sh := &swapHandler{}
		srv := httptest.NewServer(sh)
		t.Cleanup(srv.Close)
		nodes[i] = &node{url: srv.URL, srv: srv, sh: sh, reg: obs.NewRegistry()}
		urls[i] = srv.URL
	}
	for i, nd := range nodes {
		cfg := Config{
			Self:    nd.url,
			Peers:   urls,
			Codec:   StringCodec{},
			Timeout: 500 * time.Millisecond,
			Metrics: nd.reg,
		}
		if tweak != nil {
			tweak(i, &cfg)
		}
		nd.store = New(cfg)
		nd.sh.Set(NewHandler(nd.store))
	}
	return nodes
}

// keysOwnedBy returns want distinct test keys whose ring owner is the
// given peer.
func keysOwnedBy(t *testing.T, r *Ring, owner string, want int) []string {
	t.Helper()
	var keys []string
	for i := 0; len(keys) < want && i < 100000; i++ {
		k := fmt.Sprintf("owned-key-%d", i)
		if r.Owner(k) == owner {
			keys = append(keys, k)
		}
	}
	if len(keys) < want {
		t.Fatalf("found only %d keys owned by %s", len(keys), owner)
	}
	return keys
}

func live(v string) qcache.Entry {
	now := time.Now()
	return qcache.Entry{Val: v, Expires: now.Add(time.Hour), StaleUntil: now.Add(2 * time.Hour)}
}

// TestClusterConformance runs the shared qcache.Store conformance suite
// against a live two-node cluster, driven from node 0 — the distributed
// backend must be indistinguishable from the local LRU.
func TestClusterConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) qcache.Store {
		return newCluster(t, 2, nil)[0].store
	})
}

// TestClusterCrossPeerVisibility is the tier's point: an entry written
// through any node is readable through every node, because both route
// each key to its one consistent-hash owner.
func TestClusterCrossPeerVisibility(t *testing.T) {
	nodes := newCluster(t, 2, nil)
	a, b := nodes[0], nodes[1]
	const n = 40
	for i := 0; i < n; i++ {
		a.store.Put(fmt.Sprintf("vis-%d", i), live(fmt.Sprintf("v%d", i)))
	}
	for i := 0; i < n; i++ {
		e, ok := b.store.Get(fmt.Sprintf("vis-%d", i), time.Now())
		if !ok {
			t.Fatalf("key vis-%d written via A is invisible via B", i)
		}
		if e.Val != fmt.Sprintf("v%d", i) {
			t.Fatalf("key vis-%d: got %v", i, e.Val)
		}
	}
	// With 40 keys both nodes all but surely own some: B must have read
	// A-owned keys over the wire, and A must have stored B-owned keys
	// remotely.
	if hits := b.reg.Counter(obs.L(obs.MPeerRemoteHits, "peer", a.url)).Value(); hits == 0 {
		t.Fatal("no remote hits recorded on B for A-owned keys")
	}
	if puts := a.reg.Counter(obs.L(obs.MPeerRemotePuts, "peer", b.url)).Value(); puts == 0 {
		t.Fatal("no remote puts recorded on A for B-owned keys")
	}
}

// TestClusterNoRecompute puts a qcache.Cache in front of each node's
// peer store: a query filled through node A's cache is a fresh HIT
// through node B's — the expensive fan-out runs exactly once cluster-wide
// (the acceptance scenario).
func TestClusterNoRecompute(t *testing.T) {
	nodes := newCluster(t, 2, nil)
	cacheA := qcache.New(qcache.Config{Store: nodes[0].store, TTL: time.Minute})
	cacheB := qcache.New(qcache.Config{Store: nodes[1].store, TTL: time.Minute})
	var fills int
	fill := func(context.Context) (any, error) {
		fills++
		return "expensive-answer", nil
	}
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("query-fp-%d", i)
		v, out, err := cacheA.Do(ctx, key, fill)
		if err != nil || out != qcache.Filled || v != "expensive-answer" {
			t.Fatalf("A fill %s: v=%v outcome=%v err=%v", key, v, out, err)
		}
		v, out, err = cacheB.Do(ctx, key, fill)
		if err != nil {
			t.Fatalf("B read %s: %v", key, err)
		}
		if out != qcache.Hit {
			t.Fatalf("B read %s: outcome %v, want hit (no recompute)", key, out)
		}
		if v != "expensive-answer" {
			t.Fatalf("B read %s: %v", key, v)
		}
	}
	if fills != 10 {
		t.Fatalf("fill ran %d times for 10 queries over 2 nodes, want 10", fills)
	}
}

// TestClusterKillMidRun kills one node mid-run: the survivor's
// operations on the dead node's key share degrade to bounded-latency
// local misses with typed transport errors and fallback counts — never
// a stall, never an error surfaced to the cache above.
func TestClusterKillMidRun(t *testing.T) {
	timeout := 150 * time.Millisecond
	nodes := newCluster(t, 2, func(i int, cfg *Config) { cfg.Timeout = timeout })
	a, b := nodes[0], nodes[1]
	keys := keysOwnedBy(t, a.store.ring, b.url, 8)

	// Healthy phase: A's writes land on B and read back remotely.
	for i, k := range keys {
		a.store.Put(k, live(fmt.Sprintf("v%d", i)))
	}
	if _, ok := a.store.Get(keys[0], time.Now()); !ok {
		t.Fatal("healthy cluster: B-owned key unreadable from A")
	}

	b.srv.Close() // kill B: connections now fail outright

	for i, k := range keys {
		start := time.Now()
		if _, ok := a.store.Get(k, time.Now()); ok {
			t.Fatalf("key %s still readable after owner died (no local copy exists)", k)
		}
		if d := time.Since(start); d > timeout+200*time.Millisecond {
			t.Fatalf("degraded Get took %v, want bounded by timeout %v", d, timeout)
		}
		// Writes fall through to the local store and stay readable.
		a.store.Put(k, live(fmt.Sprintf("fallback-%d", i)))
		if e, ok := a.store.Get(k, time.Now()); !ok || e.Val != fmt.Sprintf("fallback-%d", i) {
			t.Fatalf("fall-through write for %s not readable locally: %v/%v", k, e.Val, ok)
		}
	}

	if n := a.reg.Counter(obs.L(obs.MPeerErrors, "peer", b.url, "op", "get", "kind", "transport")).Value(); n == 0 {
		t.Fatal("no typed transport errors counted for dead peer gets")
	}
	if n := a.reg.Counter(obs.L(obs.MPeerFallbacks, "peer", b.url)).Value(); n == 0 {
		t.Fatal("no local fallbacks counted for dead peer")
	}
}

// TestClusterBreakerOpenRecover scripts an outage and a recovery: enough
// consecutive failures open the dead peer's circuit (operations skip the
// wire entirely), and after the cooldown a healthy probe closes it and
// remote hits resume.
func TestClusterBreakerOpenRecover(t *testing.T) {
	cooldown := 50 * time.Millisecond
	nodes := newCluster(t, 2, func(i int, cfg *Config) {
		cfg.FailureThreshold = 2
		cfg.Cooldown = cooldown
		cfg.Timeout = 150 * time.Millisecond
	})
	a, b := nodes[0], nodes[1]
	keys := keysOwnedBy(t, a.store.ring, b.url, 4)
	a.store.Put(keys[0], live("survivor"))

	// Outage: B answers 500 to everything.
	b.sh.Set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	for i := 0; i < 3; i++ {
		a.store.Get(keys[i%len(keys)], time.Now())
	}
	breakerFor := func(url string) string { return a.store.breaker.State(url).String() }
	if st := breakerFor(b.url); st != "open" {
		t.Fatalf("breaker after repeated failures = %q, want open", st)
	}
	// Open circuit: the op is refused locally, typed breaker-open.
	before := a.reg.Counter(obs.L(obs.MPeerErrors, "peer", b.url, "op", "get", "kind", errKindBreaker)).Value()
	a.store.Get(keys[0], time.Now())
	after := a.reg.Counter(obs.L(obs.MPeerErrors, "peer", b.url, "op", "get", "kind", errKindBreaker)).Value()
	if after <= before {
		t.Fatal("open-circuit Get did not count a breaker-open refusal")
	}

	// Recovery: heal B, wait out the cooldown, probe succeeds, hits resume.
	b.sh.Set(NewHandler(b.store))
	time.Sleep(2 * cooldown)
	hitsBefore := a.reg.Counter(obs.L(obs.MPeerRemoteHits, "peer", b.url)).Value()
	if e, ok := a.store.Get(keys[0], time.Now()); !ok || e.Val != "survivor" {
		t.Fatalf("post-recovery Get: %v/%v, want survivor/true", e.Val, ok)
	}
	if st := breakerFor(b.url); st != "closed" {
		t.Fatalf("breaker after successful probe = %q, want closed", st)
	}
	if hits := a.reg.Counter(obs.L(obs.MPeerRemoteHits, "peer", b.url)).Value(); hits <= hitsBefore {
		t.Fatal("remote hits did not resume after recovery")
	}
}

// TestClusterFaultInjection wraps one node's transport in the faulty
// middleware at ~30% error rate plus latency and hangs, and proves the
// survivor's worst-case per-operation wall time stays bounded by the
// configured peer timeout — an unhealthy peer degrades to local misses,
// it cannot stall the request path.
func TestClusterFaultInjection(t *testing.T) {
	timeout := 150 * time.Millisecond
	nodes := newCluster(t, 2, func(i int, cfg *Config) {
		cfg.Timeout = timeout
		// Keep the wire in play for the whole run: errors must degrade
		// per-operation, not latch the peer off.
		cfg.FailureThreshold = 1 << 30
	})
	a, b := nodes[0], nodes[1]
	faultyHandler := faulty.Middleware(faulty.Config{
		Seed:      1,
		ErrorRate: 0.25,
		HangRate:  0.05,
		Latency:   5 * time.Millisecond,
	}, NewHandler(b.store))
	// Bound injected hangs server-side: a hang parks on the request
	// context, which the server never cancels for a PUT whose body went
	// unread, so without a deadline the hung handlers outlive the test
	// and deadlock the httptest cleanup. The client still gives up at
	// the store timeout — this only lets the server side unwind after.
	b.sh.Set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), time.Second)
		defer cancel()
		faultyHandler.ServeHTTP(w, r.WithContext(ctx))
	}))

	keys := keysOwnedBy(t, a.store.ring, b.url, 20)
	var durations []time.Duration
	op := func(f func()) {
		start := time.Now()
		f()
		durations = append(durations, time.Since(start))
	}
	for round := 0; round < 5; round++ {
		for i, k := range keys {
			op(func() { a.store.Put(k, live(fmt.Sprintf("r%d-%d", round, i))) })
			op(func() { a.store.Get(k, time.Now()) })
		}
	}

	sort.Slice(durations, func(i, j int) bool { return durations[i] < durations[j] })
	p99 := durations[len(durations)*99/100]
	// Margin covers scheduling and the injected base latency; the bound
	// that matters is "one timeout", not "hung forever".
	if limit := timeout + 150*time.Millisecond; p99 > limit {
		t.Fatalf("p99 under 25%% faults = %v, want <= %v (timeout %v)", p99, limit, timeout)
	}
	if max := durations[len(durations)-1]; max > 2*timeout+200*time.Millisecond {
		t.Fatalf("worst op under faults = %v, not bounded by timeout %v", max, timeout)
	}

	// The failures must be visible as typed errors and fallbacks, and the
	// successes as remote traffic: the tier degraded, it didn't go dark.
	var errs int64
	for _, kind := range []string{"transport", "status"} {
		for _, op := range []string{"get", "put"} {
			errs += a.reg.Counter(obs.L(obs.MPeerErrors, "peer", b.url, "op", op, "kind", kind)).Value()
		}
	}
	if errs == 0 {
		t.Fatal("25% fault injection produced no typed peer errors")
	}
	if n := a.reg.Counter(obs.L(obs.MPeerFallbacks, "peer", b.url)).Value(); n == 0 {
		t.Fatal("fault injection produced no local fallbacks")
	}
	hits := a.reg.Counter(obs.L(obs.MPeerRemoteHits, "peer", b.url)).Value()
	puts := a.reg.Counter(obs.L(obs.MPeerRemotePuts, "peer", b.url)).Value()
	if hits == 0 || puts == 0 {
		t.Fatalf("no successful remote traffic under partial faults (hits=%d puts=%d)", hits, puts)
	}
}

// TestHandlerRejectsMalformed covers the wire contract's edges: bad
// freshness headers are 400s, dead-on-arrival entries are acknowledged
// but not stored, and a miss is a clean 404.
func TestHandlerRejectsMalformed(t *testing.T) {
	nodes := newCluster(t, 1, nil)
	nd := nodes[0]

	do := func(method, path string, hdr map[string]string, body string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, nd.url+path, bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := do(http.MethodGet, "/peer/cache/absent", nil, ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET absent key: %s, want 404", resp.Status)
	}
	if resp := do(http.MethodPut, "/peer/cache/bad", map[string]string{
		HeaderExpires:    "not-a-time",
		HeaderStaleUntil: time.Now().Add(time.Hour).Format(time.RFC3339Nano),
	}, "v"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("PUT with bad Expires: %s, want 400", resp.Status)
	}
	// Dead on arrival: acknowledged, not stored.
	past := time.Now().Add(-time.Hour)
	if resp := do(http.MethodPut, "/peer/cache/doa", map[string]string{
		HeaderExpires:    past.Format(time.RFC3339Nano),
		HeaderStaleUntil: past.Format(time.RFC3339Nano),
	}, "v"); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT dead entry: %s, want 204", resp.Status)
	}
	if _, ok := nd.store.Local().Get("doa", time.Now()); ok {
		t.Fatal("dead-on-arrival entry was stored")
	}
	if resp := do(http.MethodDelete, "/peer/cache/absent", nil, ""); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE absent key: %s, want 204", resp.Status)
	}
}
