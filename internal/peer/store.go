package peer

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"starts/internal/obs"
	"starts/internal/qcache"
	"starts/internal/resilient"
)

// Wire headers carrying an entry's freshness bounds between peers
// (RFC3339Nano, absolute times — the tier assumes loosely synchronized
// clocks, the same assumption HTTP's Expires makes).
const (
	HeaderExpires    = "X-Starts-Expires"
	HeaderStaleUntil = "X-Starts-Stale-Until"
)

// Defaults for the peer transport. The timeout is deliberately tight:
// a peer cache hit is only worth having when it beats re-running the
// fan-out, and a dead peer must cost a bounded slice of the request
// budget before the local fall-through takes over.
const (
	DefaultTimeout          = 150 * time.Millisecond
	DefaultFailureThreshold = 3
	DefaultCooldown         = 5 * time.Second
)

// maxEntryBytes bounds a peer cache response/request body.
const maxEntryBytes = 64 << 20

// Config configures a Store.
type Config struct {
	// Self is this node's own peer URL as the OTHER peers address it
	// (scheme://host:port, no trailing slash). Keys owned by Self stay in
	// the local store. Empty means this node serves no ring share (a
	// pure client of the tier, e.g. a one-shot metasearch run).
	Self string
	// Peers lists the ring members' base URLs. Self is added implicitly
	// when non-empty; an empty ring makes every operation local.
	Peers []string
	// Replicas is the virtual-node count per peer (<= 0 takes
	// DefaultReplicas): more replicas, smoother ownership split.
	Replicas int
	// Timeout bounds every remote Get/Put/Evict, dial included (<= 0
	// takes DefaultTimeout). On expiry the operation falls through to
	// the local store.
	Timeout time.Duration
	// Codec moves values across the wire; nil takes ResultsCodec (the
	// per-source conn cache's value type).
	Codec Codec
	// Local is the fall-through store holding this node's ring share and
	// every entry that could not reach its owner; nil builds the default
	// sharded LRU sized by LocalMaxEntries.
	Local qcache.Store
	// LocalMaxEntries sizes the default local store (see
	// qcache.NewLRUStore); ignored when Local is set.
	LocalMaxEntries int
	// FailureThreshold and Cooldown tune the per-peer circuit breaker
	// (defaults DefaultFailureThreshold / DefaultCooldown): after
	// FailureThreshold consecutive transport failures a peer is skipped
	// outright — straight to the local store — until a half-open probe
	// succeeds after Cooldown.
	FailureThreshold int
	Cooldown         time.Duration
	// Client overrides the HTTP client; nil builds one with a keep-alive
	// transport tuned like the STARTS client's (a handful of peers, many
	// small requests).
	Client *http.Client
	// Metrics receives the starts_peer_* families; nil allocates a
	// private registry.
	Metrics *obs.Registry
	// Now overrides the clock, for tests.
	Now func() time.Time
}

// Store implements qcache.Store over the peer ring: the consistent-hash
// owner of each key serves Get/Put/Evict via its /peer/cache endpoints,
// with bounded timeouts, a per-peer circuit breaker, and fall-through
// to the local store on any peer error — a dead peer degrades the tier
// to local-only for its share of the key space, it never stalls a
// request. Len reports the cluster-wide live entry count (local plus
// every reachable peer).
type Store struct {
	ring    *Ring
	self    string
	local   qcache.Store
	codec   Codec
	breaker *resilient.Breaker
	hc      *http.Client
	timeout time.Duration
	now     func() time.Time

	metrics *obs.Registry
	rtts    map[string]*obs.Histogram // per remote peer URL; fixed at build
}

var _ qcache.Store = (*Store)(nil)

// New builds the peer store. With no peers configured it degrades to
// exactly its local store (the tier is opt-in by construction).
func New(cfg Config) *Store {
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	if cfg.Codec == nil {
		cfg.Codec = ResultsCodec{}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Local == nil {
		cfg.Local = qcache.NewLRUStore(cfg.LocalMaxEntries, 0, cfg.Metrics)
	}
	if cfg.FailureThreshold <= 0 {
		cfg.FailureThreshold = DefaultFailureThreshold
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = DefaultCooldown
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{
			// No client-wide timeout: every request carries its own
			// context deadline (the store's Timeout).
			Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 32,
				IdleConnTimeout:     90 * time.Second,
			},
		}
	}
	members := cfg.Peers
	if cfg.Self != "" {
		members = append(append([]string(nil), cfg.Peers...), cfg.Self)
	}
	s := &Store{
		ring:  NewRing(members, cfg.Replicas),
		self:  cfg.Self,
		local: cfg.Local,
		codec: cfg.Codec,
		breaker: resilient.NewBreaker(resilient.BreakerConfig{
			FailureThreshold: cfg.FailureThreshold,
			Cooldown:         cfg.Cooldown,
			Metrics:          cfg.Metrics,
			Now:              cfg.Now,
		}),
		hc:      cfg.Client,
		timeout: cfg.Timeout,
		now:     cfg.Now,
		metrics: cfg.Metrics,
		rtts:    map[string]*obs.Histogram{},
	}
	shares := s.ring.Shares()
	for _, p := range s.ring.Peers() {
		cfg.Metrics.Gauge(obs.L(obs.MPeerRingShare, "peer", p)).
			Set(int64(shares[p]*1000 + 0.5))
		if p != s.self {
			s.rtts[p] = cfg.Metrics.Histogram(obs.L(obs.MPeerRTTSeconds, "peer", p))
		}
	}
	cfg.Metrics.Gauge(obs.MPeerRingPeers).Set(int64(len(s.ring.Peers())))
	return s
}

// Local returns the fall-through local store (this node's ring share).
func (s *Store) Local() qcache.Store { return s.local }

// owner resolves a key's owning peer; ok is false when the key is this
// node's (or the ring is empty) and the operation should stay local.
func (s *Store) owner(key string) (string, bool) {
	o := s.ring.Owner(key)
	if o == "" || o == s.self {
		return "", false
	}
	return o, true
}

// Get implements qcache.Store. A remote hit whose entry is already past
// its stale window reads as absent, matching the local store's pruning
// contract.
func (s *Store) Get(key string, now time.Time) (qcache.Entry, bool) {
	owner, remote := s.owner(key)
	if !remote {
		return s.local.Get(key, now)
	}
	e, ok, err := s.remoteGet(owner, key, now)
	if err != nil {
		s.fallback(owner)
		return s.local.Get(key, now)
	}
	if !ok {
		s.count(owner, "miss").Inc()
		return qcache.Entry{}, false
	}
	s.count(owner, "hit").Inc()
	return e, true
}

// Put implements qcache.Store: the entry lands on its owner, or in the
// local store when the owner is this node or unreachable.
func (s *Store) Put(key string, e qcache.Entry) {
	owner, remote := s.owner(key)
	if !remote {
		s.local.Put(key, e)
		return
	}
	if err := s.remotePut(owner, key, e); err != nil {
		s.fallback(owner)
		s.local.Put(key, e)
		return
	}
	s.metrics.Counter(obs.L(obs.MPeerRemotePuts, "peer", owner)).Inc()
}

// Evict implements qcache.Store. The local store is always evicted too:
// it may hold a fall-through copy written while the owner was down.
func (s *Store) Evict(key string) {
	if owner, remote := s.owner(key); remote {
		if err := s.remoteEvict(owner, key); err != nil {
			s.fallback(owner)
		}
	}
	s.local.Evict(key)
}

// Len implements qcache.Store, reporting the cluster-wide live entry
// count: the local store plus every reachable peer's (unreachable peers
// contribute nothing — Len is diagnostic, not transactional).
func (s *Store) Len() int {
	n := s.local.Len()
	for _, p := range s.ring.Peers() {
		if p == s.self {
			continue
		}
		if remote, err := s.remoteLen(p); err == nil {
			n += remote
		} else {
			s.fallback(p)
		}
	}
	return n
}

// count returns the hit/miss counter for one peer.
func (s *Store) count(peer, outcome string) *obs.Counter {
	name := obs.MPeerRemoteMisses
	if outcome == "hit" {
		name = obs.MPeerRemoteHits
	}
	return s.metrics.Counter(obs.L(name, "peer", peer))
}

// fallback counts one degrade-to-local event for a peer.
func (s *Store) fallback(peer string) {
	s.metrics.Counter(obs.L(obs.MPeerFallbacks, "peer", peer)).Inc()
}

// errKindBreaker marks operations refused locally by an open circuit —
// no wire traffic happened at all.
const errKindBreaker = "breaker-open"

// fail records one typed peer error into the metrics and the breaker.
// kind classifies the failure: "transport" (dial/timeout/read),
// "status" (an HTTP error status), "decode" (a body that would not
// parse) or errKindBreaker. Breaker-refused operations are not Recorded
// — no outcome was observed.
func (s *Store) fail(peer, op, kind string, err error) error {
	s.metrics.Counter(obs.L(obs.MPeerErrors, "peer", peer, "op", op, "kind", kind)).Inc()
	if kind != errKindBreaker {
		s.breaker.Record(peer, err)
	}
	return err
}

// roundTrip runs one breaker-gated, timeout-bounded request against a
// peer, observing its RTT. The caller owns resp.Body on a nil error.
func (s *Store) roundTrip(peer, op, method, u string, body []byte, hdr http.Header) (*http.Response, error) {
	if !s.breaker.Allow(peer) {
		return nil, s.fail(peer, op, errKindBreaker, fmt.Errorf("peer: %s circuit open", peer))
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return nil, s.fail(peer, op, "transport", err)
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	start := s.now()
	resp, err := s.hc.Do(req) //nolint:bodyclose // the caller closes on success
	if rtt := s.rtts[peer]; rtt != nil {
		rtt.Observe(s.now().Sub(start))
	}
	if err != nil {
		return nil, s.fail(peer, op, "transport", err)
	}
	// Read the whole body under the request's timeout, so a peer that
	// accepted the request but stalled mid-body still costs at most
	// Timeout.
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxEntryBytes))
	_, _ = io.Copy(io.Discard, resp.Body) // drain for keep-alive reuse
	_ = resp.Body.Close()
	if err != nil {
		return nil, s.fail(peer, op, "transport", err)
	}
	resp.Body = io.NopCloser(bytes.NewReader(data))
	return resp, nil
}

// cacheURL is a key's endpoint on a peer.
func cacheURL(peer, key string) string {
	return peer + "/peer/cache/" + url.PathEscape(key)
}

// remoteGet fetches key from its owner. ok=false with a nil error is a
// clean remote miss (the owner answered 404).
func (s *Store) remoteGet(peer, key string, now time.Time) (qcache.Entry, bool, error) {
	resp, err := s.roundTrip(peer, "get", http.MethodGet, cacheURL(peer, key), nil, nil)
	if err != nil {
		return qcache.Entry{}, false, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		s.breaker.Record(peer, nil)
		return qcache.Entry{}, false, nil
	default:
		return qcache.Entry{}, false, s.fail(peer, "get", "status",
			fmt.Errorf("peer: GET %s: %s", cacheURL(peer, key), resp.Status))
	}
	expires, err1 := time.Parse(time.RFC3339Nano, resp.Header.Get(HeaderExpires))
	staleUntil, err2 := time.Parse(time.RFC3339Nano, resp.Header.Get(HeaderStaleUntil))
	if err1 != nil || err2 != nil {
		return qcache.Entry{}, false, s.fail(peer, "get", "decode",
			fmt.Errorf("peer: GET %s: bad freshness headers", cacheURL(peer, key)))
	}
	data, _ := io.ReadAll(resp.Body)
	val, err := s.codec.Decode(data)
	if err != nil {
		return qcache.Entry{}, false, s.fail(peer, "get", "decode",
			fmt.Errorf("peer: GET %s: %w", cacheURL(peer, key), err))
	}
	s.breaker.Record(peer, nil)
	e := qcache.Entry{Val: val, Expires: expires, StaleUntil: staleUntil}
	if now.After(e.StaleUntil) {
		// Dead by the caller's clock: absent, per the Store contract.
		return qcache.Entry{}, false, nil
	}
	return e, true, nil
}

// remotePut stores key on its owner.
func (s *Store) remotePut(peer, key string, e qcache.Entry) error {
	data, err := s.codec.Encode(e.Val)
	if err != nil {
		// An unencodable value is a local problem, not the peer's: keep
		// the breaker out of it.
		s.metrics.Counter(obs.L(obs.MPeerErrors, "peer", peer, "op", "put", "kind", "encode")).Inc()
		return err
	}
	hdr := http.Header{}
	hdr.Set(HeaderExpires, e.Expires.Format(time.RFC3339Nano))
	hdr.Set(HeaderStaleUntil, e.StaleUntil.Format(time.RFC3339Nano))
	resp, err := s.roundTrip(peer, "put", http.MethodPut, cacheURL(peer, key), data, hdr)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
		return s.fail(peer, "put", "status",
			fmt.Errorf("peer: PUT %s: %s", cacheURL(peer, key), resp.Status))
	}
	s.breaker.Record(peer, nil)
	return nil
}

// remoteEvict removes key from its owner; a 404 is success.
func (s *Store) remoteEvict(peer, key string) error {
	resp, err := s.roundTrip(peer, "evict", http.MethodDelete, cacheURL(peer, key), nil, nil)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent &&
		resp.StatusCode != http.StatusNotFound {
		return s.fail(peer, "evict", "status",
			fmt.Errorf("peer: DELETE %s: %s", cacheURL(peer, key), resp.Status))
	}
	s.breaker.Record(peer, nil)
	return nil
}

// remoteLen reads a peer's local live entry count.
func (s *Store) remoteLen(peer string) (int, error) {
	resp, err := s.roundTrip(peer, "len", http.MethodGet, peer+"/peer/len", nil, nil)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, s.fail(peer, "len", "status",
			fmt.Errorf("peer: GET %s/peer/len: %s", peer, resp.Status))
	}
	var body struct {
		Len int `json:"len"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, s.fail(peer, "len", "decode", err)
	}
	s.breaker.Record(peer, nil)
	return body.Len, nil
}
