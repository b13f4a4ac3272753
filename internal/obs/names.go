package obs

// Canonical metric names of the query-result cache (internal/qcache).
// Every starts_* metric family is named where it is emitted; the qcache
// family lives here because three layers emit into it — core's cached
// Search path, the caching Conn middleware, and the server's admission
// gate — and they must agree on names so a shared Registry renders one
// coherent /metrics view.
//
// The wider naming convention, for reference (all names are
// Prometheus-flavored, labels encoded with L):
//
//	starts_searches_total, starts_search_seconds        core.Search
//	starts_source_queries_total{source}, ...            core fan-out
//	starts_harvest_cache_{hits,misses}_total            core harvest cache
//	starts_conn_{calls,errors}_total{source,op}, ...    obs.WrapConn
//	starts_retries_total, starts_breaker_transitions_…  resilient
//	starts_server_{requests,errors}_total{route}, ...   server routes
//	starts_qcache_*                                     this file
const (
	// MQCacheHits counts fresh cache hits (served without any fan-out).
	MQCacheHits = "starts_qcache_hits_total"
	// MQCacheMisses counts misses that ran the fill as flight leader.
	MQCacheMisses = "starts_qcache_misses_total"
	// MQCacheStale counts expired entries served stale while a
	// background refresh ran (stale-while-revalidate).
	MQCacheStale = "starts_qcache_stale_total"
	// MQCacheCoalesced counts callers that joined an in-flight fill for
	// the same key instead of fanning out themselves.
	MQCacheCoalesced = "starts_qcache_coalesced_total"
	// MQCacheShed counts admissions rejected by the load-shedding gate
	// after waiting out the queue timeout.
	MQCacheShed = "starts_qcache_shed_total"
	// MQCacheEvictions counts LRU evictions.
	MQCacheEvictions = "starts_qcache_evictions_total"
	// MQCacheRefreshErrors counts failed stale-while-revalidate
	// refreshes (the stale entry stays in service).
	MQCacheRefreshErrors = "starts_qcache_refresh_errors_total"
	// MQCacheEntries gauges the live entry count across all shards.
	MQCacheEntries = "starts_qcache_entries"
	// MQCacheInflight gauges admissions currently holding a gate slot.
	MQCacheInflight = "starts_qcache_inflight"
	// MQCacheHitSeconds is the hit-path latency histogram: time to serve
	// an answer from cache (fresh or stale), fan-out excluded.
	MQCacheHitSeconds = "starts_qcache_hit_seconds"
	// MQCacheEntryTTLSeconds is the histogram of explicit per-entry
	// lifetimes derived from source freshness metadata (after clamping to
	// [TTLFloor, TTLCeiling]); entries on the Config.TTL fallback are not
	// observed.
	MQCacheEntryTTLSeconds = "starts_qcache_entry_ttl_seconds"
	// MQCacheWarmReplayed counts workload entries replayed successfully
	// during a warm start.
	MQCacheWarmReplayed = "starts_qcache_warm_replayed_total"
	// MQCacheWarmSkipped counts workload entries skipped during a warm
	// start (duplicates, or already fresh in the cache).
	MQCacheWarmSkipped = "starts_qcache_warm_skipped_total"
	// MQCacheWarmErrors counts workload entries whose replay failed
	// (query re-parse or search error).
	MQCacheWarmErrors = "starts_qcache_warm_errors_total"
	// MQCacheWarmSeconds is the wall time of whole warm-start replays.
	MQCacheWarmSeconds = "starts_qcache_warm_seconds"
)

// Canonical metric names of the per-source dispatch layer
// (internal/dispatch). Like the qcache family, they live here because
// several layers observe them — core's fan-out, the dispatching Conn
// middleware, and the debug endpoints — and must agree on names. All
// carry a source label (encoded with L).
const (
	// MDispatchSubmitted counts accepted submissions, leaders plus
	// joiners; MDispatchSubmitted - MDispatchBatched is the number of
	// wire calls attempted.
	MDispatchSubmitted = "starts_dispatch_submitted_total"
	// MDispatchBatched counts submissions that joined an in-flight batch
	// for the same key instead of enqueueing their own wire call.
	MDispatchBatched = "starts_dispatch_batched_total"
	// MDispatchQueueFull counts submissions shed with ErrQueueFull.
	MDispatchQueueFull = "starts_dispatch_queue_full_total"
	// MDispatchRefused counts batches fast-drained with ErrRefused
	// because the source's Refuse hook (circuit breaker) reported it
	// unavailable.
	MDispatchRefused = "starts_dispatch_refused_total"
	// MDispatchCancelled counts batches abandoned by every waiter before
	// a worker picked them up.
	MDispatchCancelled = "starts_dispatch_cancelled_total"
	// MDispatchQueueDepth gauges batches currently waiting for a worker.
	MDispatchQueueDepth = "starts_dispatch_queue_depth"
	// MDispatchInflight gauges the source's live workers, each running
	// one wire call; it never exceeds the source's configured concurrency.
	MDispatchInflight = "starts_dispatch_inflight"
	// MDispatchWaitSeconds is the histogram of time batches spent queued
	// before a worker picked them up.
	MDispatchWaitSeconds = "starts_dispatch_wait_seconds"
	// MDispatchRunSeconds is the histogram of task (wire call) durations.
	MDispatchRunSeconds = "starts_dispatch_run_seconds"
	// MDispatchDoomed counts submissions refused with ErrDeadline because
	// the caller's remaining context budget could not cover the source's
	// observed typical service time (deadline-aware admission).
	MDispatchDoomed = "starts_dispatch_doomed_total"
	// MDispatchWireCalls counts wire calls actually issued — single-task
	// runs and multiplexed group runs alike.
	MDispatchWireCalls = "starts_dispatch_wire_calls_total"
	// MDispatchWireItems counts the queue items those wire calls carried;
	// MDispatchWireItems / MDispatchWireCalls is the wire amortization
	// factor, and 1 - calls/items the batched-wire ratio.
	MDispatchWireItems = "starts_dispatch_wire_items_total"
	// MDispatchWireSize is the histogram of items per dispatch wire call
	// (bucket bounds are counts, not durations).
	MDispatchWireSize = "starts_dispatch_wire_batch_size"
)

// Canonical metric names of the distributed peer cache tier
// (internal/peer). They live here with the qcache family they extend:
// the peer store, the server's /peer/cache endpoints and the CLIs'
// /debug/peers views all emit into them and must agree on names. All
// carry a peer label (the peer's base URL, encoded with L) unless noted.
const (
	// MPeerRemoteHits counts Gets served by a remote owner (the entry
	// crossed the wire instead of re-running the fan-out).
	MPeerRemoteHits = "starts_peer_remote_hits_total"
	// MPeerRemoteMisses counts Gets whose remote owner answered a clean
	// miss (404).
	MPeerRemoteMisses = "starts_peer_remote_misses_total"
	// MPeerRemotePuts counts Puts stored on a remote owner.
	MPeerRemotePuts = "starts_peer_remote_puts_total"
	// MPeerErrors counts failed peer operations, typed by op
	// (get/put/evict/len) and kind (transport/status/decode/encode/
	// breaker-open); every one degrades to the local store.
	MPeerErrors = "starts_peer_errors_total"
	// MPeerFallbacks counts operations that fell through to the local
	// store because their remote owner failed or its circuit was open.
	MPeerFallbacks = "starts_peer_local_fallbacks_total"
	// MPeerRTTSeconds is the per-peer round-trip histogram of remote
	// cache operations, dial to fully-read body.
	MPeerRTTSeconds = "starts_peer_rtt_seconds"
	// MPeerRingShare gauges each ring member's owned fraction of the
	// hash space, in permille (≈ 1000/N with enough virtual nodes).
	MPeerRingShare = "starts_peer_ring_share_permille"
	// MPeerRingPeers gauges the ring size, self included (no label).
	MPeerRingPeers = "starts_peer_ring_peers"
)

// MWireBatchSize is obs.WrapConn's histogram of QueryBatch sizes —
// items per batch call as seen at the conn middleware, so wire-level
// multiplexing stays observable wherever the observe layer sits in the
// chain (bucket bounds are counts, not durations).
const MWireBatchSize = "starts_wire_batch_size"

// Canonical metric names of the streaming answer path
// (core.SearchStream feeding an incremental merger): how often searches
// stream, how quickly the first stable document reaches the sink, and
// how much of each answer the stability bound released early. None
// carry labels.
const (
	// MStreamSearches counts searches that attached a stream sink.
	MStreamSearches = "starts_stream_searches_total"
	// MStreamFirstResultSeconds is the time-to-first-result histogram:
	// search start to the first event carrying documents (cache replays
	// included — an instant replay is a genuinely instant first result).
	MStreamFirstResultSeconds = "starts_stream_first_result_seconds"
	// MStreamFinalSeconds is the time-to-final histogram: search start
	// to the terminal event with the complete merged answer.
	MStreamFinalSeconds = "starts_stream_final_seconds"
	// MStreamEarlyDocs counts documents emitted before the terminal
	// event — the stability bound's yield. Compare against
	// starts_merge_docs_total for the early-emission fraction.
	MStreamEarlyDocs = "starts_stream_early_docs_total"
	// MStreamReplays counts streams served whole from the query cache
	// (hit, stale or coalesced) as one terminal event.
	MStreamReplays = "starts_stream_replays_total"
	// MStreamSinkErrors counts sinks that returned an error and were
	// cut off; their searches still completed.
	MStreamSinkErrors = "starts_stream_sink_errors_total"
)
