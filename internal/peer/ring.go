// Package peer is the distributed cache tier: a qcache.Store whose key
// space is partitioned across a fleet of metasearcher peers by a
// consistent-hash ring. Each canonical query fingerprint has one owner;
// Get/Put for keys owned by a remote peer travel over persistent
// keep-alive HTTP to the owner's /peer/cache endpoints, while keys this
// node owns (and every operation that cannot reach its owner) land in
// the local store. Singleflight, stale-while-revalidate and the
// admission gate all live in qcache.Cache IN FRONT of any Store, so the
// tier inherits them without reimplementation — and because every peer
// failure falls through to the local store behind a bounded timeout and
// a per-peer circuit breaker, a dead peer degrades to a local miss,
// never a stall.
//
// This is the ZBroker move applied to the STARTS metasearcher: the
// broker fleet shares one logical result cache so a query answered in
// one region is a remote hit everywhere, and the same ring metadata
// doubles as the routing table for broker hierarchies.
package peer

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// DefaultReplicas is the virtual-node count per peer. More replicas,
// smoother ownership split (the classic consistent-hashing trade: ring
// build cost and memory against variance between peers).
const DefaultReplicas = 64

// Ring maps keys to their owning peer with consistent hashing: each
// peer is hashed onto the ring at Replicas virtual points, and a key
// belongs to the first virtual node clockwise from its own hash.
// Adding or removing one peer moves only ~1/N of the key space. A Ring
// is immutable after construction and safe for concurrent use.
type Ring struct {
	replicas int
	peers    []string
	hashes   []uint64          // sorted virtual-node positions
	owners   map[uint64]string // virtual-node position -> peer
}

// NewRing builds a ring over the given peers (deduplicated, order
// preserved) with the given virtual-node count per peer (<= 0 takes
// DefaultReplicas). An empty peer list yields an empty ring whose Owner
// is always "".
func NewRing(peers []string, replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	r := &Ring{replicas: replicas, owners: map[uint64]string{}}
	seen := map[string]bool{}
	for _, p := range peers {
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		r.peers = append(r.peers, p)
		for i := 0; i < replicas; i++ {
			h := hash64(p + "#" + strconv.Itoa(i))
			// On the vanishingly rare vnode collision the first peer
			// keeps the slot; the ring stays consistent either way.
			if _, taken := r.owners[h]; taken {
				continue
			}
			r.owners[h] = p
			r.hashes = append(r.hashes, h)
		}
	}
	sort.Slice(r.hashes, func(i, j int) bool { return r.hashes[i] < r.hashes[j] })
	return r
}

// Owner returns the peer owning key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.hashes) == 0 {
		return ""
	}
	h := hash64(key)
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0 // wrap: past the last virtual node, the first one owns it
	}
	return r.owners[r.hashes[i]]
}

// Peers returns the ring members in registration order.
func (r *Ring) Peers() []string {
	return append([]string(nil), r.peers...)
}

// Replicas returns the virtual-node count per peer.
func (r *Ring) Replicas() int { return r.replicas }

// Shares returns each peer's exactly-owned fraction of the hash space,
// computed from the arc lengths between consecutive virtual nodes. The
// fractions sum to 1 on a non-empty ring; with enough replicas each
// peer's share approaches 1/N.
func (r *Ring) Shares() map[string]float64 {
	shares := make(map[string]float64, len(r.peers))
	if len(r.hashes) == 0 {
		return shares
	}
	if len(r.hashes) == 1 {
		// A single virtual node owns the whole space; the arc arithmetic
		// below would wrap to zero.
		shares[r.owners[r.hashes[0]]] = 1
		return shares
	}
	const space = float64(1<<63) * 2 // 2^64 as float64
	for i, h := range r.hashes {
		// The arc ENDING at virtual node i belongs to i's peer (keys hash
		// into the arc and search clockwise to i).
		var arc uint64
		if i == 0 {
			arc = r.hashes[0] + (^r.hashes[len(r.hashes)-1] + 1) // wraps around zero
		} else {
			arc = h - r.hashes[i-1]
		}
		shares[r.owners[h]] += float64(arc) / space
	}
	return shares
}

// hash64 is 64-bit FNV-1a pushed through a murmur-style finalizer. Raw
// FNV-1a output clusters badly on inputs sharing a long prefix with a
// short varying suffix — exactly what peer URLs with "#i" vnode
// suffixes and sequential query fingerprints look like — which skews
// ring shares far from 1/N. The finalizer's avalanche restores uniform
// placement; no cryptographic strength is needed, only spread.
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return fmix64(h.Sum64())
}

// fmix64 is MurmurHash3's 64-bit finalizer: full avalanche, every input
// bit flips each output bit with ~1/2 probability.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// String renders the ring for debug output.
func (r *Ring) String() string {
	return fmt.Sprintf("ring(%d peers, %d replicas)", len(r.peers), r.replicas)
}
