// Package gateway is the fleet coordinator behind cmd/srvgw: it shards
// harness.Requests across N srvd nodes by their content-addressed CacheKey
// using a consistent-hash ring, forwards the full /v1 API surface (submit,
// status, stream, trace) with W3C traceparent propagated end to end,
// passing node replies through byte for byte, and
// keeps the fleet honest — per-node health tracking piggybacked on the
// serve.Client circuit breaker ejects and readmits nodes, a two-tier result
// cache (gateway LRU in front of the owning node's cache) answers repeats
// without a hop, work-stealing reroutes submissions when the owner's
// predicted queue wait exceeds a threshold, and a draining node's jobs are
// handed off to the next ring owner instead of bouncing as 503s.
//
// Determinism does the heavy lifting throughout: requests are
// content-addressed and the simulator is deterministic, so resubmitting a
// job to a different node — on hand-off, rescue, or plain retry — always
// produces the byte-identical Result, and duplicate submissions dedupe
// through each node's own cache. The CacheKey is also the job ID on every
// node and at the gateway, so the gateway maps no IDs.
package gateway

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
	"sync"
)

// DefaultVirtualNodes is the ring replication factor: how many points each
// node owns on the ring. 128 keeps the per-node share of 1k keys within a
// few percent of 1/N while the ring stays small enough to rebuild on every
// membership change.
const DefaultVirtualNodes = 128

// Ring is a consistent-hash ring mapping string keys onto named nodes.
// Ownership is a pure function of the member set — join order does not
// matter — and membership changes remap only the keys whose arc moved
// (about 1/N of them), so a node joining or leaving never reshuffles the
// whole fleet's cache locality.
//
// The ring itself tracks only membership; liveness is the caller's concern.
// Successors returns every member in ring order from a key, and the caller
// (Gateway.route) walks that order skipping ineligible or overloaded nodes —
// the bounded-load variant of consistent hashing.
type Ring struct {
	vnodes int

	mu     sync.RWMutex
	hashes []uint64          // sorted vnode positions
	owners map[uint64]string // position -> node name
	nodes  map[string]bool
}

// NewRing returns an empty ring with the given replication factor
// (vnodes <= 0 selects DefaultVirtualNodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	return &Ring{
		vnodes: vnodes,
		owners: make(map[uint64]string),
		nodes:  make(map[string]bool),
	}
}

// hash64 hashes s onto the ring. sha256 is already the repo's
// content-address hash (harness.Request.CacheKey), is uniform enough that
// vnode shares concentrate tightly around 1/N, and is nowhere near a hot
// path — the ring rehashes only on membership change, and key lookups hash
// once per request.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Add inserts a node. Adding a present node is a no-op.
func (r *Ring) Add(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nodes[name] {
		return
	}
	r.nodes[name] = true
	r.rebuild()
}

// Remove deletes a node. Removing an absent node is a no-op.
func (r *Ring) Remove(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.nodes[name] {
		return
	}
	delete(r.nodes, name)
	r.rebuild()
}

// rebuild recomputes every vnode position from the member set (caller holds
// mu). Rebuilding from scratch — rather than patching incrementally — makes
// ownership trivially a pure function of membership: join order cannot leak
// in, and on the (astronomically unlikely) collision of two vnode positions
// the lexicographically smaller name wins deterministically. Membership
// changes are rare (node join/leave), so O(nodes × vnodes × log) is fine.
func (r *Ring) rebuild() {
	names := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	r.hashes = r.hashes[:0]
	r.owners = make(map[uint64]string, len(names)*r.vnodes)
	for _, name := range names {
		for i := 0; i < r.vnodes; i++ {
			h := hash64(name + "#" + strconv.Itoa(i))
			if _, taken := r.owners[h]; taken {
				continue // earlier (smaller) name keeps the position
			}
			r.owners[h] = name
			r.hashes = append(r.hashes, h)
		}
	}
	sort.Slice(r.hashes, func(i, j int) bool { return r.hashes[i] < r.hashes[j] })
}

// Len returns the number of member nodes.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}

// Nodes returns the member names, sorted.
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Owner returns the node owning key: the first vnode clockwise from the
// key's position. Empty ring returns "".
func (r *Ring) Owner(key string) string {
	s := r.Successors(key, 1)
	if len(s) == 0 {
		return ""
	}
	return s[0]
}

// Successors returns up to n distinct nodes in ring order starting at key's
// owner — the hand-off order for bounded-load routing: a caller that finds
// the owner ineligible (draining, ejected, overloaded) walks to the next.
func (r *Ring) Successors(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.hashes) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := hash64(key)
	start := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.hashes) && len(out) < n; i++ {
		name := r.owners[r.hashes[(start+i)%len(r.hashes)]]
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	return out
}
