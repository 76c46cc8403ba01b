// Package cluster is the routing/balancing tier in front of a fleet of
// lzssd backends: consistent-hash request routing over the multiplexed
// framed-TCP client, built around failure as the normal case. Each
// backend is health-gated (periodic /healthz?fmt=json probes plus
// passive observation of busy/draining replies), guarded by a circuit
// breaker, and a failed attempt retries on the next hash-ring
// alternate under a capped, jittered backoff budget (the
// internal/resilience backoff shape). The tier also sequences
// zero-downtime rolling drains across the fleet while the ring routes
// around each member in turn.
package cluster

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
)

// ring is a consistent-hash ring over a fixed member set: each member
// owns vnodes points on the 64-bit circle, keyed by its address so the
// layout is stable across process restarts. Membership changes are not
// ring operations — an unhealthy member keeps its points and the
// routing loop skips it, so keys fall to their natural next alternate
// and snap back the moment the member recovers.
type ring struct {
	points []ringPoint // sorted by hash
	n      int         // member count
}

// vnodes is the number of ring points each cluster member owns.
const vnodes = 64

type ringPoint struct {
	hash   uint64
	member int
}

// mix64 is the splitmix64 finalizer. FNV alone clusters badly over
// vnode keys that differ only in their counter suffix (one member can
// own most of the circle); the finalizer's avalanche spreads the
// points evenly without changing determinism.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// newRing places vnodes points per member, keyed by addrs[i].
func newRing(addrs []string, vnodes int) *ring {
	r := &ring{points: make([]ringPoint, 0, len(addrs)*vnodes), n: len(addrs)}
	for i, addr := range addrs {
		for v := 0; v < vnodes; v++ {
			h := fnv.New64a()
			h.Write([]byte(addr)) //nolint:errcheck
			var vb [4]byte
			binary.BigEndian.PutUint32(vb[:], uint32(v))
			h.Write(vb[:]) //nolint:errcheck
			r.points = append(r.points, ringPoint{hash: mix64(h.Sum64()), member: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].member < r.points[b].member
	})
	return r
}

// order returns every member exactly once, in the preference order the
// ring gives key: the owner first, then each successive distinct member
// walking clockwise. It is the retry-on-alternate itinerary.
func (r *ring) order(key uint64) []int {
	out := make([]int, 0, r.n)
	seen := make([]bool, r.n)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	for i := 0; i < len(r.points) && len(out) < r.n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, p.member)
		}
	}
	return out
}

// hashKey maps a request payload onto the ring circle. Hashing the
// whole payload would tax large requests, so the key covers the length
// plus a bounded prefix and suffix — enough spread for routing, O(1)
// for any size.
func hashKey(payload []byte) uint64 {
	h := fnv.New64a()
	var lb [8]byte
	binary.BigEndian.PutUint64(lb[:], uint64(len(payload)))
	h.Write(lb[:]) //nolint:errcheck
	const span = 128
	if len(payload) <= 2*span {
		h.Write(payload) //nolint:errcheck
	} else {
		h.Write(payload[:span])              //nolint:errcheck
		h.Write(payload[len(payload)-span:]) //nolint:errcheck
	}
	return mix64(h.Sum64())
}
