package serve

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is a consistent-hash ring over a fixed member set: venue IDs map to
// members (in-process dispatcher lanes, or backend addresses in proxy mode)
// such that adding or removing one member remaps only ~1/N of the keys. Each
// member contributes `replicas` virtual points so the keyspace splits evenly
// even for small member counts. Immutable after construction, so lookups are
// lock-free.
type Ring struct {
	members []string
	points  []ringPoint // sorted by hash
}

type ringPoint struct {
	hash   uint64
	member int // index into members
}

// NewRing builds a ring over members (order is preserved for OwnerIndex).
// replicas <= 0 selects 64 virtual points per member.
func NewRing(members []string, replicas int) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("serve: ring needs at least one member")
	}
	if replicas <= 0 {
		replicas = 64
	}
	r := &Ring{
		members: append([]string(nil), members...),
		points:  make([]ringPoint, 0, len(members)*replicas),
	}
	for i, m := range r.members {
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, ringPoint{hash: ringHash(fmt.Sprintf("%s#%d", m, v)), member: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Hash collisions between virtual points are astronomically rare but
		// must still order deterministically across processes.
		return r.points[a].member < r.points[b].member
	})
	return r, nil
}

// ringHash is FNV-1a 64 pushed through a splitmix64 finalizer. FNV alone is
// not enough here: its last step is a multiply, so strings sharing a prefix
// and differing only in a short numeric suffix ("s0#1" vs "s0#2", "venue-7"
// vs "venue-8") hash within ~2^47 of each other and the ring's virtual points
// collapse into per-member clusters that capture wildly uneven arcs. The
// finalizer restores avalanche while staying pure arithmetic — stable across
// processes and Go versions, which is what lets a proxy and its backends
// agree on ownership without coordination.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s)) //nolint:errcheck // hash.Hash never errors
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// OwnerIndex returns the index (into the construction member list) of the
// member owning key: the first virtual point clockwise from the key's hash.
func (r *Ring) OwnerIndex(key string) int {
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap around the ring
	}
	return r.points[i].member
}

// Owner returns the member owning key.
func (r *Ring) Owner(key string) string {
	return r.members[r.OwnerIndex(key)]
}
