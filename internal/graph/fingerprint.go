package graph

import "math"

// FNV-1a 64-bit constants (hash/fnv's parameters, inlined so hashing the
// edge stream needs no per-edge allocations or Writer indirection).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Fingerprint returns a deterministic 64-bit content hash of the graph:
// FNV-1a over the canonical node/edge/weight stream (directedness flag,
// node count, then every arc as (from, to, weight-bits) in adjacency
// order). Two graphs built by the same sequence of Builder.AddEdge calls
// — or round-tripped through WriteEdgeList/ReadEdgeList — fingerprint
// identically, so the value is usable as a cache key anywhere a result
// depends only on the graph (the serving layer keys its model-output
// cache on it, and the graph store uses it as a content address).
//
// The hash covers structure and weights but not construction history
// beyond arc order; it is not cryptographic and must not be used for
// integrity against an adversary.
//
// Endpoint IDs are folded through uint32 before hashing, so the stream
// assumes node IDs below 2³² — two IDs that differ only above bit 31
// would collide. NodeID is an int32, so no graph can hold such IDs; the
// folding only matters if NodeID ever widens. Weights hash by exact IEEE
// bit pattern (Float64bits), so +0 and -0 fingerprint differently —
// deliberate, since the canonical edge-list text form also preserves the
// sign.
func (g *Graph) Fingerprint() uint64 {
	h := uint64(fnvOffset64)
	if g.directed {
		h = fnvMix(h, 1)
	} else {
		h = fnvMix(h, 0)
	}
	h = fnvMix(h, uint64(g.NumNodes()))
	for u := 0; u < g.NumNodes(); u++ {
		for _, a := range g.Out(NodeID(u)) {
			h = fnvMix(h, uint64(uint32(u)))
			h = fnvMix(h, uint64(uint32(a.To)))
			h = fnvMix(h, math.Float64bits(a.Weight))
		}
	}
	return h
}

// fnvMix folds one 64-bit word into the running FNV-1a state, low byte
// first.
func fnvMix(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime64
		x >>= 8
	}
	return h
}
