package main

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
)

// The benchmark generates its own inputs so that the program under test
// receives only bytes: a change to the repository's dataset generators
// cannot alter what is measured. Everything here uses slices and a
// SplitMix64 stream, never map iteration or math/rand, so the same seed
// yields byte-identical inputs in every process and on every Go release.

// splitmix is a SplitMix64 pseudo-random stream.
type splitmix struct{ s uint64 }

func newSplitmix(seed int64, stream uint64) *splitmix {
	return &splitmix{s: uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xd1b54a32d192ed03}
}

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n); the modulo bias is below 2^-40 for
// every n the generator uses.
func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

// arc is one directed edge of a generated graph.
type arc struct{ from, to int32 }

// powerLawArcs returns exactly m distinct arcs over n nodes with no self
// loops. Out-degrees spread uniformly around m/n; targets are drawn by
// preferential attachment on in-degree (one phantom unit per node), so
// in-degrees follow a power law with a few hubs, as in the directed
// social graphs the paper evaluates on.
func powerLawArcs(n, m int, r *splitmix) []arc {
	avg := (m + n/2) / n
	maxDeg := 2*avg - 1
	if maxDeg < 1 {
		maxDeg = 1
	}
	if maxDeg > n-1 {
		maxDeg = n - 1
	}
	deg := make([]int, n)
	total := 0
	for u := range deg {
		deg[u] = 1 + r.intn(maxDeg)
		total += deg[u]
	}
	for total > m {
		if u := r.intn(n); deg[u] > 1 {
			deg[u]--
			total--
		}
	}
	for total < m {
		if u := r.intn(n); deg[u] < n-1 {
			deg[u]++
			total++
		}
	}
	tokens := make([]int32, n, n+m)
	for v := range tokens {
		tokens[v] = int32(v)
	}
	arcs := make([]arc, 0, m)
	for u := 0; u < n; u++ {
		first := len(arcs)
		for len(arcs)-first < deg[u] {
			v := tokens[r.intn(len(tokens))]
			if v == int32(u) || hasTarget(arcs[first:], v) {
				continue
			}
			arcs = append(arcs, arc{int32(u), v})
			tokens = append(tokens, v)
		}
	}
	return arcs
}

func hasTarget(arcs []arc, v int32) bool {
	for _, a := range arcs {
		if a.to == v {
			return true
		}
	}
	return false
}

// edgeListHeader is the privim-edgelist header line for an n-node
// directed graph.
func edgeListHeader(n int) []byte {
	return []byte("# privim-edgelist nodes=" + strconv.Itoa(n) + " directed=1\n")
}

// edgeListBody renders arcs as "u v" lines (weight omitted: the format's
// default is 1, and each workload sets its own weights after parsing).
func edgeListBody(arcs []arc) []byte {
	buf := make([]byte, 0, 12*len(arcs))
	for _, a := range arcs {
		buf = strconv.AppendInt(buf, int64(a.from), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(a.to), 10)
		buf = append(buf, '\n')
	}
	return buf
}

// edgeList renders a whole privim-edgelist document.
func edgeList(n int, arcs []arc) []byte {
	return append(edgeListHeader(n), edgeListBody(arcs)...)
}

// digest is the hex SHA-256 over the concatenation of parts.
func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}
