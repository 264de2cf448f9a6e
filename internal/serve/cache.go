package serve

import (
	"container/list"
	"sync"

	"privim/internal/graph"
)

// cacheKey identifies one forward pass: the fully resolved model
// reference ("name@version") and the graph's content fingerprint
// (graph.Fingerprint). Keying on the fingerprint rather than the store
// name means re-uploading the same graph under another name — or
// replacing a name with different content — hits or misses correctly
// for free. The query's k and mode are not part of the key: one pass
// answers /v1/score and /v1/seeds for every k.
type cacheKey struct {
	Model       string
	Fingerprint uint64
}

// scored is one forward pass of a model over a graph: the score vector
// and every node ID in rank order (im.TopKScores over all n nodes, so
// the top k for any k is a prefix). It is immutable once cached;
// responses share its slices read-only.
type scored struct {
	scores []float64
	rank   []graph.NodeID
}

// lruCache is a fixed-capacity least-recently-used map from cacheKey to
// a forward pass. Safe for concurrent use.
type lruCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used; elements hold *cacheEntry
	items map[cacheKey]*list.Element
}

type cacheEntry struct {
	key cacheKey
	val *scored
}

// newLRUCache returns an empty cache holding at most capacity entries
// (capacity < 1 is clamped to 1).
func newLRUCache(capacity int) *lruCache {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[cacheKey]*list.Element),
	}
}

// Get returns the cached pass for k, marking it most recently used.
func (c *lruCache) Get(k cacheKey) (*scored, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// Put inserts or refreshes k→v, evicting the least recently used entry
// when the cache is full.
func (c *lruCache) Put(k cacheKey, v *scored) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value.(*cacheEntry).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.items[k] = c.ll.PushFront(&cacheEntry{key: k, val: v})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

// Len returns the number of cached entries.
func (c *lruCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
