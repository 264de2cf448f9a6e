package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"privim/internal/graph"
	"privim/internal/im"
	core "privim/internal/privim"
)

func TestLRUCacheEviction(t *testing.T) {
	c := newLRUCache(2)
	k := func(i int) cacheKey { return cacheKey{Model: "m@1", Fingerprint: uint64(i)} }
	a, b, cc, a2 := &scored{}, &scored{}, &scored{}, &scored{}

	c.Put(k(1), a)
	c.Put(k(2), b)
	if v, ok := c.Get(k(1)); !ok || v != a {
		t.Fatalf("Get(1) = %v %v", v, ok)
	}
	// 1 is now most recent; inserting 3 evicts 2.
	c.Put(k(3), cc)
	if _, ok := c.Get(k(2)); ok {
		t.Fatal("entry 2 survived eviction")
	}
	if _, ok := c.Get(k(1)); !ok {
		t.Fatal("recently used entry 1 was evicted")
	}
	if _, ok := c.Get(k(3)); !ok {
		t.Fatal("new entry 3 missing")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}

	// Refreshing an existing key must not grow the cache.
	c.Put(k(1), a2)
	if v, _ := c.Get(k(1)); v != a2 {
		t.Fatalf("refresh lost: %v", v)
	}
	if c.Len() != 2 {
		t.Fatalf("Len after refresh = %d, want 2", c.Len())
	}
}

func TestCacheKeyDiscriminates(t *testing.T) {
	c := newLRUCache(8)
	base := cacheKey{Model: "m@1", Fingerprint: 42}
	c.Put(base, &scored{})
	for _, k := range []cacheKey{
		{Model: "m@2", Fingerprint: 42},
		{Model: "m@1", Fingerprint: 43},
	} {
		if _, ok := c.Get(k); ok {
			t.Fatalf("key %+v aliased the base entry", k)
		}
	}
}

// newQueryServer returns an in-process server holding the 60-node
// persistTestGraph as "g" and a small model trained on it as "m".
func newQueryServer(tb testing.TB) (*Server, *graph.Graph) {
	tb.Helper()
	g := persistTestGraph()
	s, err := New(Options{Logf: discard})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		tb.Fatal(err)
	}
	if _, err := s.StoreGraph("g", buf.Bytes()); err != nil {
		tb.Fatal(err)
	}
	res, err := core.Train(context.Background(), g, core.Config{
		Mode: core.ModeNonPrivate, SubgraphSize: 8, HiddenDim: 4, Layers: 2, Iterations: 2, BatchSize: 4, Seed: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	buf.Reset()
	if err := res.SaveModel(&buf); err != nil {
		tb.Fatal(err)
	}
	up := httptest.NewRecorder()
	s.Handler().ServeHTTP(up, httptest.NewRequest(http.MethodPost, "/v1/models/m", &buf))
	if up.Code != http.StatusCreated {
		tb.Fatalf("model upload = %d: %s", up.Code, up.Body)
	}
	return s, g
}

// postQuery posts body to path and decodes the 200 answer.
func postQuery(t *testing.T, s *Server, path, body string) queryResponse {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST %s %s = %d: %s", path, body, rec.Code, rec.Body)
	}
	var resp queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("POST %s %s: %v", path, body, err)
	}
	return resp
}

// TestSeedsForEveryKFromOnePass: every k, including each k ≥ n, and the
// score query are answered from one forward pass, and each seed set is
// the top k of the scores, clamped to n.
func TestSeedsForEveryKFromOnePass(t *testing.T) {
	s, g := newQueryServer(t)
	n := g.NumNodes()
	seeds := map[int][]graph.NodeID{}
	for _, k := range []int{5, 60, 61, 1000, 1000000} {
		resp := postQuery(t, s, "/v1/seeds", fmt.Sprintf(`{"model":"m","graph":"g","k":%d}`, k))
		if resp.K != k {
			t.Fatalf("k=%d answered k=%d", k, resp.K)
		}
		if want := min(k, n); len(resp.Seeds) != want {
			t.Fatalf("k=%d: %d seeds, want %d", k, len(resp.Seeds), want)
		}
		seeds[k] = resp.Seeds
	}
	scores := postQuery(t, s, "/v1/score", `{"model":"m","graph":"g"}`).Scores
	if len(scores) != n {
		t.Fatalf("%d scores for %d nodes", len(scores), n)
	}
	for k, got := range seeds {
		if want := im.TopKScores(scores, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: seeds %v, top k of the scores %v", k, got, want)
		}
	}
	if misses := s.reg.Counter("serve.cache.misses").Value(); misses != 1 {
		t.Fatalf("%v cache misses, want 1", misses)
	}
	if s.cache.Len() != 1 {
		t.Fatalf("%d cache entries, want 1", s.cache.Len())
	}
}

// TestCachedAnswerNamesRequestedGraph: two names holding the same bytes
// share one cache entry, and each answer names the graph its request
// asked for.
func TestCachedAnswerNamesRequestedGraph(t *testing.T) {
	s, g := newQueryServer(t)
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"alpha", "beta"} {
		if _, err := s.StoreGraph(name, buf.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	for _, path := range []string{"/v1/seeds", "/v1/score"} {
		for i, name := range []string{"alpha", "beta"} {
			resp := postQuery(t, s, path, `{"model":"m","graph":"`+name+`"}`)
			if resp.Graph != name {
				t.Fatalf("%s on %s answered graph %q", path, name, resp.Graph)
			}
			if cached := path != "/v1/seeds" || i > 0; resp.Cached != cached {
				t.Fatalf("%s on %s: cached %v, want %v", path, name, resp.Cached, cached)
			}
		}
	}
}
