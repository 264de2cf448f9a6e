package serve

import (
	"fmt"
	"sort"
	"sync"

	"privim/internal/graph"
)

// GraphInfo is the store's public description of one uploaded graph.
type GraphInfo struct {
	Name     string `json:"name"`
	Nodes    int    `json:"nodes"`
	Edges    int    `json:"edges"`
	Directed bool   `json:"directed"`
	// Fingerprint is graph.Fingerprint in zero-padded hex — the content
	// address the result cache keys on.
	Fingerprint string `json:"fingerprint"`
}

type graphEntry struct {
	info GraphInfo
	g    *graph.Graph
	fp   uint64
}

// graphStore is the in-memory store of named influence graphs. Graphs
// are immutable once stored (construction completes before Put), so
// entries are served concurrently without copying.
type graphStore struct {
	mu     sync.RWMutex
	graphs map[string]*graphEntry
}

func newGraphStore() *graphStore {
	return &graphStore{graphs: make(map[string]*graphEntry)}
}

// Put stores g under name, replacing any previous content.
func (s *graphStore) Put(name string, g *graph.Graph) (GraphInfo, error) {
	if !validName(name) {
		return GraphInfo{}, fmt.Errorf("invalid graph name %q (want [A-Za-z0-9._-]+)", name)
	}
	fp := g.Fingerprint()
	info := GraphInfo{
		Name:        name,
		Nodes:       g.NumNodes(),
		Edges:       g.NumEdges(),
		Directed:    g.Directed(),
		Fingerprint: fmt.Sprintf("%016x", fp),
	}
	s.mu.Lock()
	s.graphs[name] = &graphEntry{info: info, g: g, fp: fp}
	s.mu.Unlock()
	return info, nil
}

// Get returns the entry stored under name.
func (s *graphStore) Get(name string) (*graphEntry, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.graphs[name]
	if !ok {
		return nil, fmt.Errorf("graph %q not found", name)
	}
	return e, nil
}

// Delete removes the entry stored under name.
func (s *graphStore) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.graphs[name]; !ok {
		return fmt.Errorf("graph %q not found", name)
	}
	delete(s.graphs, name)
	return nil
}

// List returns every stored graph, sorted by name.
func (s *graphStore) List() []GraphInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]GraphInfo, 0, len(s.graphs))
	for _, e := range s.graphs {
		out = append(out, e.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
