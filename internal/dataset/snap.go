package dataset

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"

	"privim/internal/graph"
)

// ParseGraph decodes an edge-list file or upload body: the native
// privim-edgelist format when its header is present, otherwise a
// directed SNAP edge list (dense ID remap, uniform unit weights). The
// bytes are untrusted: a graph with more nodes than the body has bytes is
// refused before Build allocates its per-node arrays, so a short header
// cannot claim gigabytes; SNAP bodies always meet that bound, because
// their IDs are remapped densely.
func ParseGraph(data []byte) (*graph.Graph, error) {
	if bytes.Contains(data, []byte("privim-edgelist")) {
		b, err := graph.ParseEdgeList(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if b.NumNodes() > len(data) {
			return nil, fmt.Errorf("graph: %d nodes in a %d-byte body", b.NumNodes(), len(data))
		}
		return b.Build(), nil
	}
	g, err := LoadSNAP(bytes.NewReader(data), true)
	if err != nil {
		return nil, err
	}
	g.SetUniformWeights(1)
	return g, nil
}

// LoadSNAP parses the edge-list format the SNAP repository distributes the
// paper's datasets in: '#'-prefixed comment lines followed by whitespace-
// or comma-separated "FromNodeId ToNodeId" pairs with arbitrary (sparse)
// integer IDs. IDs are remapped to a dense 0..n-1 range in
// first-appearance order.
// An optional third column is accepted and ignored (e.g. Bitcoin-OTC's
// ratings) — influence probabilities are assigned afterwards with
// SetUniformWeights or SetWeightedCascade, matching the paper's setup.
//
// This is the adoption path for users who have downloaded the real SNAP
// files; the offline benchmark suite uses the synthetic surrogates.
func LoadSNAP(r io.Reader, directed bool) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20) // grows from the default 4 KiB up to a 1 MiB line
	b := graph.NewBuilder(0, directed)
	ids := make(map[int64]graph.NodeID)
	intern := func(raw int64) graph.NodeID {
		if id, ok := ids[raw]; ok {
			return id
		}
		id := b.AddNode()
		ids[raw] = id
		return id
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		// Some SNAP exports are comma separated.
		fields := strings.Fields(strings.ReplaceAll(line, ",", " "))
		if len(fields) < 2 {
			return nil, fmt.Errorf("dataset: SNAP line %d: want 'from to', got %q", lineNo, line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("dataset: SNAP line %d: bad source %q", lineNo, fields[0])
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("dataset: SNAP line %d: bad target %q", lineNo, fields[1])
		}
		fu, fv := intern(u), intern(v)
		if fu == fv {
			continue // SNAP files occasionally carry self loops; drop them
		}
		b.AddEdge(fu, fv, 1)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// FromGraph wraps an externally loaded graph (e.g. a real SNAP dataset)
// into a Dataset with the paper's 50/50 node split and weighting.
func FromGraph(name Preset, g *graph.Graph, opts Options) *Dataset {
	opts.normalize()
	if opts.InfluenceProb > 0 {
		g.SetUniformWeights(opts.InfluenceProb)
	} else {
		g.SetWeightedCascade()
	}
	ds := &Dataset{Name: name, Graph: g, Scale: 1}
	ds.split(opts.TrainFraction, randFor(opts.Seed))
	return ds
}
