package dataset

import (
	"bytes"
	"fmt"
	"io"

	"privim/internal/graph"
)

// ParseGraph decodes an edge-list file or upload body without copying
// it: the native privim-edgelist format when its header is present,
// otherwise a directed SNAP edge list (dense ID remap, uniform unit
// weights). The bytes are untrusted: a graph with more nodes than the
// body has bytes is refused before Build allocates its per-node arrays,
// so a short header cannot claim gigabytes; SNAP bodies always meet that
// bound, because their IDs are remapped densely.
func ParseGraph(data []byte) (*graph.Graph, error) {
	b, err := graph.ParseEdgeList(data, !bytes.Contains(data, []byte("privim-edgelist")), true)
	if err != nil {
		return nil, err
	}
	if b.NumNodes() > len(data) {
		return nil, fmt.Errorf("graph: %d nodes in a %d-byte body", b.NumNodes(), len(data))
	}
	return b.Build(), nil
}

// LoadSNAP reads the whole of r and builds the SNAP edge list in it (see
// graph.ParseEdgeList). Influence probabilities are assigned afterwards
// with SetUniformWeights or SetWeightedCascade, matching the paper's
// setup. This is the adoption path for users who have downloaded the real
// SNAP files; the offline benchmark suite uses the synthetic surrogates.
func LoadSNAP(r io.Reader, directed bool) (*graph.Graph, error) {
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		return nil, err
	}
	b, err := graph.ParseEdgeList(buf.Bytes(), true, directed)
	if err != nil {
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
