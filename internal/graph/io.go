package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
)

// WriteEdgeList writes g in a whitespace-separated "u v w" text format with
// a header comment recording node count and directedness. The format round
// trips through ReadEdgeList.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	dir := 0
	if g.Directed() {
		dir = 1
	}
	if _, err := fmt.Fprintf(bw, "# privim-edgelist nodes=%d directed=%d\n", g.NumNodes(), dir); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d %d %g\n", e.From, e.To, e.Weight); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxID bounds every node ID and nodes= count the parser accepts: IDs at
// or above it could not be NodeIDs of a graph whose node count fits an
// int32.
const maxID = math.MaxInt32

// ReadEdgeList reads all of r and builds the native edge list in it.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		return nil, err
	}
	b, err := ParseEdgeList(buf.Bytes(), false, true)
	if err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// ParseEdgeList parses an edge-list body in place into a Builder, so a
// caller can bound NumNodes before Build allocates per-node arrays. Fields
// are split at ASCII space only (a non-ASCII space such as U+00A0 is part
// of its field), and lines have no length limit. directed is the graph's
// directedness unless a header sets it.
//
// The native dialect, WriteEdgeList's format, has "u v [w]" lines of node
// IDs in [0, 2³¹−1) and a weight in [0,1] that defaults to 1. A '#' line
// is a comment; a "privim-edgelist" one also sets the node count (nodes=,
// below 2³¹−1 too) and directedness (directed=0 or 1) if no edge came
// before it.
//
// With snap set it reads the lists the SNAP repository distributes the
// paper's datasets in: '#' or '%' comments and "from to" pairs separated
// by spaces or commas, with int64 IDs remapped to 0..n-1 in first
// appearance order. A third column (such as Bitcoin-OTC's ratings) is
// ignored, every weight is 1, and self loops are dropped.
func ParseEdgeList(data []byte, snap, directed bool) (*Builder, error) {
	// The shortest edge line, "0 1\n", takes 4 bytes: presizing to at most
	// len(data)/4 edges never reserves more than a body of edges fills.
	b := &Builder{directed: directed, edges: make([]Edge, 0, min(bytes.Count(data, []byte{'\n'})+1, len(data)/4))}
	sep, ids := &isSpace, map[int64]NodeID{} // ids maps SNAP's raw IDs to dense ones
	if snap {
		sep = &isSNAPSep
	}
	for lineNo := 1; len(data) > 0; lineNo++ {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		for len(line) > 0 && isSpace[line[0]] {
			line = line[1:]
		}
		if len(line) == 0 || line[0] == '#' || snap && line[0] == '%' {
			if !snap && bytes.Contains(line, []byte("privim-edgelist")) {
				if err := b.header(line, lineNo); err != nil {
					return nil, err
				}
			}
			continue
		}
		f0, rest := field(line, sep)
		f1, rest := field(rest, sep)
		if len(f1) == 0 {
			return nil, fmt.Errorf("graph: line %d: want two node IDs, got %q", lineNo, line)
		}
		u, ok := parseInt(f0)
		if !ok || !snap && (u < 0 || u >= maxID) {
			return nil, fmt.Errorf("graph: line %d: bad source %q", lineNo, f0)
		}
		v, ok := parseInt(f1)
		if !ok || !snap && (v < 0 || v >= maxID) {
			return nil, fmt.Errorf("graph: line %d: bad target %q", lineNo, f1)
		}
		if snap {
			if fu, fv := b.intern(ids, u), b.intern(ids, v); fu != fv {
				b.edges = append(b.edges, Edge{From: fu, To: fv, Weight: 1})
			}
			continue
		}
		w := 1.0
		if f2, _ := field(rest, sep); len(f2) > 0 {
			var err error
			if w, err = strconv.ParseFloat(string(f2), 64); err != nil || math.IsNaN(w) || w < 0 || w > 1 {
				return nil, fmt.Errorf("graph: line %d: bad weight %q (want [0,1])", lineNo, f2)
			}
		}
		b.n = max(b.n, int(u)+1, int(v)+1)
		b.edges = append(b.edges, Edge{From: NodeID(u), To: NodeID(v), Weight: w})
	}
	return b, nil
}

// header applies a privim-edgelist header line's nodes= and directed=
// tokens. Both values are checked wherever the line appears (directed=
// takes 0 or 1 only), but only a header before the first edge shapes the
// graph.
func (b *Builder) header(line []byte, lineNo int) error {
	for tok, rest := field(line, &isSpace); len(tok) > 0; tok, rest = field(rest, &isSpace) {
		if v, ok := bytes.CutPrefix(tok, []byte("nodes=")); ok {
			n, ok := parseInt(v)
			if !ok || n < 0 || n >= maxID {
				return fmt.Errorf("graph: line %d: bad nodes=%q (want [0,%d))", lineNo, v, maxID)
			}
			if len(b.edges) == 0 {
				b.n = int(n)
			}
		}
		if v, ok := bytes.CutPrefix(tok, []byte("directed=")); ok {
			if len(v) != 1 || v[0] != '0' && v[0] != '1' {
				return fmt.Errorf("graph: line %d: bad directed=%q (want 0 or 1)", lineNo, v)
			}
			if len(b.edges) == 0 {
				b.directed = v[0] == '1'
			}
		}
	}
	return nil
}

// intern maps the SNAP ID raw to its dense ID, adding a node on first sight.
func (b *Builder) intern(ids map[int64]NodeID, raw int64) NodeID {
	id, ok := ids[raw]
	if !ok {
		id = b.AddNode()
		ids[raw] = id
	}
	return id
}

// isSpace marks ASCII space; isSNAPSep adds the comma SNAP exports may use.
var (
	isSpace   = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}
	isSNAPSep = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true, ',': true}
)

// field skips the separators that start s and returns the field after
// them and the rest of s.
func field(s []byte, sep *[256]bool) (f, rest []byte) {
	for len(s) > 0 && sep[s[0]] {
		s = s[1:]
	}
	i := 0
	for i < len(s) && !sep[s[i]] {
		i++
	}
	return s[:i], s[i:]
}

// parseInt parses a decimal integer as strconv.ParseInt(s, 10, 64) does.
// Unsigned fields too short to overflow skip the conversion to string.
func parseInt(s []byte) (int64, bool) {
	if len(s) == 0 || len(s) > 18 || s[0]-'0' > 9 {
		n, err := strconv.ParseInt(string(s), 10, 64)
		return n, err == nil
	}
	var n int64
	for _, c := range s {
		if c-'0' > 9 {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	return n, true
}
