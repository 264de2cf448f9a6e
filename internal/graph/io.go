package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
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

// ReadEdgeList parses the format produced by WriteEdgeList. Lines starting
// with '#' other than the header are ignored; the weight column is optional
// and defaults to 1.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	b, err := ParseEdgeList(r)
	if err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// ParseEdgeList parses like ReadEdgeList but returns the filled Builder,
// so a caller can bound NumNodes before Build allocates per-node arrays.
// It rejects any node ID or nodes= value of 2³¹−1 or more.
func ParseEdgeList(r io.Reader) (*Builder, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20) // grows from the default 4 KiB up to a 1 MiB line
	var b *Builder
	nodes, directed := 0, true
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if strings.Contains(line, "privim-edgelist") {
				for _, tok := range strings.Fields(line) {
					if v, ok := strings.CutPrefix(tok, "nodes="); ok {
						n, err := strconv.Atoi(v)
						if err != nil || n < 0 || n >= maxID {
							return nil, fmt.Errorf("graph: line %d: bad nodes=%q (want [0,%d))", lineNo, v, maxID)
						}
						nodes = n
					}
					if v, ok := strings.CutPrefix(tok, "directed="); ok {
						directed = v != "0"
					}
				}
			}
			continue
		}
		if b == nil {
			b = NewBuilder(nodes, directed)
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want 'u v [w]', got %q", lineNo, line)
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil || u < 0 || u >= maxID {
			return nil, fmt.Errorf("graph: line %d: bad source %q", lineNo, fields[0])
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil || v < 0 || v >= maxID {
			return nil, fmt.Errorf("graph: line %d: bad target %q", lineNo, fields[1])
		}
		w := 1.0
		if len(fields) >= 3 {
			w, err = strconv.ParseFloat(fields[2], 64)
			if err != nil || math.IsNaN(w) || w < 0 || w > 1 {
				return nil, fmt.Errorf("graph: line %d: bad weight %q (want [0,1])", lineNo, fields[2])
			}
		}
		b.n = max(b.n, u+1, v+1)
		b.AddEdge(NodeID(u), NodeID(v), w)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if b == nil {
		b = NewBuilder(nodes, directed)
	}
	return b, nil
}
