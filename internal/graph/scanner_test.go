package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// The line-scanner parsers that the byte-level tokenizer replaced, kept
// as they were as the oracles of FuzzEdgeListMatchesScanner and
// FuzzSNAPMatchesScanner. Each allocates a string and a field slice per
// line, splits at Unicode space and stops at a line over 1 MiB. One
// change since: scanEdgeList, like ParseEdgeList, takes only 0 or 1 for
// directed=, where both used to read every other value as directed.

// scanEdgeList is the scanner ParseEdgeList was.
func scanEdgeList(r io.Reader) (*Builder, error) {
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
						if v != "0" && v != "1" {
							return nil, fmt.Errorf("graph: line %d: bad directed=%q (want 0 or 1)", lineNo, v)
						}
						directed = v == "1"
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

// scanSNAP is the scanner dataset.LoadSNAP was.
func scanSNAP(r io.Reader, directed bool) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20) // grows from the default 4 KiB up to a 1 MiB line
	b := NewBuilder(0, directed)
	ids := make(map[int64]NodeID)
	intern := func(raw int64) NodeID {
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
