package gnn

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// Save writes a self-describing model checkpoint: a one-line JSON header
// with the architecture config followed by the binary parameter payload.
// Load reconstructs the model without needing the original Config.
func (m *Model) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	header, err := json.Marshal(m.Cfg)
	if err != nil {
		return fmt.Errorf("gnn: encoding checkpoint header: %w", err)
	}
	if _, err := bw.Write(append(header, '\n')); err != nil {
		return err
	}
	if _, err := m.Params.WriteTo(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// Load reads a checkpoint written by Save and returns the reconstructed
// model with its trained weights. The header is untrusted: before
// building the architecture it names, Load reads the weight bytes that
// architecture implies and refuses the checkpoint if the stream ends
// first, so a short body cannot make it allocate a large model. It also
// refuses any NaN or ±Inf weight, naming the parameter that holds it.
func Load(r io.Reader) (*Model, error) {
	br := bufio.NewReader(r)
	line, err := br.ReadBytes('\n')
	if err != nil {
		return nil, fmt.Errorf("gnn: reading checkpoint header: %w", err)
	}
	var cfg Config
	if err := json.Unmarshal(line, &cfg); err != nil {
		return nil, fmt.Errorf("gnn: decoding checkpoint header: %w", err)
	}
	weights, err := cfg.WeightCount()
	if err != nil {
		return nil, fmt.Errorf("gnn: checkpoint config invalid: %w", err)
	}
	if weights > math.MaxInt64/8 {
		return nil, fmt.Errorf("gnn: checkpoint config %+v implies too many weights", cfg)
	}
	// Every weight takes 8 payload bytes, so the payload is at least this
	// long. ReadAll grows with the bytes actually supplied.
	need := int64(weights) * 8
	head, err := io.ReadAll(io.LimitReader(br, need))
	if err != nil {
		return nil, fmt.Errorf("gnn: reading checkpoint weights: %w", err)
	}
	if int64(len(head)) < need {
		return nil, fmt.Errorf("gnn: checkpoint truncated: header implies %d weights (%d bytes), payload has %d bytes",
			weights, need, len(head))
	}
	m, err := New(cfg)
	if err != nil {
		return nil, fmt.Errorf("gnn: checkpoint config invalid: %w", err)
	}
	if err := m.Params.ReadInto(io.MultiReader(bytes.NewReader(head), br)); err != nil {
		return nil, err
	}
	// A NaN or ±Inf weight would make every score non-finite, which no
	// caller can serve or rank, so the checkpoint is refused outright.
	for _, p := range m.Params.All() {
		for i, v := range p.Value.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("gnn: checkpoint parameter %s has non-finite weight %v at index %d", p.Name, v, i)
			}
		}
	}
	return m, nil
}

// WeightCount returns the number of weights New(c) would register,
// walking the same shapes without allocating them: the bound Load checks
// an untrusted checkpoint header against, and the serving daemon a
// training request before it admits the job. It fails when c is invalid
// or the count overflows an int.
func (c Config) WeightCount() (int, error) {
	if err := c.normalize(); err != nil {
		return 0, err
	}
	var total int
	ok := true
	add := func(rows, cols int) {
		if !ok || rows > math.MaxInt/cols || total > math.MaxInt-rows*cols {
			ok = false
			return
		}
		total += rows * cols
	}
	layer := func(in int) {
		out := c.HiddenDim
		switch c.Kind {
		case GCN:
			add(in, out)
		case GraphSAGE:
			add(in, out)
			add(in, out)
		case GAT, GRAT:
			add(in, out)
			add(c.Heads, out)
			add(c.Heads, out)
		case GIN:
			add(in, out)
			add(out, out)
			add(1, 1)
		}
		add(1, out)
	}
	layer(c.InputDim)
	if c.Layers > 1 {
		// Layers after the first share one shape, so the other Layers-2
		// are counted at once rather than looped over.
		before := total
		layer(c.HiddenDim)
		add(c.Layers-2, total-before)
	}
	add(c.HiddenDim, 1) // readout over [final hidden | raw features]
	add(c.InputDim, 1)
	add(1, 1)
	if !ok {
		return 0, fmt.Errorf("gnn: %+v has more weights than an int counts", c)
	}
	return total, nil
}
