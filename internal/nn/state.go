package nn

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Training-state serialization: gradient snapshots (Adam moments) and
// optimizer scalars, used by the crash-safe training checkpoints in
// internal/privim. Like the ParamSet format, everything is little-endian
// and restores into a pre-built layout, so shape mismatches are detected
// rather than silently accepted.

// WriteTo serializes the gradient snapshot (per-matrix rows, cols, then
// row-major float64 bits). It returns the byte count written. Unlike
// ParamSet.WriteTo it does not buffer internally: checkpoint encoders
// interleave several state sections on one stream, so each section must
// write exactly its own bytes (hand in a buffered writer if needed).
func (g *Grads) WriteTo(w io.Writer) (int64, error) {
	var n int64
	write := func(v interface{}) error {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	if err := write(uint32(len(g.mats))); err != nil {
		return n, err
	}
	for _, m := range g.mats {
		if err := write(uint32(m.Rows)); err != nil {
			return n, err
		}
		if err := write(uint32(m.Cols)); err != nil {
			return n, err
		}
		if err := write(floatBits(m.Data)); err != nil {
			return n, err
		}
	}
	return n, nil
}

// ReadInto deserializes a snapshot written by WriteTo into g, which must
// have the identical layout (matrix count and shapes). It reads exactly
// the snapshot's bytes — no read-ahead — so further state sections can
// follow on the same stream.
func (g *Grads) ReadInto(r io.Reader) error {
	var count uint32
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return err
	}
	if int(count) != len(g.mats) {
		return fmt.Errorf("nn: gradient snapshot has %d matrices, layout has %d", count, len(g.mats))
	}
	for i, m := range g.mats {
		var rows, cols uint32
		if err := binary.Read(r, binary.LittleEndian, &rows); err != nil {
			return err
		}
		if err := binary.Read(r, binary.LittleEndian, &cols); err != nil {
			return err
		}
		if int(rows) != m.Rows || int(cols) != m.Cols {
			return fmt.Errorf("nn: gradient snapshot shape %dx%d at index %d, layout wants %dx%d",
				rows, cols, i, m.Rows, m.Cols)
		}
		bits := make([]uint64, len(m.Data))
		if err := binary.Read(r, binary.LittleEndian, bits); err != nil {
			return err
		}
		for k, b := range bits {
			m.Data[k] = math.Float64frombits(b)
		}
	}
	return nil
}

// floatBits returns the IEEE-754 bit patterns of vs, the lossless wire
// form (binary.Write on float64 would round-trip too, but bits make the
// bit-for-bit contract explicit).
func floatBits(vs []float64) []uint64 {
	bits := make([]uint64, len(vs))
	for i, v := range vs {
		bits[i] = math.Float64bits(v)
	}
	return bits
}

// optStateAdam tags Adam state; the tag leads the state stream so a
// resume from any other optimizer kind fails loudly instead of
// misinterpreting moments.
const optStateAdam = uint32(1)

// StateTo serializes the Adam step counter and first/second moments, so
// that after StateFrom the optimizer continues bit-for-bit as if never
// interrupted (the crash-safe training resume contract).
func (a *Adam) StateTo(w io.Writer) error {
	if err := binary.Write(w, binary.LittleEndian, optStateAdam); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(a.t)); err != nil {
		return err
	}
	if _, err := a.m.WriteTo(w); err != nil {
		return err
	}
	_, err := a.v.WriteTo(w)
	return err
}

// StateFrom restores state written by StateTo; the optimizer must have
// been constructed over the identical parameter layout.
func (a *Adam) StateFrom(r io.Reader) error {
	var kind uint32
	if err := binary.Read(r, binary.LittleEndian, &kind); err != nil {
		return err
	}
	if kind != optStateAdam {
		return fmt.Errorf("nn: optimizer state kind %d, want Adam (%d)", kind, optStateAdam)
	}
	var t uint64
	if err := binary.Read(r, binary.LittleEndian, &t); err != nil {
		return err
	}
	if err := a.m.ReadInto(r); err != nil {
		return err
	}
	if err := a.v.ReadInto(r); err != nil {
		return err
	}
	a.t = int(t)
	return nil
}
