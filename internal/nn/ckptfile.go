package nn

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"os"
	"path/filepath"
)

// Checkpoint files carry a fixed 24-byte trailer after the payload:
//
//	[payload][crc64(payload) u64][len(payload) u64]["PVCKTRL1"]
//
// little endian throughout. The trailer is written last and the file is
// renamed into place only after a successful fsync, so a reader either
// sees a complete, checksummed file or can prove it is damaged: a crash
// mid-write leaves a *.tmp-* file the loader never looks at, a truncated
// copy fails the length check, and bit rot fails the CRC. crc64/ECMA is
// an integrity check against accidents, not an adversary.
const (
	ckptTrailerMagic = "PVCKTRL1"
	ckptTrailerLen   = 24
)

// ErrCheckpointCorrupt tags every verification failure ReadFileVerified
// can report (truncation, checksum mismatch, missing trailer), so callers
// can errors.Is-match the whole family and fall back to an older file.
var ErrCheckpointCorrupt = errors.New("nn: corrupt checkpoint file")

var ckptCRCTable = crc64.MakeTable(crc64.ECMA)

// WriteFileAtomic writes the payload produced by write to path with
// crash-safe semantics: the bytes go to a temp file in the same
// directory, a checksum trailer is appended, the file is fsynced, and
// only then renamed over path. A crash at any point leaves either the
// previous complete file or no file — never a half-written one under the
// final name. It returns the payload size in bytes.
func WriteFileAtomic(path string, write func(io.Writer) error) (int64, error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return 0, err
	}
	tmp := f.Name()
	fail := func(err error) (int64, error) {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	cw := &crcWriter{w: f, crc: crc64.New(ckptCRCTable)}
	if err := write(cw); err != nil {
		return fail(err)
	}
	var trailer [ckptTrailerLen]byte
	putUint64LE(trailer[0:8], cw.crc.Sum64())
	putUint64LE(trailer[8:16], uint64(cw.n))
	copy(trailer[16:24], ckptTrailerMagic)
	if _, err := f.Write(trailer[:]); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	syncDir(dir)
	return cw.n, nil
}

// ReadFileVerified reads a file written by WriteFileAtomic, verifies the
// trailer (length, then checksum), and returns the payload. Every
// verification failure wraps ErrCheckpointCorrupt so callers can fall
// back to the previous good checkpoint.
func ReadFileVerified(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < ckptTrailerLen {
		return nil, fmt.Errorf("%w: %s: %d bytes, shorter than the %d-byte trailer",
			ErrCheckpointCorrupt, path, len(data), ckptTrailerLen)
	}
	trailer := data[len(data)-ckptTrailerLen:]
	if string(trailer[16:24]) != ckptTrailerMagic {
		return nil, fmt.Errorf("%w: %s: missing trailer magic (truncated or not a checkpoint)",
			ErrCheckpointCorrupt, path)
	}
	payload := data[:len(data)-ckptTrailerLen]
	if want := getUint64LE(trailer[8:16]); want != uint64(len(payload)) {
		return nil, fmt.Errorf("%w: %s: payload is %d bytes, trailer recorded %d (truncated)",
			ErrCheckpointCorrupt, path, len(payload), want)
	}
	if want, got := getUint64LE(trailer[0:8]), crc64.Checksum(payload, ckptCRCTable); want != got {
		return nil, fmt.Errorf("%w: %s: checksum %016x, trailer recorded %016x",
			ErrCheckpointCorrupt, path, got, want)
	}
	return payload, nil
}

// AppendJSON is the one durable write of an append-only JSONL table: it
// appends v as one JSON line to path, fsyncs, closes, and returns the
// first error, so a nil return means the line survives a power loss. The
// append that creates the file also syncs its directory entry.
func AppendJSON(path string, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	created := os.IsNotExist(err)
	if created {
		f, err = os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	}
	if err != nil {
		return err
	}
	_, err = f.Write(append(line, '\n'))
	if serr := f.Sync(); err == nil {
		err = serr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if created && err == nil {
		syncDir(filepath.Dir(path))
	}
	return err
}

// ReplayLines reads a table AppendJSON wrote, calling apply with each
// non-blank line (trimmed) and its 1-based number. A missing file is an
// empty table. It returns the open error, or the read error that ended
// the replay early — a line over 4 MiB, say — after applying every line
// before it.
func ReplayLines(path string, apply func(lineNo int, line []byte)) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for lineNo := 1; sc.Scan(); lineNo++ {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			apply(lineNo, line)
		}
	}
	return sc.Err()
}

// crcWriter tees writes into a running CRC and byte count.
type crcWriter struct {
	w   io.Writer
	crc interface {
		io.Writer
		Sum64() uint64
	}
	n int64
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	if n > 0 {
		c.crc.Write(p[:n])
		c.n += int64(n)
	}
	return n, err
}

// syncDir fsyncs a directory so the rename itself is durable; best
// effort — some filesystems refuse directory fsync and the rename is
// still atomic without it.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

func putUint64LE(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getUint64LE(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}
