package main

import (
	"bytes"
	"encoding/binary"
	"flag"
	"io"
	"testing"
)

// parseSeed parses args against a flag set with privim's -seed flag.
func parseSeed(t *testing.T, args ...string) (*flag.FlagSet, int64) {
	t.Helper()
	fs := flag.NewFlagSet("privim", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "")
	fs.Int("k", 10, "")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return fs, *seed
}

// TestTrainSeed checks when a run trains under a secret seed: a private
// run whose command line leaves -seed unset draws its seed from the
// random source; any explicit -seed, 0 and the default value included,
// and every non-private run use -seed's value.
func TestTrainSeed(t *testing.T) {
	var word [8]byte
	binary.LittleEndian.PutUint64(word[:], 0xfeedface12345678)
	for _, c := range []struct {
		name    string
		args    []string
		private bool
		want    int64
		secret  bool
	}{
		{"private without -seed draws a secret", []string{"-k", "5"}, true, int64(binary.LittleEndian.Uint64(word[:])), true},
		{"explicit -seed", []string{"-seed", "7"}, true, 7, false},
		{"explicit -seed 0", []string{"-seed=0"}, true, 0, false},
		{"explicit default value", []string{"-seed", "1"}, true, 1, false},
		{"non-private keeps the default", nil, false, 1, false},
		{"non-private keeps -seed", []string{"-seed", "9"}, false, 9, false},
	} {
		fs, seed := parseSeed(t, c.args...)
		got, secret, err := trainSeed(fs, seed, c.private, bytes.NewReader(word[:]))
		if err != nil || got != c.want || secret != c.secret {
			t.Errorf("%s: trainSeed = %d, %v, %v; want %d, %v", c.name, got, secret, err, c.want, c.secret)
		}
	}
}

// TestTrainSeedFailsWithoutRandomness checks that a failed draw is an
// error, never a fallback to the public default.
func TestTrainSeedFailsWithoutRandomness(t *testing.T) {
	fs, seed := parseSeed(t)
	if got, secret, err := trainSeed(fs, seed, true, bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Fatalf("trainSeed on a 3-byte source = %d, %v, nil; want an error", got, secret)
	}
	if _, _, err := trainSeed(fs, seed, true, io.MultiReader()); err == nil {
		t.Fatal("trainSeed on an empty source: want an error")
	}
}
