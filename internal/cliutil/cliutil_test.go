package cliutil

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"privim/internal/obs"
)

// TestSetupStatsEveryOwnedRegistry: -stats-every alone (no -debug-addr)
// still creates a registry, fans events into it, and runs the history
// sampler over it.
func TestSetupStatsEveryOwnedRegistry(t *testing.T) {
	f := ObserverFlags{StatsEvery: 2 * time.Millisecond}
	s, err := f.Setup("test", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Registry == nil {
		t.Fatal("no registry despite -stats-every")
	}
	if s.Sampler == nil {
		t.Fatal("no sampler despite -stats-every")
	}
	if s.Observer == nil {
		t.Fatal("owned registry not fanned into the observer")
	}
	// An event through the stack's observer lands in the registry…
	obs.Emit(s.Observer, obs.AlertFired{Rule: "r", Metric: "m", Value: 1})
	if got := s.Registry.Counter("alert.fired").Value(); got != 1 {
		t.Fatalf("alert.fired = %d, want 1", got)
	}
	// …and the sampler banks it into a queryable series.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if se := s.Sampler.Query("alert.fired", time.Minute, time.Now()); len(se) > 0 && len(se[0].Points) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sampler never banked alert.fired")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSetupCallerRegistryNotDoubleCounted: a caller-provided registry is
// neither appended to the observer fan-out (the caller already routes
// events into it) nor sampled a second time (the caller's own history
// sampler owns it).
func TestSetupCallerRegistryNotDoubleCounted(t *testing.T) {
	reg := obs.NewRegistry()
	f := ObserverFlags{StatsEvery: time.Minute}
	s, err := f.Setup("test", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Registry != reg {
		t.Fatal("caller registry not adopted")
	}
	if s.Sampler != nil {
		t.Fatal("second history sampler on the caller's registry")
	}
	if s.Observer != nil {
		t.Fatal("caller registry fanned into the observer: events would double-count")
	}
}

// TestSetupProfileDirCapturesOnSlowSpan: with -profile-dir and
// -slow-span, a slow span flowing through the stack's observer triggers
// a heap-profile capture into the ring directory.
func TestSetupProfileDirCapturesOnSlowSpan(t *testing.T) {
	dir := t.TempDir()
	f := ObserverFlags{ProfileDir: dir, SlowSpan: time.Nanosecond}
	s, err := f.Setup("test", nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Profiles == nil {
		s.Close()
		t.Fatal("no profile ring despite -profile-dir")
	}
	// The watchdog forwards every event to the wrapped chain, so a
	// synthetic SpanSlow reaches the capture hook directly.
	obs.Emit(s.Observer, obs.SpanSlow{Span: "train", Elapsed: time.Second})
	s.Close() // waits for the in-flight capture
	matches, err := filepath.Glob(filepath.Join(dir, "*.pprof"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no profiles captured in %s (err %v)", dir, err)
	}
	for _, m := range matches {
		if fi, err := os.Stat(m); err != nil || fi.Size() == 0 {
			// CPU captures may legitimately be dropped, but files that exist
			// must be non-empty.
			t.Fatalf("empty profile artifact %s", m)
		}
	}
}
