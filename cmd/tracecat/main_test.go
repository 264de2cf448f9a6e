package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestConvertJournalWithNoisyLoss: journals written while iteration_end
// still carried the post-update noisy_loss field convert to a valid
// trace with the training-loss counter.
func TestConvertJournalWithNoisyLoss(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "run.jsonl")
	line := `{"event":"iteration_end","ts_unix_ns":1000,"data":{"iter":0,"loss":0.5,"noisy_loss":0.6,"grad_norm":1.25,"clip_fraction":0.75,"epsilon_spent":2.5}}` + "\n"
	if err := os.WriteFile(journal, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "trace.json")
	if err := runConvert([]string{journal}, out, ""); err != nil {
		t.Fatal(err)
	}
	if err := runCheck([]string{out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"train.loss"`)) || !bytes.Contains(data, []byte(`"loss":0.5`)) {
		t.Fatalf("trace lacks the loss counter: %s", data)
	}
}
