package expt

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"privim/internal/dataset"
	"privim/internal/privim"
)

func TestSuiteResultJSON(t *testing.T) {
	s := &SuiteResult{
		GeneratedAt: time.Unix(0, 0).UTC(),
		Settings:    Quick(),
		Fig5: []SpreadPoint{
			{Mode: privim.ModeNonPrivate, Dataset: dataset.Email, Epsilon: math.Inf(1), Spread: 5},
		},
		TableII: []AblationRow{{Mode: privim.ModeNonPrivate, Epsilon: math.Inf(1), Coverage: 90}},
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("exported JSON invalid: %v", err)
	}
	// Infinity must have been replaced by the sentinel.
	if strings.Contains(buf.String(), "Inf") {
		t.Fatal("JSON contains Inf")
	}
	// Original struct untouched.
	if !math.IsInf(s.Fig5[0].Epsilon, 1) {
		t.Fatal("WriteJSON mutated its input")
	}
}
