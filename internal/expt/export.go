package expt

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"
)

// This file provides the machine-readable JSON export of the experiment
// results so plots and downstream analyses don't have to re-parse the
// human-readable tables.

// SuiteResult aggregates one full-suite run for JSON export.
type SuiteResult struct {
	GeneratedAt time.Time        `json:"generated_at"`
	Settings    Settings         `json:"settings"`
	TableI      []DatasetStat    `json:"table1,omitempty"`
	TableII     []AblationRow    `json:"table2,omitempty"`
	TableIII    []TimingRow      `json:"table3,omitempty"`
	Fig5        []SpreadPoint    `json:"fig5,omitempty"`
	Fig6        []ParamPoint     `json:"fig6,omitempty"`
	Fig7        []ParamPoint     `json:"fig7,omitempty"`
	Fig8        []IndicatorPoint `json:"fig8,omitempty"`
	Fig9        []GNNPoint       `json:"fig9,omitempty"`
	Fig13       []ThetaPoint     `json:"fig13,omitempty"`
}

// WriteJSON serializes the suite result with stable formatting. Infinite
// epsilons are marshaled as the string "inf" via the custom row types'
// numeric fields being finite; SpreadPoint's +Inf epsilon is mapped here.
func (s *SuiteResult) WriteJSON(w io.Writer) error {
	// JSON cannot represent +Inf; replace with a sentinel.
	cp := *s
	cp.Fig5 = append([]SpreadPoint(nil), s.Fig5...)
	for i := range cp.Fig5 {
		if math.IsInf(cp.Fig5[i].Epsilon, 1) {
			cp.Fig5[i].Epsilon = -1 // sentinel: -1 means non-private
		}
	}
	cp.TableII = append([]AblationRow(nil), s.TableII...)
	for i := range cp.TableII {
		if math.IsInf(cp.TableII[i].Epsilon, 1) {
			cp.TableII[i].Epsilon = -1
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&cp); err != nil {
		return fmt.Errorf("expt: encoding suite result: %w", err)
	}
	return nil
}
