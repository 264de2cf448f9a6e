package ledger

import (
	"encoding/json"

	"privim/internal/nn"
)

// Ledger persistence mirrors the serve layer's jobs.jsonl discipline:
// one JSON line appended per transition, the file is never rewritten,
// the last record per reference wins (states only move forward, so
// replay applies transitions in file order and stale duplicates are
// no-ops), and corrupt or torn lines are skipped rather than fatal.
// Committed charges persist their accountant *parameters*, not the RDP
// floats — replay re-derives each curve and re-accumulates in original
// commit order, which reproduces the committed balance bit for bit.

// record is one ledger.jsonl line.
type record struct {
	Ref    string `json:"ref"`
	Tenant string `json:"tenant"`
	Graph  string `json:"graph"`
	// State is the transition: reserved, committed, refunded, forfeited.
	State string `json:"state"`
	// Eps is the ε the transition moved: the reservation amount, the
	// scalar committed spend, or the refunded/forfeited reservation.
	Eps float64 `json:"eps"`
	// Charge holds the committed run's accounting (committed records).
	Charge *Charge `json:"charge,omitempty"`
}

// appendLocked durably appends one record; the caller holds l.mu, which
// also serializes writers, so file order equals in-memory apply order.
// Persistence failures are logged, not fatal — the ledger keeps
// enforcing with in-memory state (same stance as the job table).
func (l *Ledger) appendLocked(rec record) {
	if l.opts.Path == "" {
		return
	}
	if err := nn.AppendJSON(l.opts.Path, rec); err != nil {
		l.opts.Logf("ledger: append %s %s: %v", rec.State, rec.Ref, err)
	}
}

// replay restores the ledger from Options.Path. A missing file is a
// fresh ledger; a file that cannot be read to its end is an error, since
// the records past the failure could hold spend.
func (l *Ledger) replay() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return nn.ReplayLines(l.opts.Path, func(lineNo int, line []byte) {
		var rec record
		// Every state except an anonymous commit needs a reference.
		if err := json.Unmarshal(line, &rec); err != nil || (rec.Ref == "" && rec.State != stateCommitted) {
			l.opts.Logf("ledger: %s: skipping corrupt line %d", l.opts.Path, lineNo)
			return
		}
		switch rec.State {
		case stateReserved:
			l.applyReserveLocked(rec)
		case stateCommitted:
			l.applyCommitLocked(rec)
		case stateRefunded:
			l.applyRefundLocked(rec)
		case stateForfeited:
			l.applyForfeitLocked(rec)
		default:
			l.opts.Logf("ledger: %s: skipping unknown state %q on line %d", l.opts.Path, rec.State, lineNo)
		}
	})
}
