package serve

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"privim/internal/graph"
	"privim/internal/nn"
	core "privim/internal/privim"
)

// Job-table persistence. With a journal directory configured, the job
// manager appends one fsynced JSON line per state transition to
// <journalDir>/jobs.jsonl — an append-only table where the last record
// per job ID wins. On daemon restart, RecoverJobs replays the table:
// finished jobs come back as history, queued jobs requeue, and jobs that
// were running when the process died resume from their last good
// training checkpoint (<journalDir>/checkpoints/<job-id>) — or are
// marked failed when no recoverable checkpoint survived. Corrupt table
// lines (torn writes) are skipped, never fatal.

// jobRecord is one line of the job table.
type jobRecord struct {
	Req    TrainRequest `json:"req"`
	Status JobStatus    `json:"status"`
}

func (m *jobManager) jobTablePath() string {
	return filepath.Join(m.journalDir, "jobs.jsonl")
}

// checkpointDir is where one job's training checkpoints live.
func (m *jobManager) checkpointDir(id string) string {
	return filepath.Join(m.journalDir, "checkpoints", id)
}

// persistLocked durably appends j's current state to the job table; the
// caller holds m.mu, which also serializes writers. Persistence failures
// are logged, not fatal — the daemon keeps serving with in-memory state.
func (m *jobManager) persistLocked(j *job) {
	if m.journalDir == "" {
		return
	}
	if err := nn.AppendJSON(m.jobTablePath(), jobRecord{Req: j.req, Status: j.status}); err != nil {
		m.logf("serve: job table: append %s: %v", j.status.ID, err)
	}
}

// loadJobTable replays the table, returning the last record per job ID
// plus IDs in first-appearance (submission) order. Unparseable lines are
// skipped with a log line.
func loadJobTable(path string, logf func(string, ...any)) (map[string]jobRecord, []string) {
	recs := make(map[string]jobRecord)
	var order []string
	err := nn.ReplayLines(path, func(lineNo int, line []byte) {
		var rec jobRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.Status.ID == "" {
			logf("serve: job table %s: skipping corrupt line %d", path, lineNo)
			return
		}
		if _, seen := recs[rec.Status.ID]; !seen {
			order = append(order, rec.Status.ID)
		}
		recs[rec.Status.ID] = rec
	})
	if err != nil {
		logf("serve: job table %s: %v (recovered %d job(s) before the error)", path, err, len(order))
	}
	return recs, order
}

// recover replays the job table into the manager. lookup resolves a
// graph name to its stored graph (nil when the graph no longer exists).
// Recovered queued jobs bypass the queue-capacity check: they were
// admitted before the restart and rejecting them now would silently drop
// accepted work.
func (m *jobManager) recover(lookup func(string) *graph.Graph) (requeued, failed int) {
	if m.journalDir == "" {
		return 0, 0
	}
	recs, order := loadJobTable(m.jobTablePath(), m.logf)
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, id := range order {
		rec := recs[id]
		if _, exists := m.jobs[id]; exists {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(id, "job-%d", &n); err == nil && n > m.nextID {
			m.nextID = n
		}
		j := &job{status: rec.Status, req: rec.Req}
		if j.status.Tenant == "" {
			// Pre-ledger job tables carry no tenant; their spend belongs to
			// the default account.
			j.status.Tenant = DefaultTenant
		}
		m.jobs[id] = j
		m.order = append(m.order, id)
		switch rec.Status.State {
		case JobQueued, JobRunning:
			interrupted := rec.Status.State == JobRunning
			fail := func(reason string) {
				j.status.State = JobFailed
				j.status.Error = reason
				j.status.Finished = time.Now()
				failed++
				m.metrics.Counter("serve.jobs.orphaned").Inc()
				// Settle the job's replayed reservation: a job that never
				// ran spent nothing (refund); an interrupted run's true
				// spend is unknowable, so its full reservation is forfeited
				// — the conservative resolution. Ledger before job table,
				// as everywhere.
				if m.budget != nil {
					if interrupted {
						m.budget.Forfeit(id)
					} else {
						m.budget.Refund(id)
					}
				}
				m.persistLocked(j)
				m.logf("serve: recovery: %s failed: %s", id, reason)
			}
			g := lookup(rec.Req.Graph)
			if g == nil {
				fail(fmt.Sprintf("graph %q not available after restart", rec.Req.Graph))
				continue
			}
			if interrupted && !core.HasCheckpoint(m.checkpointDir(id)) {
				fail("interrupted before a durable checkpoint; not recoverable")
				continue
			}
			if j.status.Fingerprint == "" {
				j.status.Fingerprint = fmt.Sprintf("%016x", g.Fingerprint())
			}
			j.g = g
			j.status.State = JobQueued
			j.status.Started = time.Time{}
			j.status.Error = ""
			m.pending = append(m.pending, j)
			m.metrics.Gauge("serve.jobs.queued").Inc()
			requeued++
			m.persistLocked(j)
			m.cond.Signal()
			if interrupted {
				m.logf("serve: recovery: %s resuming from checkpoint", id)
			} else {
				m.logf("serve: recovery: %s requeued", id)
			}
		case JobCanceling:
			// A cancel was requested but the daemon died before the trainer
			// stopped, so the partial spend was never committed. Resolve as
			// canceled and forfeit the full reservation — the conservative
			// rule for an unknowable spend, same as an interrupted run. The
			// Forfeit is a no-op when the crash landed after the commit but
			// before the terminal job-table append (terminal refs are
			// idempotent), so replay converges to the same balance.
			j.status.State = JobCanceled
			j.status.Error = "canceled; daemon restarted before the partial spend was committed"
			j.status.Finished = time.Now()
			if m.budget != nil {
				m.budget.Forfeit(id)
			}
			m.persistLocked(j)
			m.logf("serve: recovery: %s canceled (restart during cancellation)", id)
		default:
			// done / failed / canceled: history only.
		}
	}
	return requeued, failed
}

// RecoverJobs replays the persisted job table (see the package comment
// above) after a daemon restart. Call it once, after graphs are loaded —
// recovered jobs resolve their graphs against the current store. It
// returns how many jobs were requeued (including interrupted jobs that
// will resume from checkpoints) and how many could not be recovered.
func (s *Server) RecoverJobs() (requeued, failed int) {
	return s.jobs.recover(func(name string) *graph.Graph {
		e, err := s.graphs.Get(name)
		if err != nil {
			return nil
		}
		return e.g
	})
}
