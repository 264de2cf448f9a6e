package privim

import "fmt"

// CanceledError reports a training run stopped early because its context
// was canceled or its deadline expired. The DP-SGD loop only honors
// cancellation between iterations and during the per-sample gradient
// pass (never after the noisy update has been applied), so the partial
// state is always "exactly Iter completed iterations":
//
//   - Partial.Model holds the parameters after Iter iterations;
//   - Partial.LossHistory holds Iter entries;
//   - Partial.EpsilonSpent is the ε actually spent — the accountant at
//     Iter iterations, not the full-run figure — which is what a budget
//     ledger must commit for the canceled run;
//   - CheckpointPath, when non-empty, is a final checkpoint written at
//     the stop point, from which a rerun resumes bit-for-bit.
//
// Unwrap yields the context error, so errors.Is(err, context.Canceled)
// works through it.
type CanceledError struct {
	// Partial is the result as of the last completed iteration.
	Partial *Result
	// Iter is the number of completed DP-SGD iterations.
	Iter int
	// CheckpointPath is the final checkpoint written on cancel ("" when
	// no checkpoint directory is configured, Iter is 0, or the save
	// failed).
	CheckpointPath string
	// Err is the underlying context error.
	Err error
}

// Error implements error.
func (e *CanceledError) Error() string {
	total := 0
	if e.Partial != nil {
		total = e.Partial.Config.Iterations
	}
	return fmt.Sprintf("privim: training canceled after %d/%d iterations: %v", e.Iter, total, e.Err)
}

// Unwrap returns the context error.
func (e *CanceledError) Unwrap() error { return e.Err }
