package privim

import "fmt"

// CanceledError reports a training run stopped early because its context
// was canceled or its deadline expired. The DP-SGD loop only honors
// cancellation between iterations and during the per-sample gradient
// pass (never after the noisy update has been applied), so the run
// stopped after exactly Iter completed iterations. Train returns it
// together with the Result of those iterations, whose EpsilonSpent is
// the ε they released. CheckpointPath, when non-empty, is a final
// checkpoint written at the stop point, from which a rerun resumes
// bit-for-bit.
//
// Unwrap yields the context error, so errors.Is(err, context.Canceled)
// works through it.
type CanceledError struct {
	// Iter is the number of completed DP-SGD iterations; Total is the
	// configured count.
	Iter, Total int
	// CheckpointPath is the final checkpoint written on cancel ("" when
	// no checkpoint directory is configured, Iter is 0, or the save
	// failed).
	CheckpointPath string
	// Err is the underlying context error.
	Err error
}

// Error implements error.
func (e *CanceledError) Error() string {
	return fmt.Sprintf("privim: training canceled after %d/%d iterations: %v", e.Iter, e.Total, e.Err)
}

// Unwrap returns the context error.
func (e *CanceledError) Unwrap() error { return e.Err }
