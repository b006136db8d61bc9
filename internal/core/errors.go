package core

import (
	"errors"
	"fmt"
)

// RecoveredPanic wraps a panic value caught by the solve stage's
// per-window isolation (or a sched.PanicError propagated from a nested
// vertex loop) so it can travel as an ordinary error through the
// retry/degrade/quarantine machinery.
type RecoveredPanic struct {
	// Value is the original panic value.
	Value any
}

// Error renders the recovered panic.
func (e *RecoveredPanic) Error() string { return fmt.Sprintf("core: recovered panic: %v", e.Value) }

// Unwrap exposes an underlying error panic value to errors.Is/As.
func (e *RecoveredPanic) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// recoveredError converts a recover() value into an error.
func recoveredError(rec any) error { return &RecoveredPanic{Value: rec} }

// WindowError reports one window's solve failing terminally: every
// retry (and, unless disabled, the serial-SpMV degrade attempt) failed.
// The window is quarantined — its WindowResult carries WindowFailed and
// this error — and, under Config.Fault.FailFast, the run aborts with
// the first WindowError instead.
type WindowError struct {
	// Window is the global index of the failed window.
	Window int
	// Attempts is how many solve attempts were made (including the
	// degrade attempt when one ran).
	Attempts int
	// Panicked reports whether any attempt failed by panic (as opposed
	// to a returned error).
	Panicked bool
	// Err is the terminal attempt's failure.
	Err error
}

// Error renders the quarantine with its cause.
func (e *WindowError) Error() string {
	return fmt.Sprintf("core: window %d failed after %d attempts: %v", e.Window, e.Attempts, e.Err)
}

// Unwrap exposes the terminal cause to errors.Is/As.
func (e *WindowError) Unwrap() error { return e.Err }

// StageError reports a pipeline stage (build, plan, publish) failing by
// panic: the stage's recover converts the crash into a structured error
// so a corrupt input segment or a stage bug fails the one run, not the
// process.
type StageError struct {
	// Stage names the pipeline stage ("build", "plan", "publish").
	Stage string
	// Err is the recovered cause (usually a *RecoveredPanic).
	Err error
}

// Error renders the stage failure.
func (e *StageError) Error() string { return fmt.Sprintf("core: %s stage: %v", e.Stage, e.Err) }

// Unwrap exposes the cause to errors.Is/As.
func (e *StageError) Unwrap() error { return e.Err }

// recoverStage converts a stage panic into a *StageError on the named
// return. Use as: defer recoverStage("build", &err).
func recoverStage(stage string, err *error) {
	if rec := recover(); rec != nil {
		*err = &StageError{Stage: stage, Err: recoveredError(rec)}
	}
}

// ErrCanceled is the sentinel a canceled solve wraps: callers match it
// with errors.Is regardless of whether the cancellation came from a
// deadline, an explicit cancel, or a signal-driven shutdown.
var ErrCanceled = errors.New("core: run canceled")

// ErrConcurrentRun is returned when Engine.Run is entered while another
// Run on the same engine is still in flight. The engine's scratch arena
// is single-run state; sequential re-runs are supported, overlapping
// ones are a caller bug.
var ErrConcurrentRun = errors.New("core: Engine.Run called concurrently on the same engine")

// CanceledError reports a solve cut short by context cancellation. It
// carries how far the run got so callers (pmrank's SIGINT handler, a
// serving layer's request teardown) can surface partial progress.
// errors.Is matches both ErrCanceled and the context's own error
// (context.Canceled or context.DeadlineExceeded) through Cause.
type CanceledError struct {
	// Completed is the number of windows fully solved before the cancel
	// took effect.
	Completed int
	// Total is the number of windows the run was asked to solve.
	Total int
	// Cause is the context's error at the time the cancel was observed.
	Cause error
	// Checkpoint is the checkpoint directory holding the completed
	// windows, when the run had checkpointing enabled ("" otherwise).
	// Every window counted in Completed was flushed to it before the
	// count moved (barring checkpoint write errors, which are counted in
	// the fault metrics), so a resumed run re-solves only the remainder.
	Checkpoint string
}

// Error renders the cancellation with its partial progress.
func (e *CanceledError) Error() string {
	return fmt.Sprintf("core: run canceled after %d/%d windows: %v", e.Completed, e.Total, e.Cause)
}

// Unwrap exposes both the ErrCanceled sentinel and the underlying
// context error to errors.Is / errors.As.
func (e *CanceledError) Unwrap() []error {
	if e.Cause == nil {
		return []error{ErrCanceled}
	}
	return []error{ErrCanceled, e.Cause}
}
