package core

import (
	"errors"
	"fmt"
	"sync"
)

// runValidator collects invariant violations found while windows solve.
// Window solves run concurrently on pool workers in the window-level and
// nested modes, so collection is mutex-guarded.
type runValidator struct {
	mu   sync.Mutex
	errs []error
}

func (v *runValidator) addf(format string, args ...interface{}) {
	v.mu.Lock()
	v.errs = append(v.errs, fmt.Errorf(format, args...))
	v.mu.Unlock()
}

func (v *runValidator) err() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	return errors.Join(v.errs...)
}
