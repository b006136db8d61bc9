// Package invariant implements runtime structural validators for the
// postmortem representation and its outputs. The paper's speedups rest
// on shared-structure tricks — temporal CSR with local vertex
// relabeling (Sec. 4.1, Fig. 3), warm-started vectors (Sec. 4.2,
// Eq. 4), and many windows' sweeps sharing one multi-window graph
// (Sec. 4.4) — exactly the kind of layout where a
// silent indexing or aliasing bug produces plausible-but-wrong ranks.
// These validators are callable from tests, fuzz targets, and the
// opt-in core.Config.Validate engine hook; see DESIGN.md for the
// catalog mapping each check to the paper section it protects.
package invariant

import (
	"errors"
	"fmt"
	"math"
)

// DefaultRankTol is the tolerance used for the rank-vector
// stochasticity check: the kernel renormalizes every window's vector
// once when the window finishes, so it accumulates only rounding error
// and a generous absolute budget suffices.
const DefaultRankTol = 1e-8

// maxViolations bounds how many violations a single check reports; a
// corrupt structure usually violates everything at once.
const maxViolations = 8

// violations accumulates check failures up to maxViolations.
type violations struct {
	errs      []error
	truncated bool
}

func (v *violations) addf(format string, args ...interface{}) {
	if len(v.errs) >= maxViolations {
		v.truncated = true
		return
	}
	v.errs = append(v.errs, fmt.Errorf(format, args...))
}

func (v *violations) err() error {
	if len(v.errs) == 0 {
		return nil
	}
	if v.truncated {
		v.errs = append(v.errs, errors.New("invariant: further violations truncated"))
	}
	return errors.Join(v.errs...)
}

// CheckRanks validates a solved PageRank vector over a window's local
// vertex set: every entry finite and non-negative, exactly zero mass
// when the window is empty, and otherwise exactly active positive
// entries summing to 1 within tol (Sec. 4.2: the kernel's Finalize
// renormalizes the active entries once). tol <= 0 selects
// DefaultRankTol.
func CheckRanks(ranks []float64, active int32, tol float64) error {
	if tol <= 0 {
		tol = DefaultRankTol
	}
	var v violations
	var sum float64
	var positive int32
	for i, r := range ranks {
		switch {
		case math.IsNaN(r) || math.IsInf(r, 0):
			v.addf("invariant: rank[%d] = %v is not finite", i, r)
		case r < 0:
			v.addf("invariant: rank[%d] = %v is negative", i, r)
		case r > 0:
			positive++
		}
		sum += r
	}
	if active == 0 {
		if sum != 0 {
			v.addf("invariant: empty window carries rank mass %v", sum)
		}
		return v.err()
	}
	if positive != active {
		v.addf("invariant: %d positive ranks for %d active vertices", positive, active)
	}
	if d := math.Abs(sum - 1); d > tol {
		v.addf("invariant: rank mass %v deviates from 1 by %v (tol %v)", sum, d, tol)
	}
	return v.err()
}
