package core

import (
	"errors"
	"fmt"
	"math"

	"spatialdue/internal/predict"
	"spatialdue/internal/registry"
)

// Reconstruction verification: the paper's pipeline trusts whatever value a
// predictor produces, but a predictor fed unlucky data (a rough field, a
// half-masked stencil, a pathological regression fit) can return something
// wildly implausible without erroring. Before a reconstruction is written
// into application state it must pass a plausibility test:
//
//  1. finite — NaN/Inf never enters the array;
//  2. inside the allocation's registered ValueRange, when one was supplied
//     at Protect time (domain knowledge: densities are non-negative, ...);
//  3. neighbor-consistent — within verifySpread times the local neighbor
//     spread: the usable (unmasked, finite) values within verifyRadius of
//     the target define an envelope [min, max], and the reconstruction
//     must fall inside it widened by verifySpread times its width.
//
// A value failing any test is not written; the supervisor escalates to the
// next rung of the recovery ladder instead (see escalate.go).

const (
	// verifySpread is the slack multiplier on the neighbor envelope: a
	// reconstruction must lie within [min - F*spread, max + F*spread] of
	// the usable neighbors.
	verifySpread = 8.0
	// verifyRadius is the Chebyshev radius of the verification
	// neighborhood (inside the stripe reach bound; see stripes.go).
	verifyRadius = 2
	// verifyMinNeighbors is the fewest usable neighbors the spread test
	// runs on; below it the test is skipped (there is nothing to be
	// consistent with).
	verifyMinNeighbors = 2
)

// ErrVerifyFailed marks a reconstruction rejected by plausibility
// verification (non-finite, outside the registered ValueRange, or outside
// the neighbor envelope). Every verification failure in a ladder climb
// matches it via errors.Is, including through the final
// ErrCheckpointRestartRequired wrap, so remote callers can distinguish "the
// math produced garbage" from "no method applies".
var ErrVerifyFailed = errors.New("core: reconstruction failed verification")

// errImplausible tags verification failures so the ladder can distinguish
// them from prediction errors in audit output.
type errImplausible struct{ msg string }

func (e errImplausible) Error() string { return "implausible reconstruction: " + e.msg }

// Unwrap ties every verification failure to the ErrVerifyFailed sentinel.
func (e errImplausible) Unwrap() error { return ErrVerifyFailed }

// verifyValue checks a candidate reconstruction v for the element at
// idx/off. A nil return means the value may be written in place.
func verifyValue(env *predict.Env, idx []int, off int, v float64, vr *registry.ValueRange) error {
	if !isFinite(v) {
		return errImplausible{fmt.Sprintf("non-finite value %v", v)}
	}
	if vr != nil && !vr.Contains(v) {
		return errImplausible{fmt.Sprintf("value %g outside registered range [%g, %g]", v, vr.Lo, vr.Hi)}
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	n := 0
	rows := env.PatchRows(idx, verifyRadius)
	for rows.Next() {
		for noff, end := rows.Off, rows.Off+rows.Len; noff < end; noff++ {
			if noff == off || env.Masked(noff) {
				continue
			}
			x := env.A.AtOffset(noff)
			if !isFinite(x) {
				continue
			}
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
			n++
		}
	}
	if n < verifyMinNeighbors {
		// Too few trustworthy neighbors to define an envelope; the finite
		// and range checks above are all that can be said.
		return nil
	}
	spread := hi - lo
	slack := verifySpread * spread
	if spread == 0 {
		// Locally constant data: allow modest drift around the constant so
		// exact interpolants pass while garbage is still rejected.
		slack = math.Max(1e-9, 1e-6*math.Abs(hi))
	}
	if v < lo-slack || v > hi+slack {
		return errImplausible{fmt.Sprintf(
			"value %g outside neighbor envelope [%g, %g] (spread %g, factor %g, %d neighbors)",
			v, lo-slack, hi+slack, spread, verifySpread, n)}
	}
	return nil
}
