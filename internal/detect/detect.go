// Package detect implements the paper's second detection path (Section
// 3.1): point-wise data-analytic inspectors that exploit the spatial and
// temporal smoothness of HPC simulation state to flag elements whose values
// fall outside a plausible range. The designs follow the detectors the
// paper cites: the spatial-smoothness detector of Bautista-Gomez & Cappello
// and the adaptive impact-driven (AID) temporal detector of Di & Cappello.
//
// Detectors localize corruption; they do not repair it. The recovery engine
// (internal/core) feeds the flagged elements to the spatial predictors.
package detect

import (
	"math"

	"spatialdue/internal/ndarray"
)

// Detector scans a snapshot of application state and returns the linear
// offsets of elements suspected to be corrupted.
type Detector interface {
	// Name identifies the detector in reports.
	Name() string
	// Scan returns the suspect linear offsets, in increasing order.
	Scan(a *ndarray.Array) []int
}

// RangeDetector flags elements outside a plausible value interval. The
// interval comes from domain knowledge (or a clean snapshot's MinMax),
// expanded by a relative margin so legitimate evolution between time steps
// does not trip it.
type RangeDetector struct {
	// Lo and Hi bound plausible values.
	Lo, Hi float64
	// Margin expands the interval by Margin*(Hi-Lo) on each side.
	Margin float64
}

// Name implements Detector.
func (*RangeDetector) Name() string { return "range" }

// Scan implements Detector.
func (r *RangeDetector) Scan(a *ndarray.Array) []int {
	pad := r.Margin * (r.Hi - r.Lo)
	lo, hi := r.Lo-pad, r.Hi+pad
	var out []int
	for off, v := range a.Data() {
		if math.IsNaN(v) || v < lo || v > hi {
			out = append(out, off)
		}
	}
	return out
}

// SpatialDetector flags elements that deviate from the mean of their face
// neighbors by more than Theta times the dataset's typical neighbor
// difference (a robust spatial-smoothness test). A small floor proportional
// to the value range keeps constant regions from flagging rounding noise.
type SpatialDetector struct {
	// Theta is the deviation multiplier; values around 5-20 trade detection
	// recall against false positives. Zero means 10.
	Theta float64
	// Floor is the minimum absolute deviation flagged, as a fraction of the
	// dataset value range. Zero means 1e-3.
	Floor float64
}

// Name implements Detector.
func (*SpatialDetector) Name() string { return "spatial" }

// Scan implements Detector.
func (s *SpatialDetector) Scan(a *ndarray.Array) []int {
	theta := s.Theta
	if theta == 0 {
		theta = 10
	}
	floorFrac := s.Floor
	if floorFrac == 0 {
		floorFrac = 1e-3
	}

	// Pass 1: typical absolute difference between linear neighbors, which
	// approximates the dataset's smoothness scale in one cache-friendly
	// sweep.
	data := a.Data()
	if len(data) < 2 {
		return nil
	}
	sumAbs := 0.0
	n := 0
	for i := 1; i < len(data); i++ {
		d := math.Abs(data[i] - data[i-1])
		if !math.IsNaN(d) && !math.IsInf(d, 0) {
			sumAbs += d
			n++
		}
	}
	scale := sumAbs / float64(n)
	floor := floorFrac * a.ValueRange()
	bound := theta*scale + floor
	if bound == 0 || math.IsNaN(bound) {
		bound = math.SmallestNonzeroFloat64
	}

	// Pass 2: flag elements deviating from their face-neighbor mean.
	dims := a.NumDims()
	idx := make([]int, dims)
	nb := make([]int, dims)
	dev := map[int]float64{}
	var flagged []int
	for off := 0; off < a.Len(); off++ {
		v := data[off]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			flagged = append(flagged, off)
			dev[off] = math.Inf(1)
			continue
		}
		a.CoordsInto(idx, off)
		copy(nb, idx)
		sum, cnt := 0.0, 0
		for d := 0; d < dims; d++ {
			for _, delta := range [2]int{-1, 1} {
				nb[d] = idx[d] + delta
				if nb[d] >= 0 && nb[d] < a.Dim(d) {
					u := a.At(nb...)
					if !math.IsNaN(u) && !math.IsInf(u, 0) {
						sum += u
						cnt++
					}
				}
			}
			nb[d] = idx[d]
		}
		if cnt == 0 {
			continue
		}
		if d := math.Abs(v - sum/float64(cnt)); d > bound {
			flagged = append(flagged, off)
			dev[off] = d
		}
	}

	// Non-maximum suppression: a single corrupted element drags the
	// neighbor means of its (healthy) face neighbors past the bound too.
	// Within any cluster of adjacent flags, only the most deviant cell is
	// the corruption; suppress flags that have a strictly more deviant
	// flagged face neighbor (ties break toward the lower offset), so the
	// repairer never "fixes" a healthy cell from a still-corrupted one.
	var out []int
	for _, off := range flagged {
		d := dev[off]
		a.CoordsInto(idx, off)
		copy(nb, idx)
		suppressed := false
		for dd := 0; dd < dims && !suppressed; dd++ {
			for _, delta := range [2]int{-1, 1} {
				nb[dd] = idx[dd] + delta
				if nb[dd] < 0 || nb[dd] >= a.Dim(dd) {
					continue
				}
				noff := a.Offset(nb...)
				nd, ok := dev[noff]
				if !ok {
					continue
				}
				if nd > d || (nd == d && noff < off) {
					suppressed = true
					break
				}
			}
			nb[dd] = idx[dd]
		}
		if !suppressed {
			out = append(out, off)
		}
	}
	return out
}

// TemporalDetector is an AID-style detector: it keeps the last three
// snapshots of the protected array, extrapolates each element forward with
// the best of three temporal models (last value, linear, quadratic), and
// flags elements whose new value misses the prediction by more than an
// adaptively learned bound. The bound for step t is Lambda times the
// largest prediction miss observed at step t-1 (impact-driven relaxation),
// with a floor proportional to the value range.
type TemporalDetector struct {
	// Lambda relaxes the adaptive bound; the AID paper uses small factors
	// above 1. Zero means 3.
	Lambda float64
	// FloorFrac is the minimum bound as a fraction of the snapshot value
	// range. Zero means 1e-4.
	FloorFrac float64

	hist  []*ndarray.Array // up to 3 previous snapshots, newest first
	bound float64          // adaptive bound learned from the previous step
	order int              // temporal model order chosen last step (0,1,2)
}

// NewTemporal creates a temporal detector with the given relaxation factor.
func NewTemporal(lambda float64) *TemporalDetector {
	return &TemporalDetector{Lambda: lambda}
}

// Name implements Detector.
func (*TemporalDetector) Name() string { return "temporal-AID" }

// Scan implements Detector by delegating to Observe without recording the
// snapshot (read-only scan).
func (t *TemporalDetector) Scan(a *ndarray.Array) []int {
	suspects, _, _ := t.predictAndFlag(a)
	return suspects
}

// Observe checks snapshot a against the temporal prediction, returns the
// suspect offsets, and then absorbs a into the history (call once per
// application time step, after the detector had a chance to trigger
// recovery).
//
// The adaptive bound for the next step is Lambda times the *second-largest*
// prediction miss of this step: under the paper's single-element corruption
// model the largest miss may be the corruption itself, while the second
// largest tracks the application's legitimate evolution. This keeps the
// bound from ratcheting down when large legitimate changes get flagged
// (which would lock the detector into mass false positives).
func (t *TemporalDetector) Observe(a *ndarray.Array) []int {
	suspects, miss1, miss2 := t.predictAndFlag(a)
	if len(t.hist) > 0 {
		// Only adapt when a prediction was actually possible.
		lambda := t.Lambda
		if lambda == 0 {
			lambda = 3
		}
		floor := t.FloorFrac
		if floor == 0 {
			floor = 1e-4
		}
		ref := miss2
		if ref == 0 {
			ref = miss1
		}
		t.bound = lambda*ref + floor*a.ValueRange()
	}
	t.push(a.Clone())
	return suspects
}

// predictAndFlag returns suspects for snapshot a together with the largest
// and second-largest prediction misses over all finite elements.
func (t *TemporalDetector) predictAndFlag(a *ndarray.Array) (suspects []int, miss1, miss2 float64) {
	if len(t.hist) == 0 {
		return nil, 0, 0
	}
	order := t.order
	if order >= len(t.hist) {
		order = len(t.hist) - 1
	}
	bound := t.bound
	if bound == 0 {
		// First checked step: nothing learned yet; be permissive.
		bound = math.Inf(1)
	}
	data := a.Data()
	var sumErr [3]float64
	for off, v := range data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			suspects = append(suspects, off)
			continue
		}
		pred := t.extrapolate(order, off)
		miss := math.Abs(v - pred)
		if miss > miss1 {
			miss1, miss2 = miss, miss1
		} else if miss > miss2 {
			miss2 = miss
		}
		if miss > bound {
			suspects = append(suspects, off)
			continue
		}
		// Track which model would have done best, for the next step.
		for o := 0; o < len(t.hist) && o < 3; o++ {
			sumErr[o] += math.Abs(v - t.extrapolate(o, off))
		}
	}
	best := 0
	for o := 1; o < len(t.hist) && o < 3; o++ {
		if sumErr[o] < sumErr[best] {
			best = o
		}
	}
	t.order = best
	return suspects, miss1, miss2
}

// extrapolate predicts element off from history with the given model order.
func (t *TemporalDetector) extrapolate(order, off int) float64 {
	h0 := t.hist[0].Data()[off]
	switch {
	case order <= 0 || len(t.hist) < 2:
		return h0 // last value
	case order == 1 || len(t.hist) < 3:
		h1 := t.hist[1].Data()[off]
		return 2*h0 - h1 // linear
	default:
		h1 := t.hist[1].Data()[off]
		h2 := t.hist[2].Data()[off]
		return 3*h0 - 3*h1 + h2 // quadratic
	}
}

func (t *TemporalDetector) push(a *ndarray.Array) {
	t.hist = append([]*ndarray.Array{a}, t.hist...)
	if len(t.hist) > 3 {
		t.hist = t.hist[:3]
	}
}

var (
	_ Detector = (*RangeDetector)(nil)
	_ Detector = (*SpatialDetector)(nil)
	_ Detector = (*TemporalDetector)(nil)
)
