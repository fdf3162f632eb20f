package predict

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"spatialdue/internal/ndarray"
)

// SharedStats is the engine-maintained, array-wide statistical state the
// global-coupled predictors need: the least-squares Moments behind
// GlobalRegression and the dataset (min, max) behind Random. A recovery that
// creates a fresh Env per element pays an O(N) array scan for either; the
// shared state is built once per field version and then maintained
// incrementally, so every subsequent global-regression prediction and range
// query is O(1).
//
// Snapshot model. The statistics are computed over a value snapshot taken at
// creation (and at every Rebuild), not over the live array. This buys two
// properties the lock-striped engine needs:
//
//   - Robustness: a DUE overwrites a cell with garbage before anyone can
//     read its original value. Excluding the cell subtracts its *snapshot*
//     contribution — exactly what was added — so the moments stay exact no
//     matter what the live cell holds.
//   - Race freedom and determinism: concurrent recoveries in disjoint
//     stripes write the live array; all statistic reads and rescans go to
//     the immutable snapshot, so they neither race nor depend on scheduling.
//
// Exclusion model. Cells are excluded the moment they are reported corrupt
// (the engine calls Exclude when it quarantines an offset). Repaired cells
// are NOT re-admitted incrementally: re-admission order would depend on
// scheduling, and concurrent recoveries must read bit-identical statistics
// regardless of which stripe finishes first. A repaired cell re-enters the
// statistics only at the next Rebuild — an explicit full refresh the engine
// runs under all stripe locks when the protected field is replaced. Between
// rebuilds the fit simply runs over slightly fewer rows, which is exactly
// the "fit excluding the corrupted neighborhood" the recovery math wants.
//
// All methods are safe for concurrent use.
type SharedStats struct {
	mu sync.Mutex
	a  *ndarray.Array

	snap     []float64 // cell values as of the last Rebuild
	built    bool      // moments+range computed over snap
	excluded map[int]struct{}

	mom *Moments

	// Range over the non-excluded snapshot cells. rangeDirty is set when an
	// excluded cell was the current argmin/argmax (recomputing requires a
	// rescan, deferred to the next Range call).
	rangeOK    bool
	rangeDirty bool
	min, max   float64

	// Scratch for PredictExcluding and sortedExcluded (guarded by mu).
	phi, xtx, xtv, solveM, solveX []float64
	exclBuf                       []int
}

// NewSharedStats snapshots a's current values (which must be trustworthy:
// call at registration or right after a field upload) and returns empty
// shared state for them. Moments and range are computed lazily on first
// use, so arrays that never see a global-coupled method never pay the
// moment build.
func NewSharedStats(a *ndarray.Array) *SharedStats {
	s := &SharedStats{a: a, excluded: map[int]struct{}{}}
	s.resnapshot()
	return s
}

// resnapshot copies the live array into the snapshot. Caller must guarantee
// the live array is quiescent (the engine holds every stripe). An array whose
// length no longer matches the snapshot is a bug upstream (arrays do not
// resize): the build walks the snapshot by the array's shape, so it panics
// here rather than fit over a prefix.
func (s *SharedStats) resnapshot() {
	if s.snap == nil {
		s.snap = make([]float64, s.a.Len())
	}
	if s.a.Len() != len(s.snap) {
		panic(fmt.Sprintf("predict: SharedStats snapshot holds %d cells, the array %d", len(s.snap), s.a.Len()))
	}
	copy(s.snap, s.a.Data())
}

// Exclude removes the cells at offs from the statistics, in order,
// subtracting each cell's snapshot contribution. Already-excluded offsets
// are skipped, so pre-quarantined cells and batch members may be reported
// more than once; call order is otherwise significant bit-wise (floating
// point subtraction does not commute), so the engine always excludes in
// submission order.
func (s *SharedStats) Exclude(offs ...int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, off := range offs {
		if off < 0 || off >= len(s.snap) {
			continue
		}
		if _, dup := s.excluded[off]; dup {
			continue
		}
		s.excluded[off] = struct{}{}
		if !s.built {
			continue // the lazy build will skip it
		}
		v := s.snap[off]
		s.mom.SubElementValue(s.a, off, v)
		if s.rangeOK && !s.rangeDirty && !math.IsNaN(v) {
			if v <= s.min || v >= s.max {
				s.rangeDirty = true
			}
		}
	}
}

// Readmit reverses Exclude for a cell whose recovery was never admitted
// (the service un-quarantines an element after a rejected submission): the
// cell's snapshot contribution is added back, restoring the pre-Exclude
// statistics. This is the one exception to the "no incremental re-admission"
// rule above — it runs only on the rejection path, before any recovery that
// could observe the statistics has been admitted for the cell, so the
// determinism argument is unaffected. Offsets that are not currently
// excluded are ignored.
//
// Bit-exactness caveat: subtract-then-add of the same snapshot value leaves
// each moment within one rounding step of its original value, not
// necessarily bit-identical; the fit difference is far below verification
// tolerances.
func (s *SharedStats) Readmit(off int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if off < 0 || off >= len(s.snap) {
		return
	}
	if _, ok := s.excluded[off]; !ok {
		return
	}
	delete(s.excluded, off)
	if !s.built {
		return // the lazy build will include it
	}
	v := s.snap[off]
	s.mom.AddElementValue(s.a, off, v)
	if s.rangeOK && !s.rangeDirty && !math.IsNaN(v) {
		if math.IsNaN(s.min) {
			s.min, s.max = v, v
		} else {
			if v < s.min {
				s.min = v
			}
			if v > s.max {
				s.max = v
			}
		}
	}
}

// Excluded reports whether off is currently excluded from the statistics.
func (s *SharedStats) Excluded(off int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.excluded[off]
	return ok
}

// ExcludedCount returns the number of excluded cells (repaired cells stay
// excluded until Rebuild; exported so operators can watch fit drift).
func (s *SharedStats) ExcludedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.excluded)
}

// Rebuild re-snapshots the live array, re-admitting every previously
// excluded (now repaired) cell and excluding exactly the offsets in still:
// the cells that remain quarantined. The caller must hold whatever locks
// make a full-array read safe (the engine takes every stripe).
func (s *SharedStats) Rebuild(still []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resnapshot()
	s.excluded = make(map[int]struct{}, len(still))
	for _, off := range still {
		if off >= 0 && off < len(s.snap) {
			s.excluded[off] = struct{}{}
		}
	}
	s.built = false
	s.rangeOK = false
	s.rangeDirty = false
	s.mom = nil
}

// Prepare forces the lazy build now. The batch engine calls it before
// fanning clusters out so the O(N) scan happens once, on one goroutine,
// instead of inside whichever cluster asks first.
func (s *SharedStats) Prepare() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.build()
}

// build computes moments and range over the snapshot, skipping excluded
// cells, in one pass (Moments.accumulate). Caller holds mu.
func (s *SharedStats) build() {
	if s.built {
		return
	}
	s.mom = newMoments(s.a)
	s.min, s.max = s.mom.accumulate(s.snap, s.sortedExcluded())
	s.rangeOK = true
	s.rangeDirty = false
	s.built = true
}

// sortedExcluded returns the excluded offsets in ascending order, the form
// the snapshot walks merge against. Caller holds mu.
func (s *SharedStats) sortedExcluded() []int {
	excl := s.exclBuf[:0]
	for off := range s.excluded {
		excl = append(excl, off)
	}
	slices.Sort(excl)
	s.exclBuf = excl
	return excl
}

// rescanRangeLocked recomputes (min, max) over the non-excluded, non-NaN
// snapshot cells. Caller holds mu.
func (s *SharedStats) rescanRangeLocked() {
	s.min, s.max = rangeExcluding(s.snap, s.sortedExcluded())
	s.rangeOK = true
	s.rangeDirty = false
}

// Range returns the cached (min, max) over the non-excluded snapshot cells,
// rescanning only when an exclusion invalidated the cached extrema.
func (s *SharedStats) Range() (min, max float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.build()
	if !s.rangeOK || s.rangeDirty {
		s.rescanRangeLocked()
	}
	return s.min, s.max
}

// PredictExcluding evaluates the global least-squares fit at idx, excluding
// idx itself and every excluded cell, in O(p^2) work (p = NumDims+1): the
// shared moments are copied and down-dated by the one extra row. When idx
// is already excluded (the usual case: the recovery target is quarantined)
// no down-date is needed at all.
func (s *SharedStats) PredictExcluding(idx []int) (float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.build()

	m := s.mom
	p := m.p
	if cap(s.phi) < p {
		s.phi = make([]float64, p)
		s.xtx = make([]float64, p*p)
		s.xtv = make([]float64, p)
		s.solveM = make([]float64, p*p)
		s.solveX = make([]float64, p)
	}
	phi := s.phi[:p]
	xtx := s.xtx[:p*p]
	xtv := s.xtv[:p]
	m.features(idx, phi)
	copy(xtx, m.xtx)
	copy(xtv, m.xtv)

	off := s.a.Offset(idx...)
	if _, already := s.excluded[off]; !already {
		v := s.snap[off]
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				xtx[i*p+j] -= phi[i] * phi[j]
			}
			xtv[i] -= phi[i] * v
		}
	}
	beta, ok := solveSymInto(s.solveM[:p*p], s.solveX[:p], xtx, xtv, p)
	if !ok {
		return 0, ErrUnsupported
	}
	return dot(beta, phi), nil
}
