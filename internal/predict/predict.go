// Package predict implements the spatial prediction algorithms of Section
// 3.4 of the paper: Zero, Random, Average, the three linearized curve-fit
// predictors (preceding-neighbor, linear, quadratic), the multi-dimensional
// Lorenzo predictors (1 to 4 layers, with all 2^d orientations and automatic
// boundary fallback), global linear regression (SZ-2.0 style), local linear
// regression over a ±3-layer patch, and Lagrange polynomial interpolation.
//
// Every predictor reconstructs the value of a single corrupted array element
// from its spatial neighbors. The corrupted element itself is never read:
// by the experiment contract (Section 4.2), exactly one element is corrupted
// and its location is known, so all other elements are trustworthy.
package predict

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"spatialdue/internal/ndarray"
)

// ErrUnsupported is returned when a predictor cannot be applied at a given
// location (for example, a stencil that does not fit inside the array in any
// orientation).
var ErrUnsupported = errors.New("predict: method unsupported at this location")

// MaxStencilReach is the largest Chebyshev distance, along any single
// dimension, between a predicted element and any element a predictor may
// read. It bounds every stencil in the package:
//
//	Lorenzo (Layers <= 4)        4
//	LorenzoAuto (probe 2 + 3)    5
//	LocalRegression (Radius 3)   3
//	CurveFit (order 2, linear)   3 linearized elements (<= 1 row)
//	Lagrange (default +-2)       2; nearest-fit fallback capped here
//
// Concurrency control (the lock-striped recovery engine in internal/core)
// relies on this bound to prove that recoveries in non-adjacent stripes
// never read each other's neighborhoods, so any new or widened stencil must
// keep within it (or raise it and let the stripe width grow).
const MaxStencilReach = 8

// Env bundles a dataset with the per-dataset state the predictors need:
// the value range (for the Random method), a deterministic random source,
// and an optional cache of global regression moments.
//
// Env snapshots dataset-wide statistics at creation time. The fault
// injection campaigns keep the underlying array pristine (they never write
// the corrupted value into it; predictors are forbidden from reading the
// target element anyway), which keeps the cached statistics exact. Code that
// recovers a genuinely corrupted in-place array (internal/core) must create
// the Env after the corruption and must not call Precompute, so that global
// regression performs an honest full scan that skips the corrupted element.
type Env struct {
	A   *ndarray.Array
	Rng *rand.Rand

	rangeOK  bool
	min, max float64
	mom      *Moments // non-nil after Precompute

	// Mask state: offsets whose stored values are known-garbage (e.g.
	// quarantined multi-DUE neighbors) and must not feed any stencil.
	masked   map[int]bool
	allowed  map[int]bool // overrides masked and mask (seeded cells)
	mask     MaskSource   // live source (engine quarantine set)
	haveMask bool

	// shared, when set, supplies the array-wide statistics (value range,
	// global-regression moments) from an engine-maintained SharedStats
	// instead of per-Env O(N) scans.
	shared *SharedStats

	// Reusable kernel buffers; see scratch.
	sc scratch
}

// MaskSource is a live set of offsets that must not be read — in the engine,
// one array's view of the quarantine set. Both methods answer from the set's
// state at the moment of the call.
type MaskSource interface {
	// Masked reports whether off is in the set.
	Masked(off int) bool
	// AppendMasked appends to dst, in ascending order, every offset of the
	// set inside [lo, hi]. A source that cannot enumerate, or for which
	// enumerating the span costs more than `limit` Masked calls, returns
	// ok=false and the caller asks Masked per offset instead.
	AppendMasked(dst []int, lo, hi, limit int) (out []int, ok bool)
}

// maskFunc adapts a bare predicate (SetMaskFunc) to MaskSource: it answers
// per offset and never enumerates.
type maskFunc func(off int) bool

func (f maskFunc) Masked(off int) bool { return f(off) }

func (f maskFunc) AppendMasked(dst []int, _, _, _ int) ([]int, bool) { return dst, false }

// scratch holds the per-Env buffers that keep the predictor kernels
// allocation-free on the hot path. An Env is single-goroutine; nested
// predictor calls (LorenzoAuto probing Lorenzo, autotune probing everything)
// use disjoint slots so reuse is safe.
type scratch struct {
	// ints backs every NumDims-long coordinate buffer, one slot each (see
	// Env.ints): a fresh Env pays one allocation for all of them.
	ints     []int
	lorSides []bool    // Lorenzo per-dimension feasibility, both sides
	lagNodes []int     // Lagrange fallback nodes (one per node, not per dim)
	excluded []int     // LocalRegression: offsets in the patch it must not read
	probes   []int     // autotune: probe offsets (see Env.Probes)
	fit      []float64 // regression working set (see Env.fitScratch)
}

// The coordinate-scratch slots of scratch.ints.
const (
	slotLorS     = iota // Lorenzo odometer
	slotLorNb           // Lorenzo neighbor index
	slotLorDir          // Lorenzo orientation
	slotLorMaxs         // Lorenzo per-dimension layer counts
	slotAutoIdx         // LorenzoAuto probe coordinates
	slotLagNb           // Lagrange neighbor index
	slotAvgNb           // Average neighbor index
	slotRegIdx          // GlobalRegression scan coordinates
	slotPatchCur        // ndarray.PatchRows odometer (see Env.PatchRows)
	slotProbeIdx        // autotune probe coordinates (see Env.Probes)
	numIntSlots
)

// ints returns coordinate-scratch slot `slot`: NumDims ints, private to the
// slot's user, carved from one lazily allocated slab.
func (e *Env) ints(slot int) []int {
	d := e.A.NumDims()
	if len(e.sc.ints) != numIntSlots*d {
		e.sc.ints = make([]int, numIntSlots*d)
	}
	return e.sc.ints[slot*d : (slot+1)*d : (slot+1)*d]
}

// fitScratch returns the working set of a least-squares fit with p features
// — the feature vector, the normal equations X'X (p*p, row-major) and X'v,
// and solveSymInto's two buffers — carved from one allocation.
func (e *Env) fitScratch(p int) (phi, xtx, xtv, solveM, solveX []float64) {
	if n := 2*p*p + 3*p; len(e.sc.fit) != n {
		e.sc.fit = make([]float64, n)
	}
	buf := e.sc.fit
	phi, buf = buf[:p:p], buf[p:]
	xtx, buf = buf[:p*p:p*p], buf[p*p:]
	xtv, buf = buf[:p:p], buf[p:]
	solveM, solveX = buf[:p*p:p*p], buf[p*p:]
	return phi, xtx, xtv, solveM, solveX
}

// intBuf returns *buf resized (reallocating only on growth) to n elements.
func intBuf(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	return (*buf)[:n]
}

// PatchRows starts a row walk (see ndarray.PatchRows) over the patch of
// Chebyshev radius `radius` around idx, using the Env's odometer scratch.
// One walk at a time per Env: finish (or abandon) it before anything else on
// the Env starts another.
func (e *Env) PatchRows(idx []int, radius int) ndarray.PatchRows {
	return e.A.PatchRows(idx, radius, e.ints(slotPatchCur))
}

// Probes collects the leave-one-out probe points of the auto-tuner around
// idx: the offsets of every cell within Chebyshev distance k except idx
// itself and masked cells (they hold garbage and can be neither probes nor
// stencil inputs), in row-major order. Both results are Env scratch, valid
// until the next Probes call and touched by no predictor: offs may be
// thinned in place, and coord is NumDims ints for the coordinates of the
// probe being predicted.
func (e *Env) Probes(idx []int, k int) (offs, coord []int) {
	skip := e.A.Offset(idx...)
	cells := 1
	for d := range idx {
		lo, hi := e.A.PatchBounds(idx, k, d)
		cells *= hi - lo + 1
	}
	if cap(e.sc.probes) < cells {
		e.sc.probes = make([]int, 0, cells)
	}
	offs = e.sc.probes[:0]
	rows := e.PatchRows(idx, k)
	for rows.Next() {
		for off, end := rows.Off, rows.Off+rows.Len; off < end; off++ {
			if off != skip && !e.Masked(off) {
				offs = append(offs, off)
			}
		}
	}
	e.sc.probes = offs
	return offs, e.ints(slotProbeIdx)
}

// NewEnv wraps a dataset with a deterministic random source. Dataset-wide
// statistics (the value range, the regression moments) are computed lazily
// or on request, so predictors that do not need them stay O(1).
func NewEnv(a *ndarray.Array, seed int64) *Env {
	return &Env{A: a, Rng: rand.New(rand.NewSource(seed))}
}

// SetShared attaches engine-maintained array-wide statistics. While set,
// Range and GlobalRegression read the SharedStats (incrementally maintained,
// O(1) per query) instead of scanning the array per Env — the fix for every
// fresh Env paying an O(N) masked rescan. The shared state's exclusion set
// must cover at least the cells this Env's mask hides (the engine guarantees
// this: both are fed from the quarantine set).
func (e *Env) SetShared(s *SharedStats) { e.shared = s }

// Reseed resets the random source to the same deterministic stream
// NewEnv(a, seed) would produce. Batch recovery shares one Env across
// members and reseeds per member so each reconstruction draws exactly the
// randoms it would have drawn with a private Env.
func (e *Env) Reseed(seed int64) { e.Rng = rand.New(rand.NewSource(seed)) }

// Range returns the dataset's (min, max), computing and caching it on first
// use — the Random predictor's bound (Section 3.4.2). Masked (quarantined)
// cells are excluded so known-garbage values cannot widen the range.
func (e *Env) Range() (min, max float64) {
	if e.shared != nil {
		return e.shared.Range()
	}
	if !e.rangeOK {
		if e.haveMask {
			e.min, e.max = math.NaN(), math.NaN()
			for off := 0; off < e.A.Len(); off++ {
				if e.Masked(off) {
					continue
				}
				v := e.A.AtOffset(off)
				if math.IsNaN(v) {
					continue
				}
				if math.IsNaN(e.min) || v < e.min {
					e.min = v
				}
				if math.IsNaN(e.max) || v > e.max {
					e.max = v
				}
			}
		} else {
			e.min, e.max = e.A.MinMax()
		}
		e.rangeOK = true
	}
	return e.min, e.max
}

// Mask marks offsets as unusable: no predictor will read their stored
// values. Used by the recovery engine to keep quarantined (corrupt but not
// yet repaired) cells out of every stencil, so a multi-element burst never
// feeds known-garbage neighbors into a reconstruction.
func (e *Env) Mask(offs ...int) {
	if e.masked == nil {
		e.masked = map[int]bool{}
	}
	for _, off := range offs {
		e.masked[off] = true
	}
	e.haveMask = true
	e.rangeOK = false
}

// Allow marks offsets as readable again even if Mask or the mask predicate
// covers them — used by burst recovery once a cell has been seeded with a
// provisional estimate and may participate in refining its neighbors.
func (e *Env) Allow(offs ...int) {
	if e.allowed == nil {
		e.allowed = map[int]bool{}
	}
	for _, off := range offs {
		e.allowed[off] = true
	}
	e.rangeOK = false
}

// SetMaskFunc installs a live mask predicate (in addition to any offsets
// passed to Mask). The contract, for the predicate and for SetMaskSource
// alike: nothing is cached across predictions, probes, methods or ladder
// rungs, so a cell the source reports masked before a prediction starts is
// never read by that prediction. Within one prediction the small-stencil
// methods ask before every read; LocalRegression asks once, after it starts
// and before it reads anything (per cell of its patch for a bare predicate).
// Reports are not ordered against array reads, so per-read freshness was
// never a guarantee a caller could use: the window in which a concurrent
// report can be missed is one prediction (<= 1 us) rather than one cell.
func (e *Env) SetMaskFunc(fn func(off int) bool) {
	if fn == nil {
		e.SetMaskSource(nil)
		return
	}
	e.SetMaskSource(maskFunc(fn))
}

// SetMaskSource installs a live mask that can also enumerate a range (the
// recovery engine wires one array's view of its quarantine set here, so
// cells reported corrupt *while a recovery is in flight* are masked from the
// next prediction on). It replaces any predicate or source installed before;
// see SetMaskFunc for the freshness contract.
func (e *Env) SetMaskSource(src MaskSource) {
	e.mask = src
	e.haveMask = e.haveMask || src != nil
	e.rangeOK = false
}

// Masked reports whether the value stored at off must not be used. Without
// Mask/Allow overrides (every engine recovery but a burst, whose seed pass
// allows cells back) it is the source's answer alone.
func (e *Env) Masked(off int) bool {
	if e.masked != nil || e.allowed != nil {
		if e.allowed[off] {
			return false
		}
		if e.masked[off] {
			return true
		}
	}
	return e.mask != nil && e.mask.Masked(off)
}

// appendMaskedIn is the per-prediction form of Masked: it appends to dst, in
// ascending order, the offsets in [lo, hi] for which Masked is true right
// now. It reports ok=false when that takes asking Masked per offset — a bare
// predicate, Mask/Allow overrides in play, or a source that declined (the
// span costs more than limit queries) — which the caller then does over the
// offsets it actually reads.
func (e *Env) appendMaskedIn(dst []int, lo, hi, limit int) (out []int, ok bool) {
	switch {
	case !e.haveMask:
		return dst, true
	case len(e.masked) > 0 || len(e.allowed) > 0:
		return dst, false
	case e.mask == nil:
		return dst, true
	}
	return e.mask.AppendMasked(dst, lo, hi, limit)
}

// HasMask reports whether any mask state is installed (used to decide
// whether precomputed global-regression moments are still trustworthy).
func (e *Env) HasMask() bool { return e.haveMask }

// Precompute builds the global regression moment cache in a single O(N)
// pass, turning every subsequent GlobalRegression prediction into O(1) work.
// It must only be called while the array holds pristine data, and the array
// must not be modified afterwards (see the Env contract above).
func (e *Env) Precompute() { e.mom = NewMoments(e.A) }

// Predictor reconstructs the value at a corrupted index from its spatial
// neighbors. Implementations must not read the element at idx.
type Predictor interface {
	// Name returns the method name as used in the paper's figures.
	Name() string
	// Predict returns the reconstructed value for the element at idx.
	Predict(env *Env, idx []int) (float64, error)
}

// Method enumerates the reconstruction methods evaluated in the paper,
// in the order the figures present them.
type Method int

const (
	// MethodZero replaces the corrupted value with zero (Section 3.4.1).
	MethodZero Method = iota
	// MethodRandom draws a random value within the dataset range (3.4.2).
	MethodRandom
	// MethodAverage averages the immediate face neighbors in all
	// dimensions (3.4.3).
	MethodAverage
	// MethodPreceding assigns the linear predecessor (3.4.4).
	MethodPreceding
	// MethodLinear fits a line through two consecutive values (3.4.4).
	MethodLinear
	// MethodQuadratic fits a quadratic through three values (3.4.4).
	MethodQuadratic
	// MethodLorenzo1 is the 1-layer multi-dimensional Lorenzo predictor
	// (3.4.5) — the paper's best method.
	MethodLorenzo1
	// MethodLinReg is the global linear regression predictor (3.4.6).
	MethodLinReg
	// MethodLocalLinReg is linear regression over a ±3-layer patch (3.4.7).
	MethodLocalLinReg
	// MethodLagrange is degree-2 Lagrange interpolation over two preceding
	// and one succeeding value in the slowest dimension (3.4.8).
	MethodLagrange

	// NumMethods is the number of headline methods (those in the figures).
	NumMethods int = iota

	// Extension methods (not part of the paper's headline figures, used by
	// the ablation benchmarks): deeper Lorenzo predictors as in SZ.
	MethodLorenzo2 Method = iota
	MethodLorenzo3
	MethodLorenzo4
	// MethodLorenzoAuto probes layer depths 1-3 locally and uses the best
	// (SZ's layer customization applied to recovery).
	MethodLorenzoAuto
)

var methodNames = map[Method]string{
	MethodZero:        "Zero",
	MethodRandom:      "Random",
	MethodAverage:     "Average",
	MethodPreceding:   "Preceding",
	MethodLinear:      "Linear",
	MethodQuadratic:   "Quadratic",
	MethodLorenzo1:    "Lorenzo 1-Layer",
	MethodLinReg:      "Linear Regression",
	MethodLocalLinReg: "Local Linear Regression",
	MethodLagrange:    "Lagrange",
	MethodLorenzo2:    "Lorenzo 2-Layer",
	MethodLorenzo3:    "Lorenzo 3-Layer",
	MethodLorenzo4:    "Lorenzo 4-Layer",
	MethodLorenzoAuto: "Lorenzo Auto-Layer",
}

// String implements fmt.Stringer.
func (m Method) String() string {
	if s, ok := methodNames[m]; ok {
		return s
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// ParseMethod resolves a method by its figure name (case-sensitive).
func ParseMethod(name string) (Method, error) {
	for m, s := range methodNames {
		if s == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("predict: unknown method %q", name)
}

// paperLagrange is the paper's Lagrange configuration (two preceding values
// and one succeeding), boxed once: New hands out the same read-only value
// instead of building the offset slice per call.
var paperLagrange Predictor = Lagrange{Offsets: []int{-2, -1, 1}}

// New constructs the predictor implementing m with the paper's parameters.
func New(m Method) Predictor {
	switch m {
	case MethodZero:
		return Zero{}
	case MethodRandom:
		return Random{}
	case MethodAverage:
		return Average{}
	case MethodPreceding:
		return CurveFit{Order: 0}
	case MethodLinear:
		return CurveFit{Order: 1}
	case MethodQuadratic:
		return CurveFit{Order: 2}
	case MethodLorenzo1:
		return Lorenzo{Layers: 1}
	case MethodLorenzo2:
		return Lorenzo{Layers: 2}
	case MethodLorenzo3:
		return Lorenzo{Layers: 3}
	case MethodLorenzo4:
		return Lorenzo{Layers: 4}
	case MethodLorenzoAuto:
		return LorenzoAuto{}
	case MethodLinReg:
		return GlobalRegression{}
	case MethodLocalLinReg:
		return LocalRegression{Radius: 3}
	case MethodLagrange:
		return paperLagrange
	default:
		panic(fmt.Sprintf("predict: no constructor for %v", m))
	}
}

// HeadlineMethods returns the methods evaluated in the paper's figures, in
// figure order.
func HeadlineMethods() []Method {
	ms := make([]Method, NumMethods)
	for i := range ms {
		ms[i] = Method(i)
	}
	return ms
}
