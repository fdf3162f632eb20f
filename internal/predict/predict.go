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
	"slices"

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
// an optional mask of cells that must not be read, and optional shared
// array-wide statistics (SetShared).
type Env struct {
	A   *ndarray.Array
	Rng *rand.Rand

	rangeOK  bool
	min, max float64

	// mask, when set, holds the offsets whose stored values are
	// known-garbage (e.g. quarantined multi-DUE neighbors) and must not
	// feed any stencil.
	mask MaskSource

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
	excluded []int     // the offsets a prediction must not read (see Env.excluded)
	probes   []int     // autotune: probe offsets, then the probe walk's odometer (see Env.Probes)
	fit      []float64 // regression working set (see Env.fitScratch)
}

// The coordinate-scratch slots of scratch.ints.
const (
	// The running kernel's four buffers: the kernels that predict one cell
	// never call one another, so they share them (their names below).
	slotKernel0 = iota
	slotKernel1
	slotKernel2
	slotKernel3
	slotAutoIdx  // LorenzoAuto probe coordinates, held while it calls Lorenzo
	slotPatchCur // ndarray.PatchRows odometer (see Env.PatchRows)
	slotProbeIdx // autotune probe coordinates (see ProbeWalk)
	numIntSlots
)

// The kernels' names for their shared slots.
const (
	slotLorS    = slotKernel0 // Lorenzo odometer
	slotLorDir  = slotKernel1 // Lorenzo orientation
	slotLorMaxs = slotKernel2 // Lorenzo per-dimension layer counts
	slotRegIdx  = slotKernel0 // GlobalRegression row odometer; Range's patch centre
	slotRegLo   = slotKernel0 // LocalRegression box: lower bounds
	slotRegHi   = slotKernel1 // LocalRegression box: upper bounds
	slotRegSum  = slotKernel2 // LocalRegression box: coordinate sums
	slotRegCur  = slotKernel3 // LocalRegression outer odometer (4-D on)
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
// which solveSymInPlace consumes, and LocalRegression's memo: a box's X'X
// (p*p), then its p-1 lower and p-1 upper clip extents (small integers,
// exact as float64) — carved from one allocation. A new memo is empty: its
// first extent is NaN, which equals no extent.
func (e *Env) fitScratch(p int) (phi, xtx, xtv, memo []float64) {
	if n := 2*p*p + 4*p - 2; len(e.sc.fit) != n {
		e.sc.fit = make([]float64, n)
		e.sc.fit[n-2*(p-1)] = math.NaN()
	}
	buf := e.sc.fit
	phi, buf = buf[:p:p], buf[p:]
	xtx, buf = buf[:p*p:p*p], buf[p*p:]
	xtv, memo = buf[:p:p], buf[p:]
	return phi, xtx, xtv, memo
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
// stencil inputs), in row-major order. offs is Env scratch, valid until the
// next Probes call and touched by no predictor; it may be thinned in place.
// walk gives the coordinates of the probes in turn. idx must stay unmodified
// while walk is in use.
func (e *Env) Probes(idx []int, k int) (offs []int, walk ProbeWalk) {
	skip := e.A.Offset(idx...)
	cells := 1
	for d := range idx {
		lo, hi := e.A.PatchBounds(idx, k, d)
		cells *= hi - lo + 1
	}
	// One buffer: the probe offsets, and past every one of them the probe
	// walk's row odometer.
	n := cells + len(idx)
	if cap(e.sc.probes) < n {
		e.sc.probes = make([]int, 0, n)
	}
	buf := e.sc.probes[:n]
	offs = buf[:0:cells]
	rows := e.PatchRows(idx, k)
	for rows.Next() {
		for off, end := rows.Off, rows.Off+rows.Len; off < end; off++ {
			if off != skip && !e.Masked(off) {
				offs = append(offs, off)
			}
		}
	}
	walk = ProbeWalk{rows: e.A.PatchRows(idx, k, buf[cells:n:n]), idx: e.ints(slotProbeIdx)}
	if walk.rows.Next() {
		copy(walk.idx, walk.rows.Cur)
	}
	return offs, walk
}

// ProbeWalk turns the probe offsets of one Probes call, taken in ascending
// order, into coordinates: a row walk over the probe box that moves on only
// when a probe lies past its row, so a probe costs no division.
type ProbeWalk struct {
	rows ndarray.PatchRows
	idx  []int // Env scratch: the coordinates Coords returns
}

// Coords returns the coordinates of off, a cell of the probe box at or past
// the last one asked for. The slice is Env scratch that the next call
// overwrites; no predictor writes it.
func (w *ProbeWalk) Coords(off int) []int {
	if off >= w.rows.Off+w.rows.Len {
		for w.rows.Next() && off >= w.rows.Off+w.rows.Len {
		}
		copy(w.idx, w.rows.Cur)
	}
	last := len(w.idx) - 1
	w.idx[last] = w.rows.Cur[last] + off - w.rows.Off
	return w.idx
}

// NewEnv wraps a dataset with a deterministic random source. Dataset-wide
// statistics (the value range, the regression fit) are computed lazily, so
// predictors that do not need them stay O(1).
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

// Range returns the dataset's (min, max), NaN cells aside, computing and
// caching it on first use — the Random predictor's bound (Section 3.4.2).
// Masked (quarantined) cells are excluded so known-garbage values cannot
// widen the range. Without SharedStats it is the walk SharedStats rescans
// with (rangeExcluding).
func (e *Env) Range() (min, max float64) {
	if e.shared != nil {
		return e.shared.Range()
	}
	if !e.rangeOK {
		origin := e.ints(slotRegIdx)
		clear(origin)
		e.min, e.max = rangeExcluding(e.A.Data(), e.excluded(origin, wholeArray, -1))
		e.rangeOK = true
	}
	return e.min, e.max
}

// SetMaskFunc installs a live mask predicate; nil removes the mask. The
// contract, for the predicate and for SetMaskSource alike: nothing is cached
// across predictions, probes, methods or ladder rungs, so a cell the source
// reports masked before a prediction starts is never read by that
// prediction. Within one prediction the small-stencil
// methods ask before every read; the two regressions ask once, after they
// start and before they read anything (Env.excluded: per cell of the patch,
// for GlobalRegression the array, for a bare predicate).
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
// next prediction on). It replaces any predicate or source installed before,
// and nil removes the mask; see SetMaskFunc for the freshness contract.
func (e *Env) SetMaskSource(src MaskSource) {
	e.mask = src
	e.rangeOK = false
}

// Masked reports whether the value stored at off must not be used.
func (e *Env) Masked(off int) bool { return e.mask != nil && e.mask.Masked(off) }

// wholeArray is a patch radius that reaches past every edge of any array:
// the patch of that radius around any cell is the array.
const wholeArray = math.MaxInt / 2

// excluded is the per-prediction form of Masked: it returns, in ascending
// order, the offsets of the patch of Chebyshev radius `radius` around idx
// that the prediction must not read — skip, unless it is negative, and every
// cell masked right now. It asks the mask once, for the patch's linear span,
// and the answer may hold masked cells of that span outside the patch. When
// the mask cannot enumerate the span for the price of one Masked call per
// patch cell (a bare predicate, a source that declines), it asks Masked per
// cell of the patch instead, skip aside. The slice is Env scratch, valid
// until the next call.
func (e *Env) excluded(idx []int, radius, skip int) []int {
	a := e.A
	n, first, last := 1, 0, 0
	for t := range idx {
		lo, hi := a.PatchBounds(idx, radius, t)
		n *= hi - lo + 1
		first += lo * a.Stride(t)
		last += hi * a.Stride(t)
	}
	excl := e.sc.excluded[:0]
	if e.mask != nil {
		var ok bool
		if excl, ok = e.mask.AppendMasked(excl, first, last, n); !ok {
			excl = excl[:0]
			rows := e.PatchRows(idx, radius)
			for rows.Next() {
				for off, end := rows.Off, rows.Off+rows.Len; off < end; off++ {
					if off != skip && e.mask.Masked(off) {
						excl = append(excl, off)
					}
				}
			}
		}
	}
	if skip >= 0 {
		if i, found := slices.BinarySearch(excl, skip); !found {
			excl = slices.Insert(excl, i, skip)
		}
	}
	e.sc.excluded = excl
	return excl
}

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
		return Lagrange{}
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
