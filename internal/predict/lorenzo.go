package predict

import (
	"math"

	"spatialdue/internal/ndarray"
)

// Lorenzo implements Section 3.4.5: the multi-dimensional, multi-layer
// Lorenzo predictor popularized by the SZ lossy compressor.
//
// The L-layer Lorenzo predictor in d dimensions estimates the value at grid
// point x from the box of previously seen neighbors x - s, s in {0..L}^d
// excluding s = 0, with coefficients
//
//	c(s) = -prod_t (-1)^(s_t) * binom(L, s_t)
//
// which reproduces the classic cases: in 1D, L=1 gives V(i-1), L=2 gives
// 2V(i-1)-V(i-2), L=3 gives 3V(i-1)-3V(i-2)+V(i-3); in 2D with L=1 it is the
// parallelogram predictor V(i-1,j) + V(i,j-1) - V(i-1,j-1); in 3D with L=1
// it is the 7-point inclusion-exclusion stencil. The prediction error is
// the product of the per-dimension L-th finite differences, so the
// predictor is exact on every polynomial whose monomials all have degree
// < L in at least one dimension (in 1-D: exact on degree L-1; in 2-D with
// L=1: exact on anything without a fully mixed x*y term).
//
// Unlike SZ, which compresses a stream and therefore may only use "upwind"
// neighbors (indices smaller than the target), DUE recovery reconstructs a
// single element and may look in any direction. There are 2^d orientations
// of the stencil; following the paper we prefer the preceding (upwind)
// orientation in every dimension and mirror individual dimensions whose
// preceding neighbors fall outside the array.
type Lorenzo struct {
	// Layers is the number of layers L in [1,4].
	Layers int
}

// Name implements Predictor.
func (l Lorenzo) Name() string {
	switch l.Layers {
	case 1:
		return "Lorenzo 1-Layer"
	case 2:
		return "Lorenzo 2-Layer"
	case 3:
		return "Lorenzo 3-Layer"
	case 4:
		return "Lorenzo 4-Layer"
	default:
		return "Lorenzo"
	}
}

// binomRows holds C(n, 0..n) for every layer count the predictor supports
// (MaxStencilReach bounds L at well under 8), so the hot path never
// recomputes or allocates a coefficient row.
var binomRows = [...][]int{
	{1},
	{1, 1},
	{1, 2, 1},
	{1, 3, 3, 1},
	{1, 4, 6, 4, 1},
	{1, 5, 10, 10, 5, 1},
	{1, 6, 15, 20, 15, 6, 1},
	{1, 7, 21, 35, 35, 21, 7, 1},
	{1, 8, 28, 56, 70, 56, 28, 8, 1},
}

// binom returns binomial coefficients C(n, 0..n).
func binom(n int) []int {
	if n < len(binomRows) {
		return binomRows[n]
	}
	row := make([]int, n+1)
	row[0] = 1
	for i := 1; i <= n; i++ {
		row[i] = row[i-1] * (n - i + 1) / i
	}
	return row
}

// lorenzoSweep evaluates the stencil at idx under orientation dir, with a
// per-dimension layer count maxs (maxs[t] = 0 drops dimension t from the
// stencil entirely — the degraded cross-dimension fallback; the uniform
// case maxs[t] = L for all t is the classic L-layer predictor, because
// C(L, 0) = 1 makes dropped dimensions contribute a neutral factor). With
// check set it only tests whether every cell read is unmasked, returning
// (0, ok). s and nb are caller scratch of length d.
func lorenzoSweep(env *Env, a *ndarray.Array, idx, dir, s, nb, coef, maxs []int, d int, check bool) (float64, bool) {
	for t := range s {
		s[t] = 0
	}
	sum := 0.0
	for {
		// Enumerate s in prod_t {0..maxs[t]} \ {0} with an odometer; the
		// all-zero vector is skipped by incrementing before the first use.
		t := d - 1
		for t >= 0 {
			s[t]++
			if s[t] <= maxs[t] {
				break
			}
			s[t] = 0
			t--
		}
		if t < 0 {
			return sum, true // wrapped around: enumeration complete
		}
		// Coefficient c(s) = -prod_t (-1)^(s_t) C(L, s_t).
		c := -1
		for u := 0; u < d; u++ {
			c *= coef[s[u]]
			if s[u]%2 == 1 {
				c = -c
			}
			nb[u] = idx[u] + dir[u]*s[u]
		}
		off := a.Offset(nb...)
		if check && env.Masked(off) {
			return 0, false
		}
		if !check {
			sum += float64(c) * a.AtOffset(off)
		}
	}
}

// Predict implements Predictor.
func (l Lorenzo) Predict(env *Env, idx []int) (float64, error) {
	if l.Layers < 1 {
		return 0, ErrUnsupported
	}
	a := env.A
	d := a.NumDims()
	L := l.Layers

	// Per-dimension feasibility: which of -1 (preceding) / +1 (succeeding)
	// keeps L layers in bounds. Preceding is preferred.
	if len(env.sc.lorSides) != 2*d {
		env.sc.lorSides = make([]bool, 2*d)
	}
	canNeg, canPos := env.sc.lorSides[:d], env.sc.lorSides[d:]
	boundsOK := true
	for t := 0; t < d; t++ {
		canNeg[t] = idx[t]-L >= 0
		canPos[t] = idx[t]+L < a.Dim(t)
		if !canNeg[t] && !canPos[t] {
			// Neither side has L in-bounds layers in this dimension
			// (possible only when dim size <= L); the full stencil cannot
			// be applied, but a degraded one may still fit.
			boundsOK = false
		}
	}

	coef := binom(L)
	s := env.ints(slotLorS)
	nb := env.ints(slotLorNb)
	dir := env.ints(slotLorDir)
	maxs := env.ints(slotLorMaxs)

	if boundsOK {
		for t := 0; t < d; t++ {
			maxs[t] = L
			// Default orientation: preceding wherever it fits.
			if canNeg[t] {
				dir[t] = -1
			} else {
				dir[t] = +1
			}
		}
		if !env.HasMask() {
			v, _ := lorenzoSweep(env, a, idx, dir, s, nb, coef, maxs, d, false)
			return v, nil
		}
		// With quarantined cells in play, search the 2^d orientations (the
		// preferred all-upwind stencil first) for one whose cells are all
		// usable.
		for flips := 0; flips < 1<<d; flips++ {
			ok := true
			for t := 0; t < d; t++ {
				mirrored := flips>>t&1 == 1
				switch {
				case !mirrored && canNeg[t]:
					dir[t] = -1
				case mirrored && canPos[t]:
					dir[t] = +1
				default:
					ok = false
				}
				if !ok {
					break
				}
			}
			if !ok {
				continue
			}
			if _, clean := lorenzoSweep(env, a, idx, dir, s, nb, coef, maxs, d, true); clean {
				v, _ := lorenzoSweep(env, a, idx, dir, s, nb, coef, maxs, d, false)
				return v, nil
			}
		}
	}
	return l.predictDegraded(env, a, idx, s, nb, dir, maxs, L, d, boundsOK)
}

// predictDegraded is the structured-fault fallback: when the full L-layer
// stencil is exhausted in every orientation (an entire dead neighborhood —
// a wiped row, a dead column — or an array too small for L layers), the
// predictor degrades instead of erroring. It searches, in preference order,
// shallower stencils (L-1 down to 1) over dimension subsets of decreasing
// size: dropping a dimension from the stencil (maxs[t] = 0) lets a cell
// inside a wiped row be predicted purely from the neighboring rows, which
// the full inclusion-exclusion stencil can never do because it always reads
// in-row neighbors. Every candidate stays within MaxStencilReach (layer
// counts only shrink), so the stripe-independence invariant holds.
func (l Lorenzo) predictDegraded(env *Env, a *ndarray.Array, idx []int, s, nb, dir, maxs []int, L, d int, triedFull bool) (float64, error) {
	for dl := L; dl >= 1; dl-- {
		coef := binom(dl)
		for size := d; size >= 1; size-- {
			for subset := 1; subset < 1<<d; subset++ {
				if popcount(subset) != size {
					continue
				}
				if dl == L && size == d && triedFull {
					continue // the primary path already searched this
				}
				// Feasibility of dl layers in each subset dimension.
				ok := true
				for t := 0; t < d; t++ {
					if subset>>t&1 == 0 {
						maxs[t] = 0
						dir[t] = 0
						continue
					}
					maxs[t] = dl
					if idx[t]-dl < 0 && idx[t]+dl >= a.Dim(t) {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				// All orientations of the subset dimensions, upwind first.
				for flips := 0; flips < 1<<size; flips++ {
					ok := true
					fi := 0
					for t := 0; t < d; t++ {
						if subset>>t&1 == 0 {
							continue
						}
						mirrored := flips>>fi&1 == 1
						fi++
						switch {
						case !mirrored && idx[t]-dl >= 0:
							dir[t] = -1
						case mirrored && idx[t]+dl < a.Dim(t):
							dir[t] = +1
						default:
							ok = false
						}
						if !ok {
							break
						}
					}
					if !ok {
						continue
					}
					if _, clean := lorenzoSweep(env, a, idx, dir, s, nb, coef, maxs, d, true); clean {
						v, _ := lorenzoSweep(env, a, idx, dir, s, nb, coef, maxs, d, false)
						return v, nil
					}
				}
			}
		}
	}
	return 0, ErrUnsupported
}

// popcount returns the number of set bits (subsets here are at most 2^4).
func popcount(x int) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

var _ Predictor = Lorenzo{}

// LorenzoAuto is the SZ-2 "layer customization" idea applied to recovery
// (the paper's Section 3.4.5 notes SZ gains over 2x compression from it):
// rather than fixing the layer count, probe every depth from 1 to MaxLayers
// on the healthy cells around the corruption — predicting each probe
// leave-one-out and scoring the relative error — and reconstruct with the
// locally best depth. Deeper stencils win on smooth polynomial-like data;
// shallow ones win where deeper layers would drag in noise or unrelated
// structure, which is exactly the trade SZ's layer selection navigates.
type LorenzoAuto struct {
	// MaxLayers bounds the search (SZ uses up to 4). Zero means 3.
	MaxLayers int
	// ProbeRadius is the Chebyshev radius of the probe neighborhood
	// around the corrupted element. Zero means 2.
	ProbeRadius int
}

// Name implements Predictor.
func (LorenzoAuto) Name() string { return "Lorenzo Auto-Layer" }

// Predict implements Predictor.
func (l LorenzoAuto) Predict(env *Env, idx []int) (float64, error) {
	maxL := l.MaxLayers
	if maxL <= 0 {
		maxL = 3
	}
	radius := l.ProbeRadius
	if radius <= 0 {
		radius = 2
	}
	a := env.A
	skip := a.Offset(idx...)

	bestL, bestScore := 0, math.Inf(1)
	probeIdx := env.ints(slotAutoIdx)
	for L := 1; L <= maxL; L++ {
		p := Lorenzo{Layers: L}
		sum, n := 0.0, 0
		failed := false
		rows := env.PatchRows(idx, radius)
	probing:
		for rows.Next() {
			for off, end := rows.Off, rows.Off+rows.Len; off < end; off++ {
				if off == skip || env.Masked(off) {
					continue
				}
				a.CoordsInto(probeIdx, off)
				got, err := p.Predict(env, probeIdx)
				if err != nil {
					failed = true // this depth does not fit here at all
					break probing
				}
				want := a.AtOffset(off)
				re := math.Abs(got - want)
				if want != 0 {
					re /= math.Abs(want)
				}
				sum += math.Min(re, 1e3)
				n++
			}
		}
		if failed || n == 0 {
			continue
		}
		if score := sum / float64(n); score < bestScore {
			bestScore, bestL = score, L
		}
	}
	if bestL == 0 {
		return 0, ErrUnsupported
	}
	return Lorenzo{Layers: bestL}.Predict(env, idx)
}

var _ Predictor = LorenzoAuto{}
