package predict

// Lagrange implements Section 3.4.8: Lagrange polynomial interpolation
// through k = 3 data points around the corrupted element along the slowest
// changing dimension — two preceding values and one succeeding value, i.e.
// nodes at offsets {-2, -1, +1} in dimension 0 — which defines a degree-2
// interpolating polynomial evaluated at offset 0:
//
//	f = -V(x-2)/3 + V(x-1) + V(x+1)/3.
//
// When the node set does not fit inside the array (the corruption sits near
// a boundary of dimension 0) the node set is mirrored; if neither
// orientation fits, the nearest k in-bounds offsets are used instead. The
// Lagrange weights are recomputed from the actual node offsets, so the
// interpolation remains exact for polynomials of degree < k. The fallback
// search is capped at MaxStencilReach so the predictor honours the
// package-wide stencil bound the lock-striped engine depends on.
type Lagrange struct{}

// Name implements Predictor.
func (Lagrange) Name() string { return "Lagrange" }

// paperNodes are the paper's node offsets, and paperWeights their Lagrange
// weights at 0, each the correctly rounded quotient lagrangeWeights divides
// out. They are the weights of the mirrored set {2, 1, -1} as well: negating
// every node negates each factor of a weight's numerator and of its
// denominator, so every weight keeps its bits.
var (
	paperNodes   = [...]int{-2, -1, 1}
	paperWeights = [...]float64{-1.0 / 3, 1, 1.0 / 3}
)

// lagrangeWeights writes the Lagrange basis values at x=0 of the given nodes
// (distinct, non-zero) into w[:len(nodes)] and returns that slice.
func lagrangeWeights(w []float64, nodes []int) []float64 {
	w = w[:len(nodes)]
	for r, xr := range nodes {
		num, den := 1.0, 1.0
		for m, xm := range nodes {
			if m == r {
				continue
			}
			num *= float64(0 - xm)
			den *= float64(xr - xm)
		}
		w[r] = num / den
	}
	return w
}

// lagUsable reports whether the node o cells along an axis from the target —
// at coordinate base+o of the axis's dimSz, and at offset center+o*stride —
// is in bounds and not quarantined.
func lagUsable(env *Env, center, stride, base, o, dimSz int) bool {
	p := base + o
	if p < 0 || p >= dimSz {
		return false
	}
	return !env.Masked(center + o*stride)
}

// Predict implements Predictor.
func (Lagrange) Predict(env *Env, idx []int) (float64, error) {
	a := env.A
	center, ok := a.OffsetOK(idx)
	if !ok {
		center = a.Offset(idx...) // panics with the index's error
	}

	// Structured-fault degradation ladder: the paper's interpolation along
	// dimension 0 first (the primary path, bit-identical to the original
	// behavior whenever it fits), then the same k-point fit rotated onto
	// each other dimension — a wiped row leaves the column through the
	// corruption fully healthy — and only then progressively fewer nodes
	// (k-1 down to 1, a nearest-neighbor copy) across all dimensions.
	var wBuf [len(paperNodes)]float64
	for k := len(paperNodes); k >= 1; k-- {
		for axis := 0; axis < a.NumDims(); axis++ {
			stride := a.Stride(axis)
			nodes, w := fitNodes(env, center, stride, idx[axis], a.Dim(axis), k, wBuf[:])
			if nodes == nil {
				continue
			}
			sum, lastNaN := 0.0, 0.0
			for r, off := range nodes {
				term := w[r] * a.AtOffset(center+off*stride)
				if term != term {
					lastNaN = term
				}
				sum += term
			}
			if lastNaN != lastNaN {
				return lastNaN, nil // a NaN sum is the last NaN term, as in lorenzoSweep
			}
			return sum, nil
		}
	}
	return 0, ErrUnsupported
}

// fitNodes returns a k-node offset set along axis that is fully usable (in
// bounds and unmasked) when shifted by base = idx[axis], and its weights:
// the paper's nodes or their mirror image (both only at k = 3), whose
// weights are paperWeights, or the nearest k usable non-zero offsets within
// MaxStencilReach, whose weights it computes into w. Returns nil if fewer
// than k candidates exist (dimension too small or too quarantined). center
// is the target's offset and stride the axis's.
func fitNodes(env *Env, center, stride, base, dimSz, k int, w []float64) (nodes []int, weights []float64) {
	if k == len(paperNodes) {
		ok := true
		for _, o := range paperNodes {
			if !lagUsable(env, center, stride, base, o, dimSz) {
				ok = false
				break
			}
		}
		if ok {
			return paperNodes[:], paperWeights[:]
		}
		mir := intBuf(&env.sc.lagNodes, k)
		for i, o := range paperNodes {
			mir[i] = -o
		}
		ok = true
		for _, o := range mir {
			if !lagUsable(env, center, stride, base, o, dimSz) {
				ok = false
				break
			}
		}
		if ok {
			return mir, paperWeights[:]
		}
	}
	// Nearest usable non-zero offsets, alternating outward. The search is
	// capped at MaxStencilReach: reaching further would break the stripe
	// independence invariant, and that far from the corruption the data has
	// little predictive value anyway.
	limit := dimSz
	if limit > MaxStencilReach+1 {
		limit = MaxStencilReach + 1
	}
	nodes = intBuf(&env.sc.lagNodes, k)[:0]
	for dist := 1; len(nodes) < k && dist < limit; dist++ {
		for _, o := range [2]int{-dist, +dist} {
			if lagUsable(env, center, stride, base, o, dimSz) {
				nodes = append(nodes, o)
				if len(nodes) == k {
					break
				}
			}
		}
	}
	if len(nodes) < k {
		return nil, nil
	}
	return nodes, lagrangeWeights(w, nodes)
}

var _ Predictor = Lagrange{}
