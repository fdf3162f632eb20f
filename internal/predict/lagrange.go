package predict

import "sync"

// Lagrange implements Section 3.4.8: Lagrange polynomial interpolation
// through k data points around the corrupted element along the slowest
// changing dimension. The paper uses k = 3 points — two preceding values
// and one succeeding value — i.e. nodes at offsets {-2, -1, +1} in
// dimension 0, which defines a degree-2 interpolating polynomial evaluated
// at offset 0:
//
//	f = -V(x-2)/3 + V(x-1) + V(x+1)/3.
//
// When the default node set does not fit inside the array (the corruption
// sits near a boundary of dimension 0) the node set is mirrored; if neither
// orientation fits, the nearest k in-bounds offsets are used instead. The
// Lagrange weights are recomputed from the actual node offsets, so the
// interpolation remains exact for polynomials of degree < k. The fallback
// search is capped at MaxStencilReach so the predictor honours the
// package-wide stencil bound the lock-striped engine depends on.
type Lagrange struct {
	// Offsets are the node positions relative to the corrupted element
	// along dimension 0. They must be distinct and non-zero. The paper's
	// configuration is {-2, -1, 1}.
	Offsets []int

	// weights, when set, are Offsets' Lagrange weights, computed once up
	// front (the paper's configuration, see New); otherwise a prediction
	// looks them up in the memo.
	weights []float64
}

// Name implements Predictor.
func (Lagrange) Name() string { return "Lagrange" }

// maxLagNodes bounds the memo key width; node sets are tiny (the paper uses
// k=3) and every offset fits in MaxStencilReach.
const maxLagNodes = 7

// lagKey identifies a node-offset pattern: the count followed by the
// offsets themselves (zero-padded; 0 is not a legal node offset).
type lagKey [1 + maxLagNodes]int

var lagMemo struct {
	sync.RWMutex
	m map[lagKey][]float64
}

// lagrangeWeights returns the Lagrange basis values at x=0 for the given
// nodes, memoized by node pattern: only a handful of patterns occur (the
// configured set, its mirror, and near-boundary fallbacks), so after warmup
// every call is a lock-shielded map hit with zero allocations.
func lagrangeWeights(nodes []int) []float64 {
	if len(nodes) <= maxLagNodes {
		var key lagKey
		key[0] = len(nodes)
		copy(key[1:], nodes)
		lagMemo.RLock()
		w, ok := lagMemo.m[key]
		lagMemo.RUnlock()
		if ok {
			return w
		}
		w = computeLagrangeWeights(nodes)
		lagMemo.Lock()
		if lagMemo.m == nil {
			lagMemo.m = map[lagKey][]float64{}
		}
		// Bound the table; beyond this it's cheaper to recompute than to
		// evict (in practice a few dozen patterns exist per array shape).
		if len(lagMemo.m) < 4096 {
			lagMemo.m[key] = w
		}
		lagMemo.Unlock()
		return w
	}
	return computeLagrangeWeights(nodes)
}

// computeLagrangeWeights is the uncached computation.
func computeLagrangeWeights(nodes []int) []float64 {
	w := make([]float64, len(nodes))
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
func (l Lagrange) Predict(env *Env, idx []int) (float64, error) {
	a := env.A
	if len(l.Offsets) == 0 {
		return 0, ErrUnsupported
	}
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
	for k := len(l.Offsets); k >= 1; k-- {
		for axis := 0; axis < a.NumDims(); axis++ {
			stride := a.Stride(axis)
			nodes, configured := l.fitNodes(env, center, stride, idx[axis], a.Dim(axis), k)
			if nodes == nil {
				continue
			}
			w := l.weights
			if !configured || w == nil {
				w = lagrangeWeights(nodes)
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
// bounds and unmasked) when shifted by base = idx[axis]: the configured
// offsets, their mirror image (both only at full k), or the nearest k usable
// non-zero offsets within MaxStencilReach. Returns nil if fewer than k
// candidates exist (dimension too small or too quarantined), and whether
// the set is the configured one. center is the target's offset and stride
// the axis's.
func (l Lagrange) fitNodes(env *Env, center, stride, base, dimSz, k int) (nodes []int, configured bool) {
	if k == len(l.Offsets) {
		ok := true
		for _, o := range l.Offsets {
			if !lagUsable(env, center, stride, base, o, dimSz) {
				ok = false
				break
			}
		}
		if ok {
			return l.Offsets, true
		}
		mir := intBuf(&env.sc.lagNodes, k)
		for i, o := range l.Offsets {
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
			return mir, false
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
		return nil, false
	}
	return nodes, false
}

var _ Predictor = Lagrange{}
