package predict

// Zero implements Section 3.4.1: replace the corrupted value with zero.
// Prior work (LetGo, BonVoision) uses this as a cheap default; the paper
// shows it performs poorly whenever the data is not centered about zero.
type Zero struct{}

// Name implements Predictor.
func (Zero) Name() string { return "Zero" }

// Predict implements Predictor.
func (Zero) Predict(_ *Env, _ []int) (float64, error) { return 0, nil }

// Random implements Section 3.4.2: draw a uniform random value within the
// dataset's value range, f = min(V) + R*(max(V) - min(V)) with R in [0,1).
// The range comes from the Env so repeated predictions are O(1).
type Random struct{}

// Name implements Predictor.
func (Random) Name() string { return "Random" }

// Predict implements Predictor.
func (Random) Predict(env *Env, _ []int) (float64, error) {
	min, max := env.Range()
	r := env.Rng.Float64()
	return min + r*(max-min), nil
}

// Average implements Section 3.4.3: the mean of the immediate face
// neighbors across all dimensions (up to 2d values; fewer on the array
// boundary). This is exactly the Jacobi 5-point/7-point stencil update from
// Section 2, so it reconstructs stencil-generated data particularly well.
type Average struct{}

// Name implements Predictor.
func (Average) Name() string { return "Average" }

// Predict implements Predictor.
func (Average) Predict(env *Env, idx []int) (float64, error) {
	a := env.A
	sum, n := 0.0, 0
	nb := env.ints(slotAvgNb)
	copy(nb, idx)
	for d := 0; d < a.NumDims(); d++ {
		for _, delta := range [2]int{-1, +1} {
			nb[d] = idx[d] + delta
			if nb[d] >= 0 && nb[d] < a.Dim(d) {
				if noff := a.Offset(nb...); !env.Masked(noff) {
					sum += a.AtOffset(noff)
					n++
				}
			}
		}
		nb[d] = idx[d]
	}
	if n == 0 {
		// A 1x1x...x1 array has no neighbors at all (or every neighbor is
		// quarantined).
		return 0, ErrUnsupported
	}
	return sum / float64(n), nil
}

// CurveFit implements Section 3.4.4: the SZ-1.0 curve-fitting predictors
// applied to the linearized data stream. Order selects the model:
//
//	Order 0 (preceding-neighbor): f(i) = V(i-1)
//	Order 1 (linear):             f(i) = 2V(i-1) - V(i-2)
//	Order 2 (quadratic):          f(i) = 3V(i-1) - 3V(i-2) + V(i-3)
//
// Multi-dimensional data is linearized in row-major order, as in SZ. When
// the preceding values do not exist (the corruption is within Order+1
// elements of the start of the stream) the stencil is mirrored to use
// succeeding values instead, following the paper's fallback rule for
// Lorenzo ("unless preceding values are not available").
type CurveFit struct {
	// Order is the polynomial order: 0, 1, or 2.
	Order int
}

// Name implements Predictor.
func (c CurveFit) Name() string {
	switch c.Order {
	case 0:
		return "Preceding"
	case 1:
		return "Linear"
	default:
		return "Quadratic"
	}
}

// Predict implements Predictor.
func (c CurveFit) Predict(env *Env, idx []int) (float64, error) {
	a := env.A
	off := a.Offset(idx...)
	need := c.Order + 1
	usable := func(dir int) bool {
		for k := 1; k <= need; k++ {
			p := off + dir*k
			if p < 0 || p >= a.Len() || env.Masked(p) {
				return false
			}
		}
		return true
	}
	dir := -1 // prefer preceding values
	if !usable(-1) {
		if !usable(+1) {
			return 0, ErrUnsupported
		}
		dir = +1
	}
	v := func(k int) float64 { return a.AtOffset(off + dir*k) }
	switch c.Order {
	case 0:
		return v(1), nil
	case 1:
		return 2*v(1) - v(2), nil
	case 2:
		return 3*v(1) - 3*v(2) + v(3), nil
	default:
		return 0, ErrUnsupported
	}
}

var (
	_ Predictor = Zero{}
	_ Predictor = Random{}
	_ Predictor = Average{}
	_ Predictor = CurveFit{}
)
