package predict

import (
	"math"
	"math/rand"
	"testing"

	"spatialdue/internal/ndarray"
)

// globalRegressionScanRef is GlobalRegression.Predict's per-cell scan as it
// was for an Env without SharedStats: every cell but idx and the masked ones
// through CoordsInto, its features and both halves of the normal equations,
// in offset order. Test-only, with buffers of its own; the one
// implementation in non-test code is moments.accumulate.
func globalRegressionScanRef(env *Env, idx []int) (float64, error) {
	a := env.A
	d := a.NumDims()
	p := d + 1
	phi, xtx, xtv := make([]float64, p), make([]float64, p*p), make([]float64, p)
	skip := a.Offset(idx...)
	cur := make([]int, d)
	for off := 0; off < a.Len(); off++ {
		if off == skip || env.Masked(off) {
			continue
		}
		a.CoordsInto(cur, off)
		phi[0] = 1
		for t := 0; t < d; t++ {
			phi[t+1] = float64(cur[t]) - (float64(a.Dim(t)-1) / 2)
		}
		v := a.AtOffset(off)
		for i := 0; i < p; i++ {
			for j := i; j < p; j++ {
				xtx[i*p+j] += phi[i] * phi[j]
			}
			xtv[i] += phi[i] * v
		}
	}
	// Mirror the upper triangle.
	for i := 0; i < p; i++ {
		for j := 0; j < i; j++ {
			xtx[i*p+j] = xtx[j*p+i]
		}
	}
	beta, ok := solveSymInPlace(xtx, xtv, p)
	if !ok {
		return 0, ErrUnsupported
	}
	phi[0] = 1
	for t := 0; t < d; t++ {
		phi[t+1] = float64(idx[t]) - (float64(a.Dim(t)-1) / 2)
	}
	return dot(beta, phi), nil
}

// rangeScanRef is Env.Range's computation as it was for an Env without
// SharedStats: a per-cell scan that asks Masked for every offset when a mask
// is installed, and ndarray.MinMax otherwise.
func rangeScanRef(env *Env) (min, max float64) {
	if env.mask == nil {
		return env.A.MinMax()
	}
	min, max = math.NaN(), math.NaN()
	for off := 0; off < env.A.Len(); off++ {
		if env.Masked(off) {
			continue
		}
		v := env.A.AtOffset(off)
		if math.IsNaN(v) {
			continue
		}
		if math.IsNaN(min) || v < min {
			min = v
		}
		if math.IsNaN(max) || v > max {
			max = v
		}
	}
	return min, max
}

// globalRefField fills an array of shape dims with values around 50 and,
// by poison, signed zeros ("zeros") or a few non-finite cells ("nonfinite":
// NaN, +Inf and -Inf, sparse enough that masking or targeting them leaves a
// finite fit).
func globalRefField(dims []int, poison string, rng *rand.Rand) *ndarray.Array {
	a := ndarray.New(dims...)
	for off := 0; off < a.Len(); off++ {
		v := 50 + 10*rng.NormFloat64()
		switch {
		case poison == "zeros" && rng.Intn(6) == 0:
			v = math.Copysign(0, float64(rng.Intn(2)*2-1))
		case poison == "nonfinite" && rng.Intn(40) == 0:
			v = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
		}
		a.SetOffset(off, v)
	}
	if poison == "zeros" {
		a.SetOffset(rng.Intn(a.Len()), math.Copysign(0, -1))
	}
	return a
}

// TestGlobalRegressionMatchesScanReference is the differential test behind
// the no-SharedStats GlobalRegression and Env.Range: the same float64 bits
// and the same error/no-error as the per-cell scans they replaced, at every
// offset of 1-D to 5-D shapes (size-1 dimensions included), for finite,
// signed-zero and NaN/Inf-laced values, with no mask and with every mask
// mode (predicate, enumerable, declining enumerable) over 0 % to 95 % of the
// cells.
func TestGlobalRegressionMatchesScanReference(t *testing.T) {
	shapes := [][]int{{1}, {2}, {23}, {1, 9}, {7, 1}, {6, 7}, {3, 1, 4}, {4, 5, 6}, {2, 3, 1, 4}, {3, 3, 3, 3}, {2, 2, 3, 1, 3}, {3, 3, 2, 3, 3}}
	rng := rand.New(rand.NewSource(53))
	predictions, fits, ranges := 0, 0, 0
	for _, dims := range shapes {
		for _, poison := range []string{"none", "zeros", "nonfinite"} {
			a := globalRefField(dims, poison, rng)
			type variant struct {
				name    string
				pct     int
				install func(env *Env, offs []int)
			}
			variants := []variant{{"none", 0, func(*Env, []int) {}}}
			for _, pct := range []int{0, 10, 50, 95} {
				for _, m := range refMaskModes {
					variants = append(variants, variant{m.name, pct, m.install})
				}
			}
			for _, vt := range variants {
				var masked []int
				for off := 0; off < a.Len(); off++ {
					if rng.Intn(100) < vt.pct {
						masked = append(masked, off)
					}
				}
				got, ref := NewEnv(a, 1), NewEnv(a, 1)
				vt.install(got, masked)
				vt.install(ref, masked)

				glo, ghi := got.Range()
				rlo, rhi := rangeScanRef(ref)
				ranges++
				if math.Float64bits(glo) != math.Float64bits(rlo) || math.Float64bits(ghi) != math.Float64bits(rhi) {
					t.Fatalf("dims %v poison %s mask %s %d%%: Range (%v, %v), reference (%v, %v)",
						dims, poison, vt.name, vt.pct, glo, ghi, rlo, rhi)
				}

				idx := make([]int, len(dims))
				for off := 0; off < a.Len(); off++ {
					a.CoordsInto(idx, off)
					gv, gerr := GlobalRegression{}.Predict(got, idx)
					rv, rerr := globalRegressionScanRef(ref, idx)
					predictions++
					if rerr == nil {
						fits++
					}
					if (gerr != nil) != (rerr != nil) || math.Float64bits(gv) != math.Float64bits(rv) {
						t.Fatalf("dims %v poison %s mask %s %d%% idx %v: got (%v [%#x], %v), reference (%v [%#x], %v)",
							dims, poison, vt.name, vt.pct, idx, gv, math.Float64bits(gv), gerr, rv, math.Float64bits(rv), rerr)
					}
				}
			}
		}
	}
	t.Logf("%d predictions (%d of them fits, the rest refusals) and %d ranges bit-identical to the scan references", predictions, fits, ranges)
}

// globalScanBenchEnv is the BenchmarkGlobalRegressionScan site: a smooth 3-D
// field of 12x16x16 cells, no SharedStats, the target and a second cell
// behind an enumerable mask as in the engine.
func globalScanBenchEnv() (*Env, []int) {
	a := fill([]int{12, 16, 16}, func(idx []int) float64 {
		return 900 + 30*math.Sin(float64(idx[0])/3) + 11*math.Cos(float64(idx[1])/7) + float64(idx[2]%5)
	})
	idx := []int{6, 8, 8}
	env := NewEnv(a, 1)
	env.SetMaskSource(newSetMask(a.Offset(idx...), a.Offset(7, 7, 10)))
	return env, idx
}

// BenchmarkGlobalRegressionScan times one global fit on an Env without
// SharedStats: the array-wide walk the campaigns and the Figure 10 harness
// pay per prediction.
func BenchmarkGlobalRegressionScan(b *testing.B) {
	env, idx := globalScanBenchEnv()
	benchPredictorAt(b, GlobalRegression{}, env, idx)
}
