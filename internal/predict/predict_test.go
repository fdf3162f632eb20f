package predict

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"spatialdue/internal/ndarray"
)

// fill builds an array from a coordinate function.
func fill(dims []int, f func(idx []int) float64) *ndarray.Array {
	a := ndarray.New(dims...)
	a.FillFunc(f)
	return a
}

func envFor(a *ndarray.Array) *Env { return NewEnv(a, 1) }

func predictAt(t *testing.T, p Predictor, a *ndarray.Array, idx ...int) float64 {
	t.Helper()
	v, err := p.Predict(envFor(a), idx)
	if err != nil {
		t.Fatalf("%s.Predict(%v): %v", p.Name(), idx, err)
	}
	return v
}

func TestZeroAlwaysZero(t *testing.T) {
	a := fill([]int{4, 4}, func(idx []int) float64 { return 7 })
	if got := predictAt(t, Zero{}, a, 2, 2); got != 0 {
		t.Errorf("Zero predicted %v", got)
	}
}

func TestRandomWithinRange(t *testing.T) {
	a := fill([]int{50}, func(idx []int) float64 { return float64(idx[0]) }) // range [0,49]
	env := envFor(a)
	p := Random{}
	for i := 0; i < 200; i++ {
		v, err := p.Predict(env, []int{10})
		if err != nil {
			t.Fatal(err)
		}
		if v < 0 || v >= 49.0000001 {
			t.Fatalf("Random predicted %v outside [0, 49]", v)
		}
	}
}

func TestRandomDeterministicWithSeed(t *testing.T) {
	a := fill([]int{10}, func(idx []int) float64 { return float64(idx[0]) })
	v1, _ := Random{}.Predict(NewEnv(a, 123), []int{3})
	v2, _ := Random{}.Predict(NewEnv(a, 123), []int{3})
	if v1 != v2 {
		t.Errorf("same seed produced %v and %v", v1, v2)
	}
}

func TestRandomConstantArray(t *testing.T) {
	a := fill([]int{10}, func([]int) float64 { return 5 })
	if got := predictAt(t, Random{}, a, 4); got != 5 {
		t.Errorf("Random on constant array = %v, want 5", got)
	}
}

func TestAverageInterior(t *testing.T) {
	a := ndarray.New(3, 3)
	a.Set(1, 0, 1)
	a.Set(2, 2, 1)
	a.Set(3, 1, 0)
	a.Set(4, 1, 2)
	a.Set(99, 1, 1) // corrupted value must not be read
	if got := predictAt(t, Average{}, a, 1, 1); got != 2.5 {
		t.Errorf("Average = %v, want 2.5", got)
	}
}

func TestAverageBoundaryUsesAvailableNeighbors(t *testing.T) {
	a, _ := ndarray.FromData([]float64{
		0, 2, 0,
		3, 0, 0,
		0, 0, 0,
	}, 3, 3)
	// Corner (0,0): neighbors are (0,1)=2 and (1,0)=3.
	if got := predictAt(t, Average{}, a, 0, 0); got != 2.5 {
		t.Errorf("corner Average = %v, want 2.5", got)
	}
}

func TestAverage1D(t *testing.T) {
	a, _ := ndarray.FromData([]float64{1, 0, 5}, 3)
	if got := predictAt(t, Average{}, a, 1); got != 3 {
		t.Errorf("1-D Average = %v, want 3", got)
	}
}

func TestAverageDegenerate(t *testing.T) {
	a := ndarray.New(1)
	if _, err := (Average{}).Predict(envFor(a), []int{0}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("1x1 Average error = %v, want ErrUnsupported", err)
	}
}

func TestAverageIsJacobiStencil(t *testing.T) {
	// On a harmonic function (satisfying the discrete Laplace equation),
	// averaging reconstructs exactly — the paper's Section 2 observation.
	a := fill([]int{8, 8}, func(idx []int) float64 { return float64(3*idx[0] - 2*idx[1]) })
	if got := predictAt(t, Average{}, a, 4, 4); math.Abs(got-a.At(4, 4)) > 1e-12 {
		t.Errorf("Average on linear field = %v, want %v", got, a.At(4, 4))
	}
}

func TestPrecedingExactOnConstant(t *testing.T) {
	a := fill([]int{10}, func([]int) float64 { return 3.7 })
	if got := predictAt(t, CurveFit{Order: 0}, a, 5); got != 3.7 {
		t.Errorf("Preceding = %v, want 3.7", got)
	}
}

func TestLinearExactOnRamp(t *testing.T) {
	a := fill([]int{10}, func(idx []int) float64 { return 2 + 3*float64(idx[0]) })
	if got := predictAt(t, CurveFit{Order: 1}, a, 5); math.Abs(got-17) > 1e-12 {
		t.Errorf("Linear on ramp = %v, want 17", got)
	}
}

func TestQuadraticExactOnParabola(t *testing.T) {
	a := fill([]int{10}, func(idx []int) float64 {
		x := float64(idx[0])
		return 1 + 2*x + 0.5*x*x
	})
	want := a.At(6)
	if got := predictAt(t, CurveFit{Order: 2}, a, 6); math.Abs(got-want) > 1e-9 {
		t.Errorf("Quadratic on parabola = %v, want %v", got, want)
	}
}

func TestCurveFitMirrorsAtStart(t *testing.T) {
	// Corruption at offset 0: no preceding values; succeeding are used.
	a := fill([]int{10}, func(idx []int) float64 { return 5 + 2*float64(idx[0]) })
	if got := predictAt(t, CurveFit{Order: 1}, a, 0); math.Abs(got-5) > 1e-12 {
		t.Errorf("mirrored Linear at start = %v, want 5", got)
	}
	if got := predictAt(t, CurveFit{Order: 0}, a, 0); got != 7 {
		t.Errorf("mirrored Preceding at start = %v, want 7", got)
	}
}

func TestCurveFitLinearizes2D(t *testing.T) {
	// In 2-D the predecessor in linearized (row-major) order is (i, j-1).
	a := fill([]int{4, 4}, func(idx []int) float64 { return float64(10*idx[0] + idx[1]) })
	if got := predictAt(t, CurveFit{Order: 0}, a, 2, 2); got != 21 {
		t.Errorf("2-D Preceding = %v, want 21 (value at (2,1))", got)
	}
}

func TestCurveFitTooSmall(t *testing.T) {
	a := ndarray.New(2)
	if _, err := (CurveFit{Order: 2}).Predict(envFor(a), []int{1}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("tiny-array Quadratic error = %v, want ErrUnsupported", err)
	}
}

func TestLorenzo1DEqualsPreceding(t *testing.T) {
	a := fill([]int{10}, func(idx []int) float64 { return float64(idx[0] * idx[0]) })
	want := a.At(4) // V(i-1) = 16 at i=5
	if got := predictAt(t, Lorenzo{Layers: 1}, a, 5); got != want {
		t.Errorf("1-D Lorenzo-1 = %v, want %v", got, want)
	}
}

func TestLorenzo2DParallelogram(t *testing.T) {
	a := ndarray.New(4, 4)
	a.Set(1, 1, 1)
	a.Set(2, 1, 2)
	a.Set(3, 2, 1)
	// f(2,2) = V(1,2) + V(2,1) - V(1,1) = 2 + 3 - 1 = 4.
	if got := predictAt(t, Lorenzo{Layers: 1}, a, 2, 2); got != 4 {
		t.Errorf("2-D Lorenzo-1 = %v, want 4", got)
	}
}

func TestLorenzo1ExactnessClass(t *testing.T) {
	// The 1-layer Lorenzo error operator is the product of per-dimension
	// first differences, so any polynomial in which every monomial lacks
	// full degree in at least one dimension is predicted exactly — e.g.
	// x^2 + 3x - 2y + 7 in 2-D (no xy term).
	a := fill([]int{10, 10}, func(idx []int) float64 {
		x, y := float64(idx[0]), float64(idx[1])
		return x*x + 3*x - 2*y + 7
	})
	want := a.At(5, 6)
	if got := predictAt(t, Lorenzo{Layers: 1}, a, 5, 6); math.Abs(got-want) > 1e-9 {
		t.Errorf("Lorenzo-1 on separable poly = %v, want %v", got, want)
	}
	// ... while the fully mixed monomial xy survives: error is exactly 1
	// (the mixed second difference of xy).
	b := fill([]int{10, 10}, func(idx []int) float64 {
		return float64(idx[0] * idx[1])
	})
	got := predictAt(t, Lorenzo{Layers: 1}, b, 5, 6)
	if math.Abs(got-(b.At(5, 6)-1)) > 1e-9 {
		t.Errorf("Lorenzo-1 on xy = %v, want %v (exact minus 1)", got, b.At(5, 6))
	}
}

func TestLorenzo1ExactOn3DSeparable(t *testing.T) {
	a := fill([]int{6, 7, 8}, func(idx []int) float64 {
		x, y, z := float64(idx[0]), float64(idx[1]), float64(idx[2])
		return 2*x*x - y + 3*z + x*y + y*z + x*z // no xyz term
	})
	// x*y, y*z, x*z each lack one dimension entirely... they do have full
	// mixed degree in two dims; in 3-D the error operator is
	// DxDyDz, which kills any monomial missing one of x, y, z.
	want := a.At(3, 4, 5)
	if got := predictAt(t, Lorenzo{Layers: 1}, a, 3, 4, 5); math.Abs(got-want) > 1e-9 {
		t.Errorf("3-D Lorenzo-1 = %v, want %v", got, want)
	}
}

func TestLorenzoLayersExactnessOrder(t *testing.T) {
	// An L-layer Lorenzo predictor is exact on 1-D polynomials of degree
	// L-1 (its coefficients are the binomial finite-difference weights).
	for L := 1; L <= 4; L++ {
		a := fill([]int{20}, func(idx []int) float64 {
			x := float64(idx[0])
			v := 0.0
			for p := 0; p < L; p++ {
				v += math.Pow(x, float64(p))
			}
			return v
		})
		want := a.At(10)
		got := predictAt(t, Lorenzo{Layers: L}, a, 10)
		if math.Abs(got-want) > 1e-6*math.Abs(want)+1e-9 {
			t.Errorf("Lorenzo-%d on degree-%d poly: got %v, want %v", L, L-1, got, want)
		}
	}
}

func TestLorenzoOrientationFallback(t *testing.T) {
	// Corruption at index 0: preceding values don't exist, so the stencil
	// must mirror to succeeding values. On a linear field the mirrored
	// 1-layer predictor returns V(1).
	a := fill([]int{10}, func(idx []int) float64 { return 4 + float64(idx[0]) })
	if got := predictAt(t, Lorenzo{Layers: 1}, a, 0); got != 5 {
		t.Errorf("mirrored Lorenzo-1 at 0 = %v, want 5", got)
	}
	// Per-dimension mixing in 2-D: (0, 2) mirrors dim 0 only.
	b := fill([]int{6, 6}, func(idx []int) float64 { return float64(10*idx[0] + idx[1]) })
	want := b.At(0, 2) // exact on multilinear regardless of orientation
	if got := predictAt(t, Lorenzo{Layers: 1}, b, 0, 2); math.Abs(got-want) > 1e-9 {
		t.Errorf("mixed-orientation Lorenzo-1 = %v, want %v", got, want)
	}
}

func TestLorenzoDegradesWhenDimTooSmall(t *testing.T) {
	// Dim 0 has size 2: no room for the full 2-layer stencil. The predictor
	// must degrade (here to a 2-layer stencil along dim 1 alone) rather than
	// error; on data linear in dim 1 that fallback is exact.
	a := fill([]int{2, 8}, func(idx []int) float64 { return 3*float64(idx[1]) + 1 })
	got, err := (Lorenzo{Layers: 2}).Predict(envFor(a), []int{1, 4})
	if err != nil {
		t.Fatalf("degraded predict: %v", err)
	}
	if want := 3*4.0 + 1; got != want {
		t.Errorf("degraded predict = %v, want %v", got, want)
	}
	if _, err := (Lorenzo{Layers: 0}).Predict(envFor(a), []int{1, 4}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("Layers=0 error = %v, want ErrUnsupported", err)
	}
	// A 1x1 array has no neighbors in any dimension: even the degraded
	// search must refuse.
	if _, err := (Lorenzo{Layers: 1}).Predict(envFor(ndarray.New(1, 1)), []int{0, 0}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("1x1 error = %v, want ErrUnsupported", err)
	}
}

func TestLorenzoDoesNotReadTarget(t *testing.T) {
	a := fill([]int{8, 8}, func(idx []int) float64 { return float64(idx[0] + idx[1]) })
	want := predictAt(t, Lorenzo{Layers: 1}, a, 4, 4)
	a.Set(math.NaN(), 4, 4) // poisoning the target must not change the result
	got := predictAt(t, Lorenzo{Layers: 1}, a, 4, 4)
	if got != want {
		t.Errorf("Lorenzo read the corrupted element: %v vs %v", got, want)
	}
}

func TestGlobalRegressionExactOnPlane(t *testing.T) {
	for _, dims := range [][]int{{30}, {10, 12}, {6, 7, 8}} {
		a := fill(dims, func(idx []int) float64 {
			v := 2.0
			for d, x := range idx {
				v += float64(d+1) * float64(x)
			}
			return v
		})
		idx := make([]int, len(dims))
		for d := range idx {
			idx[d] = dims[d] / 3
		}
		want := a.At(idx...)
		got := predictAt(t, GlobalRegression{}, a, idx...)
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("dims %v: global regression = %v, want %v", dims, got, want)
		}
	}
}

func TestGlobalRegressionExcludesCorruptedValue(t *testing.T) {
	a := fill([]int{10, 10}, func(idx []int) float64 { return 1 + 2*float64(idx[0]) + 3*float64(idx[1]) })
	want := a.At(5, 5)
	a.Set(1e12, 5, 5) // wildly corrupted value must not bias the fit
	got := predictAt(t, GlobalRegression{}, a, 5, 5)
	if math.Abs(got-want) > 1e-5 {
		t.Errorf("regression biased by corrupted value: got %v, want %v", got, want)
	}
}

func TestMomentsPathMatchesFullScan(t *testing.T) {
	// The O(1) moments downdate must agree with the honest O(N) scan.
	rng := rand.New(rand.NewSource(9))
	a := fill([]int{12, 13}, func(idx []int) float64 {
		return 5 + 0.3*float64(idx[0]) - 0.7*float64(idx[1]) + rng.NormFloat64()
	})
	slow := NewEnv(a, 1)
	fast := NewEnv(a, 1)
	fast.Precompute()
	if fast.mom == nil || slow.mom != nil {
		t.Fatal("Precompute flag wrong")
	}
	p := GlobalRegression{}
	for _, idx := range [][]int{{0, 0}, {5, 6}, {11, 12}, {3, 9}} {
		vSlow, err1 := p.Predict(slow, idx)
		vFast, err2 := p.Predict(fast, idx)
		if err1 != nil || err2 != nil {
			t.Fatalf("errors: %v, %v", err1, err2)
		}
		if math.Abs(vSlow-vFast) > 1e-6*(math.Abs(vSlow)+1) {
			t.Errorf("idx %v: scan %v != moments %v", idx, vSlow, vFast)
		}
	}
}

func TestLocalRegressionExactOnPlane(t *testing.T) {
	a := fill([]int{12, 12}, func(idx []int) float64 { return 3 - float64(idx[0]) + 2*float64(idx[1]) })
	want := a.At(6, 6)
	if got := predictAt(t, LocalRegression{Radius: 3}, a, 6, 6); math.Abs(got-want) > 1e-8 {
		t.Errorf("local regression on plane = %v, want %v", got, want)
	}
}

func TestLocalRegressionExcludesCenter(t *testing.T) {
	a := fill([]int{12, 12}, func(idx []int) float64 { return 3 + float64(idx[0]) + float64(idx[1]) })
	want := a.At(6, 6)
	a.Set(-1e9, 6, 6)
	if got := predictAt(t, LocalRegression{Radius: 3}, a, 6, 6); math.Abs(got-want) > 1e-6 {
		t.Errorf("local regression biased by center: got %v, want %v", got, want)
	}
}

func TestLocalRegressionBoundary(t *testing.T) {
	// At a corner the patch is clipped but still overdetermined.
	a := fill([]int{12, 12}, func(idx []int) float64 { return 1 + 2*float64(idx[0]) + 3*float64(idx[1]) })
	if got := predictAt(t, LocalRegression{Radius: 3}, a, 0, 0); math.Abs(got-1) > 1e-8 {
		t.Errorf("corner local regression = %v, want 1", got)
	}
}

func TestLocalRegressionDegenerate(t *testing.T) {
	a := ndarray.New(1, 1)
	if _, err := (LocalRegression{Radius: 3}).Predict(envFor(a), []int{0, 0}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("1x1 local regression error = %v, want ErrUnsupported", err)
	}
	b := ndarray.New(8, 8)
	if _, err := (LocalRegression{Radius: 0}).Predict(envFor(b), []int{4, 4}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("radius-0 error = %v, want ErrUnsupported", err)
	}
}

func TestLagrangePaperStencil(t *testing.T) {
	// Nodes {-2,-1,+1} along dim 0 with weights (-1/3, 1, 1/3).
	a := ndarray.New(8, 3)
	a.Set(6, 2, 1) // V(x-2)
	a.Set(3, 3, 1) // V(x-1)
	a.Set(9, 5, 1) // V(x+1)
	want := -6.0/3 + 3 + 9.0/3
	if got := predictAt(t, Lagrange{Offsets: []int{-2, -1, 1}}, a, 4, 1); math.Abs(got-want) > 1e-12 {
		t.Errorf("Lagrange = %v, want %v", got, want)
	}
}

func TestLagrangeExactOnQuadratic(t *testing.T) {
	a := fill([]int{12}, func(idx []int) float64 {
		x := float64(idx[0])
		return 2 - x + 0.25*x*x
	})
	want := a.At(6)
	if got := predictAt(t, Lagrange{Offsets: []int{-2, -1, 1}}, a, 6); math.Abs(got-want) > 1e-9 {
		t.Errorf("Lagrange on quadratic = %v, want %v", got, want)
	}
}

func TestLagrangeBoundaryFallback(t *testing.T) {
	// At index 0 the default and mirrored node sets don't both fit; the
	// mirror {2,1,-1} also fails (needs index -1), so nearest offsets are
	// used. It must still be exact on a quadratic.
	a := fill([]int{12}, func(idx []int) float64 {
		x := float64(idx[0])
		return 1 + x + x*x
	})
	for _, i := range []int{0, 1, 11} {
		want := a.At(i)
		got := predictAt(t, Lagrange{Offsets: []int{-2, -1, 1}}, a, i)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("Lagrange at boundary %d = %v, want %v", i, got, want)
		}
	}
}

func TestLagrangeUnsupported(t *testing.T) {
	// A 2-element 1-D array cannot host the 3-node fit, but the shrink
	// ladder finds the single in-bounds neighbor and copies it rather than
	// refusing.
	a := ndarray.New(2)
	a.SetOffset(1, 42)
	got, err := (Lagrange{Offsets: []int{-2, -1, 1}}).Predict(envFor(a), []int{0})
	if err != nil {
		t.Errorf("tiny Lagrange error = %v, want degraded copy", err)
	} else if got != 42 {
		t.Errorf("tiny Lagrange = %v, want 42 (nearest-neighbor copy)", got)
	}
	if _, err := (Lagrange{}).Predict(envFor(ndarray.New(10)), []int{5}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("empty-offsets Lagrange error = %v, want ErrUnsupported", err)
	}
	// A single-element array has no neighbors at all: still refused.
	if _, err := (Lagrange{Offsets: []int{-2, -1, 1}}).Predict(envFor(ndarray.New(1)), []int{0}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("1-element Lagrange error = %v, want ErrUnsupported", err)
	}
}

func TestLagrangeWeightsSumToOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		nodes := map[int]bool{}
		for len(nodes) < n {
			v := rng.Intn(17) - 8
			if v != 0 {
				nodes[v] = true
			}
		}
		list := make([]int, 0, n)
		for v := range nodes {
			list = append(list, v)
		}
		sum := 0.0
		for _, w := range lagrangeWeights(list) {
			sum += w
		}
		return math.Abs(sum-1) < 1e-8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSolveSym(t *testing.T) {
	// 2x2: [[2,1],[1,3]] x = [5, 10] -> x = (1, 3).
	x, ok := solveSym([]float64{2, 1, 1, 3}, []float64{5, 10}, 2)
	if !ok || math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("solveSym = %v, %v", x, ok)
	}
}

func TestSolveSymSingular(t *testing.T) {
	if _, ok := solveSym([]float64{1, 1, 1, 1}, []float64{2, 2}, 2); ok {
		t.Error("singular system reported solvable")
	}
	if _, ok := solveSym([]float64{0, 0, 0, 0}, []float64{1, 1}, 2); ok {
		t.Error("zero system reported solvable")
	}
}

func TestParseMethodRoundTrip(t *testing.T) {
	for _, m := range HeadlineMethods() {
		got, err := ParseMethod(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMethod(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMethod("nope"); err == nil {
		t.Error("ParseMethod accepted garbage")
	}
}

func TestHeadlineSetup(t *testing.T) {
	ms := HeadlineMethods()
	if len(ms) != NumMethods || NumMethods != 10 {
		t.Fatalf("HeadlineMethods has %d entries, NumMethods=%d", len(ms), NumMethods)
	}
	for i, m := range ms {
		if p := New(m); p.Name() != m.String() {
			t.Errorf("predictor %d name %q != method %q", i, p.Name(), m.String())
		}
	}
	// Figure order per the paper.
	if ms[0] != MethodZero || ms[6] != MethodLorenzo1 || ms[9] != MethodLagrange {
		t.Errorf("method order wrong: %v", ms)
	}
}

func TestNewCoversExtensions(t *testing.T) {
	for _, m := range []Method{MethodLorenzo2, MethodLorenzo3, MethodLorenzo4} {
		if New(m) == nil {
			t.Errorf("New(%v) = nil", m)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("New(bogus) did not panic")
		}
	}()
	New(Method(999))
}

func TestEnvRangeLazy(t *testing.T) {
	a := fill([]int{10}, func(idx []int) float64 { return float64(idx[0]) })
	env := NewEnv(a, 1)
	min, max := env.Range()
	if min != 0 || max != 9 {
		t.Errorf("Range = (%v, %v)", min, max)
	}
	// Cached: mutating the array afterwards doesn't change the cache.
	a.SetOffset(0, -100)
	min, _ = env.Range()
	if min != 0 {
		t.Errorf("Range not cached: min = %v", min)
	}
}

func TestAllPredictorsSkipCorruptedElement(t *testing.T) {
	// Contract test: no headline method (except Zero/Random, which never
	// read data at the index anyway) may read the element being predicted.
	base := fill([]int{16, 16}, func(idx []int) float64 {
		return 10 + math.Sin(float64(idx[0])/3)*math.Cos(float64(idx[1])/4)
	})
	idx := []int{8, 8}
	for _, m := range HeadlineMethods() {
		clean := base.Clone()
		poisoned := base.Clone()
		poisoned.Set(math.Inf(1), idx[0], idx[1])
		p := New(m)
		v1, err1 := p.Predict(NewEnv(clean, 7), idx)
		v2, err2 := p.Predict(NewEnv(poisoned, 7), idx)
		if m == MethodRandom {
			// Random reads the dataset range, which poisoning changes;
			// skip the value comparison but require no error.
			if err2 != nil {
				t.Errorf("%v errored on poisoned data: %v", m, err2)
			}
			continue
		}
		if (err1 == nil) != (err2 == nil) {
			t.Errorf("%v: error mismatch %v vs %v", m, err1, err2)
			continue
		}
		if err1 == nil && v1 != v2 && !(math.IsNaN(v1) && math.IsNaN(v2)) {
			t.Errorf("%v read the corrupted element: %v vs %v", m, v1, v2)
		}
	}
}

func TestLorenzoAutoPicksDeepLayersOnPolynomial(t *testing.T) {
	// On a 1-D quadratic, Lorenzo-1 has a constant error while Lorenzo-3
	// is exact; the auto-layer predictor must find the deep stencil.
	a := fill([]int{40}, func(idx []int) float64 {
		x := float64(idx[0])
		return 100 + 3*x + 0.5*x*x
	})
	want := a.At(20)
	auto := predictAt(t, LorenzoAuto{}, a, 20)
	if math.Abs(auto-want) > 1e-6 {
		t.Errorf("LorenzoAuto = %v, want %v (exact)", auto, want)
	}
	shallow := predictAt(t, Lorenzo{Layers: 1}, a, 20)
	if math.Abs(shallow-want) < 1e-6 {
		t.Fatal("test premise broken: Lorenzo-1 already exact")
	}
}

func TestLorenzoAutoPrefersShallowOnNoise(t *testing.T) {
	// On white noise around a constant, deeper stencils amplify error
	// (coefficient norms grow); auto must not do worse than Lorenzo-1 by
	// more than the probe noise.
	rng := rand.New(rand.NewSource(8))
	a := fill([]int{24, 24}, func(idx []int) float64 { return 50 + rng.NormFloat64() })
	idx := []int{12, 12}
	want := a.At(12, 12)
	auto := predictAt(t, LorenzoAuto{}, a, idx...)
	deep := predictAt(t, Lorenzo{Layers: 3}, a, idx...)
	if math.Abs(auto-want) > math.Abs(deep-want)+3 {
		t.Errorf("LorenzoAuto (%v) much worse than deep Lorenzo (%v) on noise", auto, deep)
	}
}

func TestLorenzoAutoUnsupportedOnTinyArray(t *testing.T) {
	a := ndarray.New(1, 1)
	if _, err := (LorenzoAuto{}).Predict(envFor(a), []int{0, 0}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("error = %v, want ErrUnsupported", err)
	}
}

func TestLorenzoAutoViaMethodEnum(t *testing.T) {
	if New(MethodLorenzoAuto).Name() != "Lorenzo Auto-Layer" {
		t.Error("MethodLorenzoAuto constructor wrong")
	}
	m, err := ParseMethod("Lorenzo Auto-Layer")
	if err != nil || m != MethodLorenzoAuto {
		t.Errorf("ParseMethod = %v, %v", m, err)
	}
}
