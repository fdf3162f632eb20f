//go:build !race

// Allocation assertions are skipped under -race: the race runtime
// instruments map and sync accesses with allocations the production
// build never makes.

package predict

import (
	"math"
	"testing"
)

// allocField is a smooth 2-D field with one quarantined target so the
// masked (fallback-searching) code paths run too.
func allocField() (*Env, []int) {
	a := fill([]int{64, 64}, func(idx []int) float64 {
		return 30 + 5*math.Sin(float64(idx[0])/5) + 3*math.Cos(float64(idx[1])/4)
	})
	env := NewEnv(a, 1)
	env.Mask(a.Offset(32, 32))
	return env, []int{32, 32}
}

func assertZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	fn() // warm scratch buffers and memo tables outside the measurement
	if n := testing.AllocsPerRun(200, fn); n != 0 {
		t.Errorf("%s: %v allocs/op, want 0", name, n)
	}
}

func TestLorenzoZeroAllocs(t *testing.T) {
	env, idx := allocField()
	for L := 1; L <= 4; L++ {
		p := Lorenzo{Layers: L}
		assertZeroAllocs(t, p.Name(), func() {
			if _, err := p.Predict(env, idx); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestLagrangeZeroAllocs(t *testing.T) {
	env, idx := allocField()
	p := Lagrange{Offsets: []int{-2, -1, 1}}
	assertZeroAllocs(t, p.Name(), func() {
		if _, err := p.Predict(env, idx); err != nil {
			t.Fatal(err)
		}
	})
	// Near-boundary fallback: node search runs but still reuses scratch.
	edge := []int{1, 5}
	env.Allow(env.A.Offset(32, 32))
	env.Mask(env.A.Offset(edge[0], edge[1]))
	assertZeroAllocs(t, "Lagrange fallback", func() {
		if _, err := p.Predict(env, edge); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSimpleKernelsZeroAllocs(t *testing.T) {
	env, idx := allocField()
	for _, p := range []Predictor{Average{}, CurveFit{Order: 0}, CurveFit{Order: 1}, CurveFit{Order: 2}} {
		p := p
		assertZeroAllocs(t, p.Name(), func() {
			if _, err := p.Predict(env, idx); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLocalRegressionZeroAllocs covers the three ways the kernel learns what
// it must not read: no mask at all, an enumerable source (the engine's
// quarantine view) and Mask offsets (asked per cell).
func TestLocalRegressionZeroAllocs(t *testing.T) {
	p := LocalRegression{Radius: 3}
	env, idx := kernelBenchEnv()
	plain := NewEnv(env.A, 1)
	offsets, _ := allocField()
	for name, c := range map[string]struct {
		env *Env
		idx []int
	}{"no mask": {plain, idx}, "enumerable": {env, idx}, "offsets": {offsets, []int{32, 32}}} {
		c := c
		assertZeroAllocs(t, p.Name()+", "+name, func() {
			if _, err := p.Predict(c.env, c.idx); err != nil {
				t.Fatal(err)
			}
		})
	}
}
