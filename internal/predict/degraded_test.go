package predict

import (
	"errors"
	"math"
	"slices"
	"testing"

	"spatialdue/internal/ndarray"
)

// Structured faults kill whole stencil directions at once: a wiped row
// quarantines every in-row neighbor, a dead column every in-column one.
// These tests pin the degradation ladder — predictors must fall back to
// shallower stencils or other dimensions instead of returning ErrUnsupported,
// and the fallback must stay exact on data the reduced stencil can represent.

// maskRow quarantines all of row r in a 2-D array.
func maskRow(env *Env, a *ndarray.Array, r int) {
	var offs []int
	for c := 0; c < a.Dim(1); c++ {
		offs = append(offs, a.Offset(r, c))
	}
	maskOffsets(env, offs...)
}

// maskCol quarantines all of column c in a 2-D array.
func maskCol(env *Env, a *ndarray.Array, c int) {
	var offs []int
	for r := 0; r < a.Dim(0); r++ {
		offs = append(offs, a.Offset(r, c))
	}
	maskOffsets(env, offs...)
}

// maskAllBut quarantines every cell of a except those at keep.
func maskAllBut(env *Env, a *ndarray.Array, keep ...int) {
	var offs []int
	for off := 0; off < a.Len(); off++ {
		if !slices.Contains(keep, off) {
			offs = append(offs, off)
		}
	}
	maskOffsets(env, offs...)
}

func TestLorenzoDegradesAcrossRowWipe(t *testing.T) {
	// Data linear in the row index: exact for a 2-layer stencil along dim 0
	// alone (2V(i-1) - V(i-2)). Wipe row 4 entirely — every full Lorenzo
	// orientation reads an in-row neighbor (s with s[1] > 0) and is
	// unusable, so only the dimension-dropped fallback can answer.
	a := fill([]int{8, 8}, func(idx []int) float64 { return 5 * float64(idx[0]) })
	env := envFor(a)
	maskRow(env, a, 4)
	got, err := (Lorenzo{Layers: 2}).Predict(env, []int{4, 3})
	if err != nil {
		t.Fatalf("degraded predict across row wipe: %v", err)
	}
	if want := 20.0; got != want {
		t.Errorf("predict = %v, want %v", got, want)
	}
}

func TestLorenzoDegradesAcrossColumnWipe(t *testing.T) {
	a := fill([]int{8, 8}, func(idx []int) float64 { return 3 * float64(idx[1]) })
	env := envFor(a)
	maskCol(env, a, 5)
	got, err := (Lorenzo{Layers: 2}).Predict(env, []int{2, 5})
	if err != nil {
		t.Fatalf("degraded predict across column wipe: %v", err)
	}
	if want := 15.0; got != want {
		t.Errorf("predict = %v, want %v", got, want)
	}
}

func TestLorenzoDegradedStillRefusesWhenSurrounded(t *testing.T) {
	// Every neighbor within MaxStencilReach in both dimensions quarantined:
	// no degraded stencil exists either, and the predictor must say so.
	a := fill([]int{5, 5}, func(idx []int) float64 { return 1 })
	env := envFor(a)
	maskAllBut(env, a, a.Offset(2, 2))
	if _, err := (Lorenzo{Layers: 1}).Predict(env, []int{2, 2}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("err = %v, want ErrUnsupported", err)
	}
}

func TestLorenzoDegradedDoesNotChangeHealthyPrediction(t *testing.T) {
	// On fully healthy data the degraded search must never run: predictions
	// are bit-identical to the classic stencil.
	a := fill([]int{8, 8}, func(idx []int) float64 {
		return math.Sin(float64(idx[0])) * math.Cos(float64(idx[1]))
	})
	want := predictAt(t, Lorenzo{Layers: 2}, a, 4, 4)
	got := predictAt(t, Lorenzo{Layers: 2}, a, 4, 4)
	if got != want {
		t.Errorf("healthy-path prediction not deterministic: %v vs %v", got, want)
	}
}

func TestLagrangeDegradesAcrossColumnWipe(t *testing.T) {
	// The paper's Lagrange nodes run along dimension 0; a dead column kills
	// all of them for any cell in that column. The rotated fit along
	// dimension 1 sees a healthy row and stays exact on degree<3 data.
	a := fill([]int{8, 8}, func(idx []int) float64 {
		c := float64(idx[1])
		return c*c + 2*c + 1
	})
	env := envFor(a)
	maskCol(env, a, 4)
	got, err := (Lagrange{}).Predict(env, []int{3, 4})
	if err != nil {
		t.Fatalf("degraded predict across column wipe: %v", err)
	}
	if want := 4.0*4 + 2*4 + 1; math.Abs(got-want) > 1e-9 {
		t.Errorf("predict = %v, want %v", got, want)
	}
}

func TestLagrangeShrinksToNearestNeighbor(t *testing.T) {
	// Only a single healthy neighbor remains within reach: the ladder must
	// bottom out at k=1, a nearest-neighbor copy, rather than refuse.
	a := fill([]int{4, 4}, func(idx []int) float64 { return float64(idx[0]*4 + idx[1]) })
	env := envFor(a)
	maskAllBut(env, a, a.Offset(0, 0), a.Offset(0, 1))
	got, err := (Lagrange{}).Predict(env, []int{0, 0})
	if err != nil {
		t.Fatalf("shrunk predict: %v", err)
	}
	if want := a.At(0, 1); got != want {
		t.Errorf("predict = %v, want nearest-neighbor copy %v", got, want)
	}
}

func TestLagrangeDegradedRefusesWhenIsolated(t *testing.T) {
	a := fill([]int{4, 4}, func(idx []int) float64 { return 1 })
	env := envFor(a)
	maskAllBut(env, a, a.Offset(2, 2))
	if _, err := (Lagrange{}).Predict(env, []int{2, 2}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("err = %v, want ErrUnsupported", err)
	}
}
