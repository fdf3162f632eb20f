package predict

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"spatialdue/internal/ndarray"
)

// TestProbeWalkMatchesCoordsInto holds ProbeWalk to ndarray.CoordsInto at
// every probe: 1-D to 4-D shapes, corner, edge and interior centres, radii
// 1 to 5, with masked cells in the box, and with the probes thinned by a
// stride as the tuner's MaxProbes does.
func TestProbeWalkMatchesCoordsInto(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	checked := 0
	for _, dims := range [][]int{{30}, {1}, {9, 11}, {1, 7}, {6, 7, 8}, {4, 1, 6}, {3, 4, 3, 5}} {
		a := ndarray.New(dims...)
		var masked []int
		for off := 0; off < a.Len(); off++ {
			if rng.Intn(10) == 0 {
				masked = append(masked, off)
			}
		}
		env := NewEnv(a, 1)
		maskOffsets(env, masked...)
		want := make([]int, len(dims))
		for trial := 0; trial < 40; trial++ {
			idx := make([]int, len(dims))
			for d, n := range dims {
				switch trial % 3 {
				case 0:
					idx[d] = 0
				case 1:
					idx[d] = n - 1
				default:
					idx[d] = rng.Intn(n)
				}
			}
			k := 1 + rng.Intn(5)
			stride := 1 + rng.Intn(4)
			offs, walk := env.Probes(idx, k)
			kept := 0
			for i := 0; i < len(offs); i += stride {
				off := offs[i]
				a.CoordsInto(want, off)
				if got := walk.Coords(off); !slices.Equal(got, want) {
					t.Fatalf("dims %v idx %v k %d stride %d: probe %d at %v, CoordsInto %v", dims, idx, k, stride, off, got, want)
				}
				kept++
			}
			checked += kept
		}
	}
	if checked < 1000 {
		t.Fatalf("checked %d probes, want >= 1000", checked)
	}
}

// TestNaNSumIsLastNaNTerm pins the bits of a NaN Average and Lagrange
// prediction: when a NaN term meets a sum that is already NaN (here from
// +Inf plus -Inf), the result is the NaN term's, as in lorenzoSweep, in
// either order.
func TestNaNSumIsLastNaNTerm(t *testing.T) {
	nan := math.NaN()
	want := math.Float64bits(nan)
	inf := math.Inf(1)

	// Average at (2, 2) reads (1,2), (3,2), (2,1), (2,3) in that order.
	for _, vals := range [][4]float64{{inf, -inf, nan, 1}, {nan, 1, inf, -inf}} {
		a := ndarray.New(5, 5)
		a.Fill(10)
		a.Set(vals[0], 1, 2)
		a.Set(vals[1], 3, 2)
		a.Set(vals[2], 2, 1)
		a.Set(vals[3], 2, 3)
		if got := predictAt(t, Average{}, a, 2, 2); math.Float64bits(got) != want {
			t.Errorf("Average over %v = %#x, want the NaN term's %#x", vals, math.Float64bits(got), want)
		}
	}

	// Lagrange at 4 reads the nodes 2, 3 and 5 in that order, with weights
	// -1/3, 1 and 1/3.
	for _, vals := range [][3]float64{{inf, inf, nan}, {nan, inf, -inf}} {
		a := ndarray.New(8)
		a.Fill(10)
		a.SetOffset(2, vals[0])
		a.SetOffset(3, vals[1])
		a.SetOffset(5, vals[2])
		if got := predictAt(t, Lagrange{}, a, 4); math.Float64bits(got) != want {
			t.Errorf("Lagrange over %v = %#x, want the NaN term's %#x", vals, math.Float64bits(got), want)
		}
	}
}
