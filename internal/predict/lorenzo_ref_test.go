package predict

import (
	"math"
	"math/rand"
	"testing"

	"spatialdue/internal/ndarray"
)

// lorenzoRefDegraded counts the predictions lorenzoRef hands to its degraded
// fallback, so the differential test can show it reached that path.
var lorenzoRefDegraded int

// lorenzoSweepRef is the odometer sweep Lorenzo.Predict used before its
// stencil became a list of stride offsets, kept verbatim as the reference
// the differential test compares against.
func lorenzoSweepRef(env *Env, a *ndarray.Array, idx, dir, s, nb, coef, maxs []int, d int, check bool) (float64, bool) {
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

// lorenzoRef is Lorenzo.Predict as it was before the stride-offset stencil:
// a variadic Offset per neighbour, a check sweep and a sum sweep per
// orientation. Verbatim but for its buffers, which it allocates itself so
// that it shares no Env scratch with the kernel under test, and the
// lorenzoRefDegraded count. Test-only.
func lorenzoRef(env *Env, idx []int, L int) (float64, error) {
	if L < 1 {
		return 0, ErrUnsupported
	}
	a := env.A
	d := a.NumDims()

	canNeg, canPos := make([]bool, d), make([]bool, d)
	boundsOK := true
	for t := 0; t < d; t++ {
		canNeg[t] = idx[t]-L >= 0
		canPos[t] = idx[t]+L < a.Dim(t)
		if !canNeg[t] && !canPos[t] {
			boundsOK = false
		}
	}

	coef := binom(L)
	s, nb, dir, maxs := make([]int, d), make([]int, d), make([]int, d), make([]int, d)

	if boundsOK {
		for t := 0; t < d; t++ {
			maxs[t] = L
			if canNeg[t] {
				dir[t] = -1
			} else {
				dir[t] = +1
			}
		}
		if env.mask == nil {
			v, _ := lorenzoSweepRef(env, a, idx, dir, s, nb, coef, maxs, d, false)
			return v, nil
		}
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
			if _, clean := lorenzoSweepRef(env, a, idx, dir, s, nb, coef, maxs, d, true); clean {
				v, _ := lorenzoSweepRef(env, a, idx, dir, s, nb, coef, maxs, d, false)
				return v, nil
			}
		}
	}
	lorenzoRefDegraded++
	return lorenzoDegradedRef(env, a, idx, s, nb, dir, maxs, L, d, boundsOK)
}

// lorenzoDegradedRef is the reference's Lorenzo.predictDegraded, verbatim.
func lorenzoDegradedRef(env *Env, a *ndarray.Array, idx []int, s, nb, dir, maxs []int, L, d int, triedFull bool) (float64, error) {
	for dl := L; dl >= 1; dl-- {
		coef := binom(dl)
		for size := d; size >= 1; size-- {
			for subset := 1; subset < 1<<d; subset++ {
				if popcount(subset) != size {
					continue
				}
				if dl == L && size == d && triedFull {
					continue
				}
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
					if _, clean := lorenzoSweepRef(env, a, idx, dir, s, nb, coef, maxs, d, true); clean {
						v, _ := lorenzoSweepRef(env, a, idx, dir, s, nb, coef, maxs, d, false)
						return v, nil
					}
				}
			}
		}
	}
	return 0, ErrUnsupported
}

// lorenzoWipe is a structured fault that blocks every full orientation of
// the cells around it: the whole middle line of the last dimension and the
// whole middle line of the first (one line in 1-D).
func lorenzoWipe(a *ndarray.Array) []int {
	d := a.NumDims()
	var offs []int
	idx := make([]int, d)
	for off := 0; off < a.Len(); off++ {
		a.CoordsInto(idx, off)
		row, col := true, true
		for t := 0; t < d; t++ {
			if t != d-1 && idx[t] != a.Dim(t)/2 {
				row = false
			}
			if t != 0 && idx[t] != a.Dim(t)/2 {
				col = false
			}
		}
		if row || col {
			offs = append(offs, off)
		}
	}
	return offs
}

// TestLorenzoMatchesReference is the differential test behind the
// stride-offset stencil: the same float64 bits and the same error as the
// reference at every offset (so every boundary orientation) of 1-D to 4-D
// shapes with size-1 and size-2 dimensions, for layers 1 to 4, finite and
// NaN/Inf-laced values, no mask, and every mask mode with 0 %, 10 % and 20 %
// of the cells masked at random and with a structured wipe that sends
// predictions down the degraded path.
func TestLorenzoMatchesReference(t *testing.T) {
	shapes := [][]int{{13}, {1}, {2}, {9, 10}, {1, 8}, {2, 7}, {5, 6, 7}, {4, 1, 6}, {2, 3, 5}, {3, 4, 3, 5}, {2, 5, 1, 4}}
	rng := rand.New(rand.NewSource(47))
	compared, failed := 0, 0
	lorenzoRefDegraded = 0
	for _, dims := range shapes {
		for _, poison := range []bool{false, true} {
			a := ndarray.New(dims...)
			for off := 0; off < a.Len(); off++ {
				v := 50 + 10*rng.NormFloat64()
				if poison {
					switch rng.Intn(30) {
					case 0:
						v = math.NaN()
					case 1:
						v = math.Inf(1)
					case 2:
						v = math.Inf(-1)
					}
				}
				a.SetOffset(off, v)
			}
			masks := map[string][]int{"wipe": lorenzoWipe(a)}
			for _, pct := range []int{0, 10, 20} {
				var masked []int
				for off := 0; off < a.Len(); off++ {
					if rng.Intn(100) < pct {
						masked = append(masked, off)
					}
				}
				masks[map[int]string{0: "0%", 10: "10%", 20: "20%"}[pct]] = masked
			}
			type variant struct {
				name    string
				install func(env *Env, offs []int)
			}
			for _, mname := range []string{"0%", "10%", "20%", "wipe"} {
				variants := []variant{}
				if mname == "0%" {
					variants = append(variants, variant{"none", func(*Env, []int) {}})
				}
				for _, m := range refMaskModes {
					variants = append(variants, variant(m))
				}
				for _, vt := range variants {
					got, ref := NewEnv(a, 1), NewEnv(a, 1)
					vt.install(got, masks[mname])
					vt.install(ref, masks[mname])
					idx := make([]int, len(dims))
					for L := 1; L <= 4; L++ {
						for off := 0; off < a.Len(); off++ {
							a.CoordsInto(idx, off)
							gv, gerr := Lorenzo{Layers: L}.Predict(got, idx)
							rv, rerr := lorenzoRef(ref, idx, L)
							compared++
							if rerr != nil {
								failed++
							}
							if gerr != rerr || math.Float64bits(gv) != math.Float64bits(rv) {
								t.Fatalf("dims %v poison %v mask %s/%s L=%d idx %v: got (%v [%#x], %v), reference (%v [%#x], %v)",
									dims, poison, mname, vt.name, L, idx, gv, math.Float64bits(gv), gerr, rv, math.Float64bits(rv), rerr)
							}
						}
					}
				}
			}
		}
	}
	if lorenzoRefDegraded == 0 || failed == 0 {
		t.Fatalf("coverage: %d predictions took the degraded path and %d failed; want both > 0", lorenzoRefDegraded, failed)
	}
	t.Logf("%d predictions bit-identical to the reference (%d degraded, %d unsupported)", compared, lorenzoRefDegraded, failed)
}
