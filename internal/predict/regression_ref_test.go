package predict

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"spatialdue/internal/ndarray"
)

// forEachInPatchRef is the closure-based patch walker LocalRegression used
// before the row walk (ndarray.ForEachInPatch, removed from non-test code),
// kept verbatim as the reference the differential test compares against.
func forEachInPatchRef(a *ndarray.Array, center []int, radius int, f func(idx []int, off int)) {
	d := a.NumDims()
	lo := make([]int, d)
	hi := make([]int, d)
	for t := 0; t < d; t++ {
		lo[t] = center[t] - radius
		if lo[t] < 0 {
			lo[t] = 0
		}
		hi[t] = center[t] + radius
		if hi[t] > a.Dim(t)-1 {
			hi[t] = a.Dim(t) - 1
		}
		if lo[t] > hi[t] {
			return
		}
	}
	idx := append([]int(nil), lo...)
	for {
		off := 0
		for t := range idx {
			off += idx[t] * a.Stride(t)
		}
		f(idx, off)
		t := len(idx) - 1
		for t >= 0 {
			idx[t]++
			if idx[t] <= hi[t] {
				break
			}
			idx[t] = lo[t]
			t--
		}
		if t < 0 {
			return
		}
	}
}

// localRegressionRef is LocalRegression.Predict as it was before the row
// walk: every cell a closure call, X'X accumulated beside X'v, Env.Masked
// asked per cell. Test-only; the one implementation in non-test code is
// LocalRegression.Predict.
func localRegressionRef(env *Env, idx []int, r int) (float64, error) {
	a := env.A
	d := a.NumDims()
	p := d + 1
	if r < 1 {
		return 0, ErrUnsupported
	}
	xtx := make([]float64, p*p)
	xtv := make([]float64, p)
	phi := make([]float64, p)
	skip := a.Offset(idx...)
	n := 0
	forEachInPatchRef(a, idx, r, func(cur []int, off int) {
		if off == skip || env.Masked(off) {
			return
		}
		phi[0] = 1
		for t := 0; t < d; t++ {
			phi[t+1] = float64(cur[t] - idx[t])
		}
		v := a.AtOffset(off)
		for i := 0; i < p; i++ {
			for j := i; j < p; j++ {
				xtx[i*p+j] += phi[i] * phi[j]
			}
			xtv[i] += phi[i] * v
		}
		n++
	})
	if n < p {
		return 0, ErrUnsupported
	}
	for i := 0; i < p; i++ {
		for j := 0; j < i; j++ {
			xtx[i*p+j] = xtx[j*p+i]
		}
	}
	beta, ok := solveSym(xtx, xtv, p)
	if !ok {
		return 0, ErrUnsupported
	}
	return beta[0], nil
}

// setMask is an enumerable MaskSource over a plain set — the shape of the
// engine's per-array quarantine view — that counts how it is asked.
type setMask struct {
	offs    map[int]bool
	decline bool // refuse to enumerate, as the quarantine does for too wide a span

	maskedCalls, appendCalls int
}

func newSetMask(offs ...int) *setMask {
	m := &setMask{offs: map[int]bool{}}
	for _, off := range offs {
		m.offs[off] = true
	}
	return m
}

func (m *setMask) Masked(off int) bool {
	m.maskedCalls++
	return m.offs[off]
}

func (m *setMask) AppendMasked(dst []int, lo, hi, limit int) ([]int, bool) {
	m.appendCalls++
	if m.decline || len(m.offs) > limit {
		return dst, false
	}
	from := len(dst)
	for off := range m.offs {
		if off >= lo && off <= hi {
			dst = append(dst, off)
		}
	}
	sort.Ints(dst[from:])
	return dst, true
}

// refMaskModes are the ways a mask can reach an Env. Every one must give
// LocalRegression the reference kernel's bits.
var refMaskModes = []struct {
	name    string
	install func(env *Env, offs []int)
}{
	{"predicate", func(env *Env, offs []int) {
		set := newSetMask(offs...)
		env.SetMaskFunc(func(off int) bool { return set.offs[off] })
	}},
	{"enumerable", func(env *Env, offs []int) { env.SetMaskSource(newSetMask(offs...)) }},
	{"declining", func(env *Env, offs []int) {
		set := newSetMask(offs...)
		set.decline = true
		env.SetMaskSource(set)
	}},
	{"offsets", func(env *Env, offs []int) { env.Mask(offs...) }},
	{"enumerable+allow", func(env *Env, offs []int) {
		// An Allow override on top of a source: the first masked offset is
		// readable again (burst seeding does this).
		env.SetMaskSource(newSetMask(offs...))
		if len(offs) > 0 {
			env.Allow(offs[0])
		}
	}},
}

// TestLocalRegressionMatchesReference is the differential test behind the
// row-walk kernel: same float64 bits and same error/no-error as the old
// closure kernel at every offset (so every clip case) of 1-D to 4-D shapes,
// four radii, finite and NaN/Inf-laced values, and every mask mode at 0 %,
// 10 % and 20 % masked.
func TestLocalRegressionMatchesReference(t *testing.T) {
	shapes := [][]int{{13}, {1}, {9, 10}, {1, 8}, {3, 3, 3}, {5, 6, 7}, {4, 1, 6}, {3, 4, 3, 5}}
	rng := rand.New(rand.NewSource(99))
	compared := 0
	for _, dims := range shapes {
		for _, poison := range []bool{false, true} {
			a := ndarray.New(dims...)
			for off := 0; off < a.Len(); off++ {
				v := 50 + 10*rng.NormFloat64()
				if poison {
					switch rng.Intn(40) {
					case 0:
						v = math.NaN()
					case 1:
						v = math.Inf(1)
					case 2:
						v = math.Inf(-1)
					case 3:
						v = 0
					}
				}
				a.SetOffset(off, v)
			}
			for _, pct := range []int{0, 10, 20} {
				var masked []int
				for off := 0; off < a.Len(); off++ {
					if rng.Intn(100) < pct {
						masked = append(masked, off)
					}
				}
				type variant struct {
					name    string
					install func(env *Env, offs []int)
				}
				variants := []variant{}
				if pct == 0 {
					variants = append(variants, variant{"none", func(*Env, []int) {}})
				}
				for _, m := range refMaskModes {
					variants = append(variants, variant(m))
				}
				for _, vt := range variants {
					got, ref := NewEnv(a, 1), NewEnv(a, 1)
					vt.install(got, masked)
					vt.install(ref, masked)
					idx := make([]int, len(dims))
					for _, r := range []int{1, 2, 3, 5} {
						for off := 0; off < a.Len(); off++ {
							a.CoordsInto(idx, off)
							gv, gerr := LocalRegression{Radius: r}.Predict(got, idx)
							rv, rerr := localRegressionRef(ref, idx, r)
							compared++
							if (gerr != nil) != (rerr != nil) || math.Float64bits(gv) != math.Float64bits(rv) {
								t.Fatalf("dims %v poison %v mask %s %d%% r=%d idx %v: got (%v [%#x], %v), reference (%v [%#x], %v)",
									dims, poison, vt.name, pct, r, idx, gv, math.Float64bits(gv), gerr, rv, math.Float64bits(rv), rerr)
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d predictions bit-identical to the reference kernel", compared)
}

// TestLocalRegressionMaskFreshness pins the mask contract on one Env: an
// offset masked between two Predict calls is excluded by the second (nothing
// is cached across predictions), and unmasking it brings it back.
func TestLocalRegressionMaskFreshness(t *testing.T) {
	a := fill([]int{12, 12, 12}, func(idx []int) float64 {
		return 20 + math.Sin(float64(idx[0])) + 0.5*float64(idx[1]) - 0.25*float64(idx[2]*idx[2])
	})
	idx := []int{6, 6, 6}
	nb := a.Offset(6, 7, 5)
	p := LocalRegression{Radius: 3}

	for _, enumerable := range []bool{true, false} {
		set := newSetMask(a.Offset(idx...))
		env := NewEnv(a, 1)
		if enumerable {
			env.SetMaskSource(set)
		} else {
			env.SetMaskFunc(func(off int) bool { return set.offs[off] })
		}
		before, err := p.Predict(env, idx)
		if err != nil {
			t.Fatal(err)
		}

		// The neighbour goes bad and is reported before the next prediction.
		saved := a.AtOffset(nb)
		a.SetOffset(nb, math.NaN())
		set.offs[nb] = true
		after, err := p.Predict(env, idx)
		if err != nil {
			t.Fatalf("enumerable=%v: prediction read the NaN neighbour masked before it started: %v", enumerable, err)
		}
		want, err := localRegressionRef(env, idx, 3)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(after) != math.Float64bits(want) {
			t.Errorf("enumerable=%v: with the neighbour masked got %v, reference %v", enumerable, after, want)
		}
		if after == before {
			t.Errorf("enumerable=%v: masking a neighbour did not change the fit (%v)", enumerable, after)
		}

		// Repaired and released: it feeds the next prediction again.
		a.SetOffset(nb, saved)
		delete(set.offs, nb)
		again, err := p.Predict(env, idx)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(again) != math.Float64bits(before) {
			t.Errorf("enumerable=%v: after release got %v, want the original %v", enumerable, again, before)
		}
	}
}

// TestLocalRegressionAsksMaskOncePerPrediction: an enumerable source gets one
// range query per prediction and no per-cell calls; a source that declines,
// like a bare predicate, is asked once per cell of the patch except the
// target.
func TestLocalRegressionAsksMaskOncePerPrediction(t *testing.T) {
	a := fill([]int{9, 9, 9}, func(idx []int) float64 { return float64(idx[0] + 2*idx[1] + 3*idx[2]) })
	idx := []int{4, 4, 4}
	p := LocalRegression{Radius: 3}

	set := newSetMask(a.Offset(idx...), a.Offset(4, 4, 5))
	env := NewEnv(a, 1)
	env.SetMaskSource(set)
	for i := 1; i <= 3; i++ {
		if _, err := p.Predict(env, idx); err != nil {
			t.Fatal(err)
		}
		if set.appendCalls != i || set.maskedCalls != 0 {
			t.Fatalf("after %d predictions: %d range queries, %d per-cell calls; want %d and 0", i, set.appendCalls, set.maskedCalls, i)
		}
	}

	set.decline = true
	set.appendCalls, set.maskedCalls = 0, 0
	if _, err := p.Predict(env, idx); err != nil {
		t.Fatal(err)
	}
	if want := 7*7*7 - 1; set.appendCalls != 1 || set.maskedCalls != want {
		t.Errorf("declining source: %d range queries, %d per-cell calls; want 1 and %d", set.appendCalls, set.maskedCalls, want)
	}
}
