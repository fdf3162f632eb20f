package predict

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"spatialdue/internal/ndarray"
)

// sharedBuildRef is SharedStats.build as it was before the row walk: every
// cell a map look-up, a CoordsInto, a features call and a Moments.add that
// accumulates X'X beside X'v. Test-only; the one implementation in non-test
// code is Moments.accumulate.
func sharedBuildRef(a *ndarray.Array, snap []float64, excluded map[int]struct{}) *Moments {
	m := newMoments(a)
	idx := make([]int, a.NumDims())
	phi := make([]float64, m.p)
	for off := range snap {
		if _, ok := excluded[off]; ok {
			continue
		}
		a.CoordsInto(idx, off)
		m.features(idx, phi)
		m.add(phi, snap[off], +1)
		m.n++
	}
	return m
}

// sharedRangeRef is rescanRangeLocked as it was before the row walk.
func sharedRangeRef(snap []float64, excluded map[int]struct{}) (lo, hi float64) {
	lo, hi = math.NaN(), math.NaN()
	for off, v := range snap {
		if _, ok := excluded[off]; ok {
			continue
		}
		if math.IsNaN(v) {
			continue
		}
		if math.IsNaN(lo) || v < lo {
			lo = v
		}
		if math.IsNaN(hi) || v > hi {
			hi = v
		}
	}
	return lo, hi
}

// sameBits reports whether got and want are the same float64s bit for bit,
// any NaN matching any NaN (see goldenBits).
func sameBits(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if goldenBits(got[i]) != goldenBits(want[i]) {
			return false
		}
	}
	return true
}

// refShape draws a 1-D to 5-D shape with extents from 1 up, small enough
// that the reference loop stays cheap.
func refShape(rng *rand.Rand) []int {
	d := 1 + rng.Intn(5)
	dims := make([]int, d)
	for t := range dims {
		dims[t] = 1 + rng.Intn([]int{400, 40, 14, 8, 5}[d-1])
	}
	return dims
}

// refExclusions draws an exclusion set: none, one cell, a scattered handful,
// a dense third of the array, or whole rows plus the cells around their ends.
func refExclusions(rng *rand.Rand, dims []int, n int) []int {
	switch rng.Intn(5) {
	case 0:
		return nil
	case 1:
		return []int{rng.Intn(n)}
	case 2:
		return rng.Perm(n)[:1+rng.Intn(1+n/10)]
	case 3:
		return rng.Perm(n)[:n/3]
	}
	rowLen := dims[len(dims)-1]
	var excl []int
	for r := 0; r < 1+rng.Intn(3); r++ {
		base := rng.Intn(n/rowLen) * rowLen
		for off := base - 1; off <= base+rowLen; off++ {
			if off >= 0 && off < n {
				excl = append(excl, off)
			}
		}
	}
	return excl
}

// checkBuildAgainstRef builds SharedStats over a with excl excluded (before
// the build, so the walk skips them) and compares every statistic with the
// reference loop's, then excludes more cells after the build and compares the
// rescanned range.
func checkBuildAgainstRef(t *testing.T, a *ndarray.Array, excl []int, rng *rand.Rand) {
	t.Helper()
	name := fmt.Sprintf("dims %v, %d excluded", a.Dims(), len(excl))
	s := NewSharedStats(a)
	s.Exclude(excl...)
	s.Prepare()
	want := sharedBuildRef(a, s.snap, s.excluded)
	lo, hi := sharedRangeRef(s.snap, s.excluded)
	if s.mom.n != want.n {
		t.Errorf("%s: n = %d, reference %d", name, s.mom.n, want.n)
	}
	if !sameBits(s.mom.xtx, want.xtx) {
		t.Errorf("%s: xtx = %v, reference %v", name, s.mom.xtx, want.xtx)
	}
	if !sameBits(s.mom.xtv, want.xtv) {
		t.Errorf("%s: xtv = %v, reference %v", name, s.mom.xtv, want.xtv)
	}
	if gotLo, gotHi := s.Range(); !sameBits([]float64{gotLo, gotHi}, []float64{lo, hi}) {
		t.Errorf("%s: range = (%v, %v), reference (%v, %v)", name, gotLo, gotHi, lo, hi)
	}

	// Knock out the extrema until the range has been rescanned a few times.
	for i := 0; i < 3; i++ {
		lo, _ := s.Range()
		if math.IsNaN(lo) {
			break
		}
		for off, v := range s.snap {
			if v == lo {
				s.Exclude(off)
			}
		}
		s.Exclude(rng.Intn(a.Len()))
		lo, hi := sharedRangeRef(s.snap, s.excluded)
		if gotLo, gotHi := s.Range(); !sameBits([]float64{gotLo, gotHi}, []float64{lo, hi}) {
			t.Errorf("%s: rescanned range = (%v, %v), reference (%v, %v)", name, gotLo, gotHi, lo, hi)
		}
	}
}

// TestSharedBuildMatchesReference compares the row-walk build with the
// reference loop, bit for bit, over seeded random shapes, fields (some with
// NaN and ±Inf cells) and exclusion sets, and over two shapes past the bound
// up to which X'X has a closed form.
func TestSharedBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20261005))
	field := func(dims []int) *ndarray.Array {
		a := ndarray.New(dims...)
		data := a.Data()
		scale := math.Pow(10, float64(rng.Intn(7)-3))
		for off := range data {
			data[off] = scale * (rng.NormFloat64() + math.Sin(float64(off)/9))
		}
		if rng.Intn(4) == 0 {
			for _, off := range rng.Perm(len(data))[:1+rng.Intn(1+len(data)/20)] {
				data[off] = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}[rng.Intn(5)]
			}
		}
		return a
	}
	for i := 0; i < 300; i++ {
		a := field(refShape(rng))
		checkBuildAgainstRef(t, a, refExclusions(rng, a.Dims(), a.Len()), rng)
	}
	// Past the exactness bound. In 1-D the closed form's axis sum is the
	// reference's own sequence of additions, so only a second dimension shows
	// the difference: along 400000 cells the squared coordinates sum past
	// 2^51, where their quarter-integer terms round.
	for _, dims := range [][]int{{250000}, {2, 400000}} {
		for _, nExcl := range []int{0, 1, 50} {
			a := field(dims)
			checkBuildAgainstRef(t, a, rng.Perm(a.Len())[:nExcl], rng)
		}
	}

	// NewMoments reads the live array through the same walk.
	a := field([]int{9, 31, 12})
	got := NewMoments(a)
	want := sharedBuildRef(a, a.Data(), nil)
	if got.n != want.n || !sameBits(got.xtx, want.xtx) || !sameBits(got.xtv, want.xtv) {
		t.Errorf("NewMoments = %+v, reference %+v", got, want)
	}
}

// TestResnapshotLengthMismatchPanics pins the loud failure: an array that no
// longer has the snapshot's length must panic with both lengths, not be
// copied as a prefix.
func TestResnapshotLengthMismatchPanics(t *testing.T) {
	for _, n := range []int{40, 60} {
		s := NewSharedStats(ndarray.New(5, 10))
		s.a = ndarray.New(n)
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "50") || !strings.Contains(msg, fmt.Sprint(n)) {
					t.Errorf("Rebuild over a %d-cell array with a 50-cell snapshot: recovered %q, want a panic naming both lengths", n, msg)
				}
			}()
			s.Rebuild(nil)
		}()
	}
}
