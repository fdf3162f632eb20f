package ndarray

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapes(t *testing.T) {
	cases := []struct {
		dims []int
		len  int
	}{
		{[]int{5}, 5},
		{[]int{3, 4}, 12},
		{[]int{2, 3, 4}, 24},
		{[]int{1, 1, 1, 1}, 1},
		{[]int{7, 1, 2}, 14},
	}
	for _, c := range cases {
		a := New(c.dims...)
		if a.Len() != c.len {
			t.Errorf("New(%v).Len() = %d, want %d", c.dims, a.Len(), c.len)
		}
		if a.NumDims() != len(c.dims) {
			t.Errorf("New(%v).NumDims() = %d, want %d", c.dims, a.NumDims(), len(c.dims))
		}
		for d, n := range c.dims {
			if a.Dim(d) != n {
				t.Errorf("New(%v).Dim(%d) = %d, want %d", c.dims, d, a.Dim(d), n)
			}
		}
	}
}

func TestTryNewErrors(t *testing.T) {
	for _, dims := range [][]int{{}, {0}, {-1}, {3, 0}, {3, -2, 4}} {
		if _, err := TryNew(dims...); !errors.Is(err, ErrShape) {
			t.Errorf("TryNew(%v) error = %v, want ErrShape", dims, err)
		}
	}
}

func TestTryNewOverflow(t *testing.T) {
	if _, err := TryNew(math.MaxInt/2, 3); !errors.Is(err, ErrShape) {
		t.Errorf("overflow: got %v, want ErrShape", err)
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestFromData(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	a, err := FromData(data, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.At(1, 2); got != 6 {
		t.Errorf("At(1,2) = %v, want 6", got)
	}
	// No copy: writes are visible both ways.
	a.Set(42, 0, 1)
	if data[1] != 42 {
		t.Errorf("FromData copied the slice; want aliasing")
	}
}

func TestFromDataLengthMismatch(t *testing.T) {
	if _, err := FromData(make([]float64, 5), 2, 3); !errors.Is(err, ErrShape) {
		t.Errorf("got %v, want ErrShape", err)
	}
}

func TestStridesRowMajor(t *testing.T) {
	a := New(2, 3, 4)
	want := []int{12, 4, 1}
	got := a.Strides()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Strides() = %v, want %v", got, want)
		}
	}
	// Last dimension is fastest: consecutive offsets differ in dim 2.
	if a.Offset(0, 0, 1)-a.Offset(0, 0, 0) != 1 {
		t.Error("last dimension is not contiguous")
	}
}

func TestOffsetCoordsRoundTrip(t *testing.T) {
	a := New(3, 5, 7)
	for off := 0; off < a.Len(); off++ {
		idx := a.Coords(off)
		if got := a.Offset(idx...); got != off {
			t.Fatalf("Offset(Coords(%d)) = %d", off, got)
		}
	}
}

func TestOffsetCoordsRoundTripQuick(t *testing.T) {
	// Property: for random shapes, Coords and Offset are inverse bijections.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := make([]int, 1+rng.Intn(4))
		for i := range dims {
			dims[i] = 1 + rng.Intn(6)
		}
		a := New(dims...)
		off := rng.Intn(a.Len())
		return a.Offset(a.Coords(off)...) == off
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTryOffsetErrors(t *testing.T) {
	a := New(3, 4)
	cases := [][]int{{3, 0}, {0, 4}, {-1, 0}, {0, -1}, {0}, {0, 0, 0}}
	for _, idx := range cases {
		if _, err := a.TryOffset(idx...); !errors.Is(err, ErrBounds) {
			t.Errorf("TryOffset(%v) error = %v, want ErrBounds", idx, err)
		}
	}
	if off, err := a.TryOffset(2, 3); err != nil || off != 11 {
		t.Errorf("TryOffset(2,3) = %d, %v", off, err)
	}
}

// TestOffsetOKMatchesTryOffset holds the inlinable OffsetOK to TryOffset:
// the same offset for every index in bounds, and ok = false exactly where
// TryOffset fails — a coordinate below zero or past its dimension, or the
// wrong number of coordinates.
func TestOffsetOKMatchesTryOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, dims := range [][]int{{7}, {1}, {3, 5}, {4, 1, 6}, {2, 3, 2, 3}} {
		a := New(dims...)
		for i := 0; i < 500; i++ {
			idx := make([]int, len(dims)+rng.Intn(5)/4-rng.Intn(5)/4)
			for d := range idx {
				idx[d] = rng.Intn(9) - 2
				if d < len(dims) && rng.Intn(2) == 0 {
					idx[d] = rng.Intn(dims[d])
				}
			}
			want, err := a.TryOffset(idx...)
			got, ok := a.OffsetOK(idx)
			if ok != (err == nil) || (ok && got != want) {
				t.Fatalf("dims %v idx %v: OffsetOK = %d, %v; TryOffset = %d, %v", dims, idx, got, ok, want, err)
			}
		}
	}
}

func TestCoordsIntoPanics(t *testing.T) {
	a := New(3, 4)
	for _, tc := range []struct {
		dst []int
		off int
	}{
		{make([]int, 1), 0},  // wrong arity
		{make([]int, 2), -1}, // negative offset
		{make([]int, 2), 12}, // out of range
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CoordsInto(dst len %d, off %d) did not panic", len(tc.dst), tc.off)
				}
			}()
			a.CoordsInto(tc.dst, tc.off)
		}()
	}
}

func TestSetAtOffsetAccessors(t *testing.T) {
	a := New(4, 4)
	a.SetOffset(5, 2.5)
	if a.AtOffset(5) != 2.5 || a.At(1, 1) != 2.5 {
		t.Error("SetOffset/At disagree")
	}
	a.Set(7, 3, 3)
	if a.AtOffset(15) != 7 {
		t.Error("Set/AtOffset disagree")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := New(2, 2)
	a.Fill(3)
	b := a.Clone()
	b.Set(9, 0, 0)
	if a.At(0, 0) != 3 {
		t.Error("Clone shares storage with original")
	}
	if !SameShape(a, b) {
		t.Error("Clone changed shape")
	}
}

// TestCloneHeapAllocations pins the heap-clone allocation budget: the data
// copy, the backing wrapper, and the Array struct — dims and strides are
// immutable and shared with the source. The pre-backing implementation also
// duplicated dims and strides (5 allocations); checkpoint paths clone every
// protected array, so the budget is load-bearing, not cosmetic.
func TestCloneHeapAllocations(t *testing.T) {
	a := New(64, 64)
	a.FillFunc(func(idx []int) float64 { return float64(idx[0]*64 + idx[1]) })
	var c *Array
	allocs := testing.AllocsPerRun(100, func() { c = a.Clone() })
	if allocs > 3 {
		t.Fatalf("Clone allocated %.0f times, want <= 3 (data + backing + struct)", allocs)
	}
	if c.At(5, 6) != a.At(5, 6) || !SameShape(a, c) {
		t.Fatal("budget-counted clone is not a faithful copy")
	}
	if _, ok := c.Backing().(*heapBacking); !ok {
		t.Fatalf("heap clone backing = %T, want *heapBacking", c.Backing())
	}
}

func TestSameShape(t *testing.T) {
	if SameShape(New(2, 3), New(3, 2)) {
		t.Error("2x3 and 3x2 reported same shape")
	}
	if SameShape(New(6), New(2, 3)) {
		t.Error("6 and 2x3 reported same shape")
	}
	if !SameShape(New(2, 3), New(2, 3)) {
		t.Error("2x3 and 2x3 reported different shapes")
	}
}

func TestFillFunc(t *testing.T) {
	a := New(3, 4)
	a.FillFunc(func(idx []int) float64 { return float64(idx[0]*10 + idx[1]) })
	if a.At(2, 3) != 23 || a.At(0, 0) != 0 || a.At(1, 2) != 12 {
		t.Error("FillFunc wrote wrong values")
	}
}

func TestMinMax(t *testing.T) {
	a, _ := FromData([]float64{3, -1, 7, 2}, 4)
	min, max := a.MinMax()
	if min != -1 || max != 7 {
		t.Errorf("MinMax = (%v, %v), want (-1, 7)", min, max)
	}
	if a.ValueRange() != 8 {
		t.Errorf("ValueRange = %v, want 8", a.ValueRange())
	}
}

func TestMinMaxIgnoresNaN(t *testing.T) {
	a, _ := FromData([]float64{math.NaN(), 2, 5}, 3)
	min, max := a.MinMax()
	if min != 2 || max != 5 {
		t.Errorf("MinMax with NaN = (%v, %v), want (2, 5)", min, max)
	}
	b, _ := FromData([]float64{math.NaN()}, 1)
	min, max = b.MinMax()
	if !math.IsNaN(min) || !math.IsNaN(max) {
		t.Error("all-NaN MinMax should be NaN")
	}
	if b.ValueRange() != 0 {
		t.Error("all-NaN ValueRange should be 0")
	}
}

func TestMean(t *testing.T) {
	a, _ := FromData([]float64{1, 2, 3, 4}, 4)
	if a.Mean() != 2.5 {
		t.Errorf("Mean = %v", a.Mean())
	}
}

func TestApproxEqual(t *testing.T) {
	a, _ := FromData([]float64{1, 2}, 2)
	b, _ := FromData([]float64{1.0005, 2}, 2)
	if !ApproxEqual(a, b, 1e-3) {
		t.Error("within tolerance reported unequal")
	}
	if ApproxEqual(a, b, 1e-6) {
		t.Error("outside tolerance reported equal")
	}
	c, _ := FromData([]float64{1, 2}, 1, 2)
	if ApproxEqual(a, c, 1) {
		t.Error("different shapes reported equal")
	}
	n1, _ := FromData([]float64{math.NaN()}, 1)
	n2, _ := FromData([]float64{math.NaN()}, 1)
	if !ApproxEqual(n1, n2, 0) {
		t.Error("NaN should equal NaN in ApproxEqual")
	}
}

// forEachInPatch visits every cell of the patch through PatchRows, handing f
// the cell's coordinates and offset the way the closure-based walker that
// PatchRows replaced did; the ForEachInPatch tests keep pinning its contract
// (clipping, centre included, row-major order, no cell twice) on the row walk.
func forEachInPatch(a *Array, center []int, radius int, f func(idx []int, off int)) {
	rows := a.PatchRows(center, radius, make([]int, a.NumDims()))
	idx := make([]int, a.NumDims())
	last := a.NumDims() - 1
	for rows.Next() {
		copy(idx, rows.Cur)
		for c := 0; c < rows.Len; c++ {
			idx[last] = rows.Cur[last] + c
			f(idx, rows.Off+c)
		}
	}
}

func TestForEachInPatchCounts(t *testing.T) {
	a := New(10, 10)
	cases := []struct {
		center []int
		radius int
		want   int
	}{
		{[]int{5, 5}, 1, 9},    // full 3x3
		{[]int{5, 5}, 3, 49},   // full 7x7
		{[]int{0, 0}, 1, 4},    // corner-clipped 2x2
		{[]int{0, 5}, 1, 6},    // edge-clipped 2x3
		{[]int{9, 9}, 2, 9},    // corner-clipped 3x3
		{[]int{5, 5}, 0, 1},    // radius 0 is just the center
		{[]int{5, 5}, 20, 100}, // radius beyond bounds covers everything
	}
	for _, c := range cases {
		n := 0
		seenCenter := false
		forEachInPatch(a, c.center, c.radius, func(idx []int, off int) {
			n++
			if idx[0] == c.center[0] && idx[1] == c.center[1] {
				seenCenter = true
			}
			if off != a.Offset(idx...) {
				t.Fatalf("patch offset mismatch at %v", idx)
			}
		})
		if n != c.want {
			t.Errorf("patch(%v, r=%d) visited %d cells, want %d", c.center, c.radius, n, c.want)
		}
		if !seenCenter {
			t.Errorf("patch(%v, r=%d) skipped the center", c.center, c.radius)
		}
	}
}

func TestForEachInPatchIndexReuse(t *testing.T) {
	// The callback must not retain idx; verify the implementation reuses it
	// (documented behavior) by checking all offsets are distinct anyway.
	a := New(4, 4)
	seen := map[int]bool{}
	forEachInPatch(a, []int{1, 1}, 1, func(_ []int, off int) {
		if seen[off] {
			t.Fatalf("offset %d visited twice", off)
		}
		seen[off] = true
	})
	if len(seen) != 9 {
		t.Fatalf("visited %d offsets, want 9", len(seen))
	}
}

func TestForEachInPatch3D(t *testing.T) {
	a := New(5, 5, 5)
	n := 0
	forEachInPatch(a, []int{2, 2, 2}, 1, func([]int, int) { n++ })
	if n != 27 {
		t.Errorf("3-D patch visited %d, want 27", n)
	}
}

func TestForEachInPatchArityPanics(t *testing.T) {
	a := New(4, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-arity center did not panic")
		}
	}()
	forEachInPatch(a, []int{1}, 1, func([]int, int) {})
}

// TestPatchRowsMatchesBruteForce checks the row walk against the definition
// (every in-bounds cell within Chebyshev distance radius, ascending offset)
// for 1-D to 4-D shapes — including size-1 dimensions — every center, and
// centers outside the array.
func TestPatchRowsMatchesBruteForce(t *testing.T) {
	for _, dims := range [][]int{{9}, {1}, {4, 5}, {1, 6}, {3, 3, 3}, {4, 1, 5}, {3, 2, 4, 3}} {
		a := New(dims...)
		cur := make([]int, len(dims))
		idx := make([]int, len(dims))
		for _, radius := range []int{0, 1, 2, 5} {
			for c := -2; c < a.Len()+2; c++ {
				// In-range c are real cells; the rest push the first
				// coordinate outside the array.
				center := make([]int, len(dims))
				switch {
				case c < 0:
					center[0] = c
				case c >= a.Len():
					center[0] = dims[0] + c - a.Len()
				default:
					a.CoordsInto(center, c)
				}
				var want []int
				for off := 0; off < a.Len(); off++ {
					a.CoordsInto(idx, off)
					in := true
					for d := range idx {
						if idx[d] < center[d]-radius || idx[d] > center[d]+radius {
							in = false
						}
					}
					if in {
						want = append(want, off)
					}
				}
				var got []int
				rows := a.PatchRows(center, radius, cur)
				for rows.Next() {
					if rows.Off != a.Offset(rows.Cur...) {
						t.Fatalf("dims %v center %v r=%d: row Off %d != Offset(Cur %v)", dims, center, radius, rows.Off, rows.Cur)
					}
					for i := 0; i < rows.Len; i++ {
						got = append(got, rows.Off+i)
					}
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("dims %v center %v r=%d: walked %v, want %v", dims, center, radius, got, want)
				}
				if rows.Next() {
					t.Fatalf("dims %v center %v r=%d: Next true after the walk ended", dims, center, radius)
				}
			}
		}
	}
}

func TestPatchRowsZeroAllocs(t *testing.T) {
	a := New(6, 7, 8)
	center, cur := []int{3, 0, 4}, make([]int, 3)
	cells := 0
	if n := testing.AllocsPerRun(100, func() {
		rows := a.PatchRows(center, 2, cur)
		for rows.Next() {
			cells += rows.Len
		}
	}); n != 0 {
		t.Errorf("PatchRows walk: %v allocs, want 0", n)
	}
	if cells == 0 {
		t.Fatal("walk visited nothing")
	}
}

func TestString(t *testing.T) {
	if got := New(100, 500, 500).String(); got != "ndarray[100x500x500]" {
		t.Errorf("String() = %q", got)
	}
	if got := New(7).String(); got != "ndarray[7]" {
		t.Errorf("String() = %q", got)
	}
}

func TestDimsIsCopy(t *testing.T) {
	a := New(2, 3)
	d := a.Dims()
	d[0] = 99
	if a.Dim(0) != 2 {
		t.Error("Dims() exposed internal state")
	}
	s := a.Strides()
	s[0] = 99
	if a.Strides()[0] == 99 {
		t.Error("Strides() exposed internal state")
	}
}
