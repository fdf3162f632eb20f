// Package ndarray provides a dense, row-major, N-dimensional array of
// float64 values. It is the storage substrate shared by every other package
// in this repository: datasets are ndarrays, fault injection flips bits of
// ndarray elements, the spatial predictors read ndarray neighborhoods, and
// the checkpoint library serializes ndarrays.
//
// The layout is row-major ("C order"): the last dimension varies fastest.
// This matches the paper's convention, where index i is the slowest-changing
// dimension and j the fastest (Table 1 of the paper).
package ndarray

import (
	"errors"
	"fmt"
	"math"
)

// ErrShape is returned when a set of dimensions is invalid (empty, zero, or
// negative) or does not match a data slice.
var ErrShape = errors.New("ndarray: invalid shape")

// ErrBounds is returned by the Try* accessors when an index is out of range.
var ErrBounds = errors.New("ndarray: index out of bounds")

// Array is a dense N-dimensional array of float64 in row-major order.
//
// The zero value is not usable; construct arrays with New or FromData.
// Methods that take a multi-dimensional index accept exactly NumDims
// integers; the hot-path accessors (At, Set, Offset) panic on violations the
// same way built-in slice indexing does, while the Try variants return
// ErrBounds instead.
type Array struct {
	data    []float64
	backing Backing
	dims    []int
	strides []int
}

// New allocates a zero-filled array with the given dimensions.
func New(dims ...int) *Array {
	a, err := TryNew(dims...)
	if err != nil {
		panic(err)
	}
	return a
}

// TryNew is New returning an error instead of panicking on a bad shape.
func TryNew(dims ...int) (*Array, error) {
	n, err := checkDims(dims)
	if err != nil {
		return nil, err
	}
	b := &heapBacking{data: make([]float64, n)}
	return &Array{
		data:    b.data,
		backing: b,
		dims:    append([]int(nil), dims...),
		strides: computeStrides(dims),
	}, nil
}

// FromData wraps an existing slice as an array with the given dimensions.
// The slice is used directly (not copied); len(data) must equal the product
// of the dimensions.
func FromData(data []float64, dims ...int) (*Array, error) {
	n, err := checkDims(dims)
	if err != nil {
		return nil, err
	}
	if len(data) != n {
		return nil, fmt.Errorf("%w: data length %d != product of dims %d", ErrShape, len(data), n)
	}
	return &Array{
		data:    data,
		backing: &heapBacking{data: data},
		dims:    append([]int(nil), dims...),
		strides: computeStrides(dims),
	}, nil
}

// NewWithBacking builds an array over an externally managed Backing (e.g. an
// mmap-backed file store). The backing's slice length must equal the product
// of the dimensions. The array takes ownership of the backing for Seal,
// Advise, and Close purposes but never closes it itself.
func NewWithBacking(b Backing, dims ...int) (*Array, error) {
	n, err := checkDims(dims)
	if err != nil {
		return nil, err
	}
	if len(b.Slice()) != n {
		return nil, fmt.Errorf("%w: backing length %d != product of dims %d", ErrShape, len(b.Slice()), n)
	}
	return &Array{
		data:    b.Slice(),
		backing: b,
		dims:    append([]int(nil), dims...),
		strides: computeStrides(dims),
	}, nil
}

func checkDims(dims []int) (int, error) {
	if len(dims) == 0 {
		return 0, fmt.Errorf("%w: no dimensions", ErrShape)
	}
	n := 1
	for _, d := range dims {
		if d <= 0 {
			return 0, fmt.Errorf("%w: dimension %d", ErrShape, d)
		}
		if n > math.MaxInt/d {
			return 0, fmt.Errorf("%w: size overflow", ErrShape)
		}
		n *= d
	}
	return n, nil
}

func computeStrides(dims []int) []int {
	strides := make([]int, len(dims))
	s := 1
	for i := len(dims) - 1; i >= 0; i-- {
		strides[i] = s
		s *= dims[i]
	}
	return strides
}

// Len returns the total number of elements.
func (a *Array) Len() int { return len(a.data) }

// NumDims returns the number of dimensions.
func (a *Array) NumDims() int { return len(a.dims) }

// Dims returns a copy of the dimension sizes.
func (a *Array) Dims() []int { return append([]int(nil), a.dims...) }

// Dim returns the size of dimension d.
func (a *Array) Dim(d int) int { return a.dims[d] }

// Strides returns a copy of the row-major strides.
func (a *Array) Strides() []int { return append([]int(nil), a.strides...) }

// Stride returns the row-major stride of dimension d: the offset distance
// between cells whose coordinates differ by one in d only.
func (a *Array) Stride(d int) int { return a.strides[d] }

// Data returns the backing slice in row-major order. Mutating it mutates the
// array. This is the zero-copy path used by fault injection and
// checkpointing.
func (a *Array) Data() []float64 { return a.data }

// Offset converts a multi-dimensional index to a linear offset. It panics if
// the index has the wrong arity or is out of bounds.
func (a *Array) Offset(idx ...int) int {
	off, err := a.TryOffset(idx...)
	if err != nil {
		panic(err)
	}
	return off
}

// TryOffset is Offset returning ErrBounds instead of panicking.
func (a *Array) TryOffset(idx ...int) (int, error) {
	if len(idx) != len(a.dims) {
		return 0, fmt.Errorf("%w: got %d indices for %d dims", ErrBounds, len(idx), len(a.dims))
	}
	off := 0
	for d, i := range idx {
		if i < 0 || i >= a.dims[d] {
			return 0, fmt.Errorf("%w: index %d out of [0,%d) in dim %d", ErrBounds, i, a.dims[d], d)
		}
		off += i * a.strides[d]
	}
	return off, nil
}

// Coords converts a linear offset into a freshly allocated index vector.
func (a *Array) Coords(off int) []int {
	idx := make([]int, len(a.dims))
	a.CoordsInto(idx, off)
	return idx
}

// CoordsInto writes the multi-dimensional index of linear offset off into
// dst, which must have length NumDims. It panics if off is out of range.
func (a *Array) CoordsInto(dst []int, off int) {
	if off < 0 || off >= len(a.data) {
		panic(fmt.Errorf("%w: offset %d out of [0,%d)", ErrBounds, off, len(a.data)))
	}
	if len(dst) != len(a.dims) {
		panic(fmt.Errorf("%w: dst length %d != %d dims", ErrBounds, len(dst), len(a.dims)))
	}
	for d := 0; d < len(a.dims); d++ {
		dst[d] = off / a.strides[d]
		off %= a.strides[d]
	}
}

// At returns the element at the given multi-dimensional index.
func (a *Array) At(idx ...int) float64 { return a.data[a.Offset(idx...)] }

// Set stores v at the given multi-dimensional index.
func (a *Array) Set(v float64, idx ...int) { a.data[a.Offset(idx...)] = v }

// AtOffset returns the element at linear offset off.
func (a *Array) AtOffset(off int) float64 { return a.data[off] }

// SetOffset stores v at linear offset off.
func (a *Array) SetOffset(off int, v float64) { a.data[off] = v }

// Clone returns a deep copy of the array's values. The clone always lives on
// the heap regardless of the source backing (cloning an mmap-backed array
// must not create a second file), and shares the immutable dims/strides
// slices with the source so the only allocations are the copied data, the
// backing wrapper, and the Array struct itself.
func (a *Array) Clone() *Array {
	b := a.backing.CloneData()
	return &Array{
		data:    b.Slice(),
		backing: b,
		dims:    a.dims,
		strides: a.strides,
	}
}

// SameShape reports whether two arrays have identical dimensions.
func SameShape(a, b *Array) bool {
	if a.NumDims() != b.NumDims() {
		return false
	}
	for d := range a.dims {
		if a.dims[d] != b.dims[d] {
			return false
		}
	}
	return true
}

// Fill sets every element to v.
func (a *Array) Fill(v float64) {
	for i := range a.data {
		a.data[i] = v
	}
}

// FillFunc sets every element to f(idx). The index slice passed to f is
// reused between calls; f must not retain it.
func (a *Array) FillFunc(f func(idx []int) float64) {
	idx := make([]int, len(a.dims))
	for off := range a.data {
		a.CoordsInto(idx, off)
		a.data[off] = f(idx)
	}
}

// MinMax returns the minimum and maximum element values, ignoring NaNs.
// If every element is NaN it returns (NaN, NaN).
func (a *Array) MinMax() (min, max float64) {
	min, max = math.NaN(), math.NaN()
	for _, v := range a.data {
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

// ValueRange returns max - min (the dynamic range used to scale the Random
// predictor and the SDC detectors). It returns 0 for all-NaN arrays.
func (a *Array) ValueRange() float64 {
	min, max := a.MinMax()
	if math.IsNaN(min) || math.IsNaN(max) {
		return 0
	}
	return max - min
}

// Mean returns the arithmetic mean of all elements.
func (a *Array) Mean() float64 {
	sum := 0.0
	for _, v := range a.data {
		sum += v
	}
	return sum / float64(len(a.data))
}

// ApproxEqual reports whether the two arrays have the same shape and every
// pair of elements differs by at most tol (absolute). NaNs compare equal to
// NaNs.
func ApproxEqual(a, b *Array, tol float64) bool {
	if !SameShape(a, b) {
		return false
	}
	for i := range a.data {
		x, y := a.data[i], b.data[i]
		if math.IsNaN(x) && math.IsNaN(y) {
			continue
		}
		if math.Abs(x-y) > tol {
			return false
		}
	}
	return true
}

// PatchBounds returns the inclusive coordinate range [lo, hi] that the patch
// of Chebyshev radius `radius` around center covers in dimension d once it is
// clipped to the array. lo > hi means the patch is empty (center lies more
// than radius outside the array in that dimension).
func (a *Array) PatchBounds(center []int, radius, d int) (lo, hi int) {
	lo, hi = center[d]-radius, center[d]+radius
	if lo < 0 {
		lo = 0
	}
	if hi > a.dims[d]-1 {
		hi = a.dims[d] - 1
	}
	return lo, hi
}

// PatchRows walks the patch of Chebyshev radius `radius` around center — the
// hyper-cube of side 2*radius+1 clipped to the array bounds, center included
// — one row at a time: a row is a run of cells contiguous along the
// innermost dimension, and rows come in row-major order, so visiting every
// cell of every row in turn visits the patch in ascending offset order.
// Between calls to Next the exported fields describe the current row; all
// per-dimension state lives in the caller's scratch, so a walk allocates
// nothing.
type PatchRows struct {
	// Off is the linear offset of the current row's first cell and Len the
	// number of cells in the row (the cells are Data()[Off : Off+Len]).
	Off, Len int
	// Cur holds the coordinates of the current row's first cell. It is the
	// scratch slice handed to Array.PatchRows; callers may read it but must
	// not modify it during the walk.
	Cur []int

	a       *Array
	center  []int
	radius  int
	started bool
	empty   bool
}

// PatchRows starts a walk over the patch around center. cur is caller-owned
// scratch of length NumDims that the walk uses as its odometer; center must
// stay unmodified until the walk ends. It panics if center or cur has the
// wrong arity.
func (a *Array) PatchRows(center []int, radius int, cur []int) PatchRows {
	if len(center) != len(a.dims) || len(cur) != len(a.dims) {
		panic(fmt.Errorf("%w: center arity %d, scratch arity %d != %d dims", ErrBounds, len(center), len(cur), len(a.dims)))
	}
	w := PatchRows{Cur: cur, a: a, center: center, radius: radius}
	for d := range a.dims {
		lo, hi := a.PatchBounds(center, radius, d)
		if lo > hi {
			w.empty = true
			return w
		}
		cur[d] = lo
		w.Off += lo * a.strides[d]
		w.Len = hi - lo + 1 // the last dimension's extent survives the loop
	}
	return w
}

// Next advances to the next row and reports whether there is one.
func (w *PatchRows) Next() bool {
	if w.empty {
		return false
	}
	if !w.started {
		w.started = true
		return true
	}
	// Odometer over the leading dimensions; the innermost one is the row.
	for d := len(w.Cur) - 2; d >= 0; d-- {
		lo, hi := w.a.PatchBounds(w.center, w.radius, d)
		if w.Cur[d] < hi {
			w.Cur[d]++
			w.Off += w.a.strides[d]
			return true
		}
		w.Cur[d] = lo
		w.Off -= (hi - lo) * w.a.strides[d]
	}
	w.empty = true
	return false
}

// String returns a short human-readable description, e.g. "ndarray[100x500x500]".
func (a *Array) String() string {
	s := "ndarray["
	for d, n := range a.dims {
		if d > 0 {
			s += "x"
		}
		s += fmt.Sprint(n)
	}
	return s + "]"
}
