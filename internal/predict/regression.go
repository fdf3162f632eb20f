package predict

import (
	"math"
	"slices"

	"spatialdue/internal/ndarray"
)

// The regression predictors of Sections 3.4.6 and 3.4.7 fit the first-order
// model introduced by SZ-2.0,
//
//	v(x) ~ b0 + b1*x_0 + b2*x_1 + ... + bd*x_{d-1},
//
// by least squares and evaluate the fitted hyperplane at the corrupted
// index. Global regression (3.4.6) fits over the entire dataset excluding
// the corrupted element; local regression (3.4.7) fits over a patch of
// Radius layers in every dimension around it, again excluding it.

// Moments accumulates the sufficient statistics of the least-squares fit
// (the normal-equation matrix X'X and vector X'v) over an entire array so
// that "fit excluding one element" becomes an O(1) rank-1 downdate instead
// of an O(N) scan. Coordinates are centered at the array midpoint to keep
// the normal equations well conditioned on large grids.
type Moments struct {
	p      int       // number of features: 1 + NumDims
	xtx    []float64 // p*p, row-major
	xtv    []float64 // p
	n      int       // number of rows accumulated
	center []float64 // per-dimension coordinate offset
	shape  []int

	idxBuf []int     // scratch for AddElement/SubElement
	phiBuf []float64 // scratch for AddElement/SubElement
}

// NewMoments scans the array once and accumulates the full-dataset moments.
func NewMoments(a *ndarray.Array) *Moments {
	m := newMoments(a)
	m.accumulate(a.Data(), nil)
	return m
}

// newMoments returns empty moments for an array of a's shape.
func newMoments(a *ndarray.Array) *Moments {
	d := a.NumDims()
	m := &Moments{
		p:      d + 1,
		xtx:    make([]float64, (d+1)*(d+1)),
		xtv:    make([]float64, d+1),
		center: make([]float64, d),
		shape:  a.Dims(),
		idxBuf: make([]int, d),
		phiBuf: make([]float64, d+1),
	}
	for t := 0; t < d; t++ {
		m.center[t] = float64(a.Dim(t)-1) / 2
	}
	return m
}

// accumulate fills empty moments from data — the values of an array of m's
// shape, in offset order — leaving out the cells at the offsets excl (in
// range, ascending, no duplicates). It returns the minimum and maximum of the
// cells it took, NaN cells aside: (NaN, NaN) when there is no such cell. It
// is the one array-wide scan behind both NewMoments and SharedStats.
//
// The result is, bit for bit, what adding the cells one by one in offset
// order gives (Moments.add, which the incremental updates still use and a
// test-only reference loop replays over whole arrays). The two halves of the
// normal equations get there differently:
//
// X'X. Every feature is a half-integer: phi_0 = 1 and phi_t = x_t - (n_t-1)/2
// with |phi_t| <= (n_t-1)/2. In units of 1/4, then, every product phi_i*phi_j
// is an integer of magnitude at most e*e, where e = max(maxDim-1, 2), and the
// sum of any subset of the N cells' products is an integer of magnitude at
// most N*e*e. While N*e*e < 2^53 every such sum is a float64, so adding the
// cells one by one never rounds: the result does not depend on the order of
// the additions and equals the sum over the full grid in closed form — N, zero
// off the diagonal (centred coordinates sum to zero along every axis) and
// (N/n_t) * sum_x (x - (n_t-1)/2)^2 on it — less one rank-1 term per excluded
// cell. Past the bound (a 1-D array over ~208 000 cells, a 9 742 x 9 742 grid)
// the one-by-one additions may round, so X'X is accumulated inside the walk
// the way the reference does it.
//
// X'v. The terms phi_t*v round, and so does every addition, so each entry is
// accumulated cell by cell in offset order with the same two roundings per
// term. Entries are independent accumulators: sharing one pass between them
// reorders no entry's additions. The features need no division: all but the
// last coordinate are constant along a row and advance as an odometer, the
// last one counts up from the row's start. With the excluded offsets sorted,
// a row is runs of cells between them, and a row without one a single run.
func (m *Moments) accumulate(data []float64, excl []int) (lo, hi float64) {
	p, d, n := m.p, m.p-1, len(data)
	rowLen := m.shape[d-1]
	cLast := m.center[d-1]
	xtx, xtv, phi := m.xtx, m.xtv, m.phiBuf
	m.n = n - len(excl)

	e := 2
	for _, dim := range m.shape {
		if dim-1 > e {
			e = dim - 1
		}
	}
	exact := n <= (1<<53-1)/e/e
	if exact {
		xtx[0] = float64(n)
		for t, dim := range m.shape {
			var sq float64
			for x := 0; x < dim; x++ {
				f := float64(x) - m.center[t]
				sq += f * f
			}
			xtx[(t+1)*p+t+1] = sq * float64(n/dim)
		}
	}

	// X'v entries 0, 1, 2 and d (the last coordinate's) accumulate in
	// registers for the whole walk, as in LocalRegression.Predict: up to 3-D
	// that is every entry. An entry a lower-dimensional fit lacks is a dummy
	// that is never stored.
	w := newRowWalk()
	lead := m.idxBuf[:d-1] // the row's leading coordinates
	for t := range lead {
		lead[t] = 0
	}
	phi[0] = 1
	k := 0 // excl[k:] are the excluded offsets not yet passed
	for base := 0; base < n; base += rowLen {
		for t, x := range lead {
			phi[t+1] = float64(x) - m.center[t]
		}
		var f1, f2 float64
		if d > 1 {
			f1 = phi[1]
		}
		if d > 2 {
			f2 = phi[2]
		}
		end := base + rowLen
		for off := base; off < end; off++ { // off++ steps over the excluded cell that ended a run
			stop := end
			if k < len(excl) && excl[k] < end {
				stop = excl[k]
				k++
			}
			run := data[off:stop]
			w.add(run, f1, f2, float64(off-base)-cLast)
			for t := 3; t < d; t++ {
				acc, f := xtv[t], phi[t]
				for _, v := range run {
					acc += f * v
				}
				xtv[t] = acc
			}
			if !exact {
				x := float64(off-base) - cLast
				for range run {
					phi[d] = x
					for i := 0; i < p; i++ {
						for j := i; j < p; j++ {
							xtx[i*p+j] += phi[i] * phi[j]
						}
					}
					x++
				}
			} else if stop < end {
				// The excluded cell ending the run leaves the closed form.
				phi[d] = float64(stop-base) - cLast
				for i := 0; i < p; i++ {
					for j := i; j < p; j++ {
						xtx[i*p+j] -= phi[i] * phi[j]
					}
				}
			}
			off = stop
		}
		for t := d - 2; t >= 0; t-- {
			if lead[t]++; lead[t] < m.shape[t] {
				break
			}
			lead[t] = 0
		}
	}
	xtv[0] = w.a0
	if d > 1 {
		xtv[1] = w.a1
	}
	if d > 2 {
		xtv[2] = w.a2
	}
	xtv[d] = w.ax
	for i := 0; i < p; i++ {
		for j := 0; j < i; j++ {
			xtx[i*p+j] = xtx[j*p+i]
		}
	}
	return w.span()
}

// rowWalk is what accumulate carries from one run of cells to the next: the
// four X'v entries every cell feeds and the range so far.
type rowWalk struct {
	a0, a1, a2, ax float64
	lo, hi         float64
}

func newRowWalk() rowWalk { return rowWalk{lo: math.Inf(1), hi: math.Inf(-1)} }

// span returns the minimum and maximum of the cells added, NaN cells aside:
// (NaN, NaN) when there was none.
func (w *rowWalk) span() (lo, hi float64) {
	if w.lo > w.hi {
		return math.NaN(), math.NaN()
	}
	return w.lo, w.hi
}

// add folds one run of a row's cells into w. f1 and f2 are the row's first
// two features, x the last feature of the run's first cell. A function of its
// own so that the loop keeps all of its state in registers.
func (w *rowWalk) add(run []float64, f1, f2, x float64) {
	a0, a1, a2, ax, lo, hi := w.a0, w.a1, w.a2, w.ax, w.lo, w.hi
	for _, v := range run {
		a0 += v
		a1 += f1 * v
		a2 += f2 * v
		ax += x * v
		x++
		// NaN compares false both ways and is skipped.
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	w.a0, w.a1, w.a2, w.ax, w.lo, w.hi = a0, a1, a2, ax, lo, hi
}

// rangeExcluding returns the minimum and maximum of data less the cells at
// the ascending offsets excl, by rowWalk's rule. It is the walk of accumulate
// with the rows and the sums left out (the features are zero).
func rangeExcluding(data []float64, excl []int) (lo, hi float64) {
	w := newRowWalk()
	off := 0
	for _, stop := range excl {
		w.add(data[off:stop], 0, 0, 0)
		off = stop + 1
	}
	w.add(data[off:], 0, 0, 0)
	return w.span()
}

// AddElementValue folds the element at off with an explicit value v (the
// value the caller knows was, or should be, accumulated — e.g. a snapshot
// value when the live cell has since been corrupted).
func (m *Moments) AddElementValue(a *ndarray.Array, off int, v float64) {
	m.updateElement(a, off, v, +1)
}

// SubElementValue removes the element at off with an explicit value v.
func (m *Moments) SubElementValue(a *ndarray.Array, off int, v float64) {
	m.updateElement(a, off, v, -1)
}

func (m *Moments) updateElement(a *ndarray.Array, off int, v, sign float64) {
	a.CoordsInto(m.idxBuf, off)
	m.features(m.idxBuf, m.phiBuf)
	m.add(m.phiBuf, v, sign)
	m.n += int(sign)
}

// features writes the feature vector [1, x_0-c_0, ...] for idx into dst.
func (m *Moments) features(idx []int, dst []float64) {
	dst[0] = 1
	for t := 0; t < m.p-1; t++ {
		dst[t+1] = float64(idx[t]) - m.center[t]
	}
}

// add accumulates (sign=+1) or removes (sign=-1) one observation.
func (m *Moments) add(phi []float64, v float64, sign float64) {
	for i := 0; i < m.p; i++ {
		for j := 0; j < m.p; j++ {
			m.xtx[i*m.p+j] += sign * phi[i] * phi[j]
		}
		m.xtv[i] += sign * phi[i] * v
	}
}

// PredictExcluding solves the least-squares fit over every element except
// idx and evaluates the fitted plane at idx. The array must hold the same
// data it held when the moments were built.
func (m *Moments) PredictExcluding(a *ndarray.Array, idx []int) (float64, error) {
	phi := make([]float64, m.p)
	m.features(idx, phi)
	v := a.At(idx...)

	// Copy and downdate the normal equations by the excluded row.
	xtx := append([]float64(nil), m.xtx...)
	xtv := append([]float64(nil), m.xtv...)
	for i := 0; i < m.p; i++ {
		for j := 0; j < m.p; j++ {
			xtx[i*m.p+j] -= phi[i] * phi[j]
		}
		xtv[i] -= phi[i] * v
	}
	beta, ok := solveSym(xtx, xtv, m.p)
	if !ok {
		return 0, ErrUnsupported
	}
	return dot(beta, phi), nil
}

// GlobalRegression implements Section 3.4.6. Unlike SZ, which fits
// regressions per block, this reconstruction uses the full dataset (which
// the paper notes hampers its accuracy via long-range correlations, and
// makes it by far the most expensive method at recovery time — Figure 10).
//
// When the Env carries precomputed moments the prediction is O(1); without
// them the predictor performs the honest O(N) scan the paper measures.
type GlobalRegression struct{}

// Name implements Predictor.
func (GlobalRegression) Name() string { return "Linear Regression" }

// Predict implements Predictor.
func (GlobalRegression) Predict(env *Env, idx []int) (float64, error) {
	a := env.A
	// Engine-shared moments: O(p^2) downdate against incrementally
	// maintained statistics. The shared exclusion set covers the quarantine
	// mask, so no rescan is needed even with masked cells in play.
	if env.shared != nil {
		return env.shared.PredictExcluding(idx)
	}
	// Precomputed moments include every element; with quarantined cells in
	// play they are no longer trustworthy, so fall back to the honest scan.
	if env.mom != nil && !env.HasMask() {
		return env.mom.PredictExcluding(a, idx)
	}
	// Full scan, skipping the corrupted element.
	d := a.NumDims()
	p := d + 1
	phi, xtx, xtv, solveM, solveX := env.fitScratch(p)
	for i := range xtx {
		xtx[i] = 0
	}
	for i := range xtv {
		xtv[i] = 0
	}
	skip := a.Offset(idx...)
	cur := env.ints(slotRegIdx)
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
	beta, ok := solveSymInto(solveM, solveX, xtx, xtv, p)
	if !ok {
		return 0, ErrUnsupported
	}
	phi[0] = 1
	for t := 0; t < d; t++ {
		phi[t+1] = float64(idx[t]) - (float64(a.Dim(t)-1) / 2)
	}
	return dot(beta, phi), nil
}

// LocalRegression implements Section 3.4.7: the same first-order fit
// restricted to a patch of Radius layers in all dimensions around the
// corrupted datum (V(i±R, j±R)), excluding the corrupted datum itself.
type LocalRegression struct {
	// Radius is the patch half-width in every dimension; the paper uses 3.
	Radius int
}

// Name implements Predictor.
func (LocalRegression) Name() string { return "Local Linear Regression" }

// Predict implements Predictor.
//
// The normal equations split by what their entries are made of. X'X holds
// sums of products of patch-relative coordinates — integers in [-Radius,
// Radius] — which float64 adds exactly in any order, so it comes in closed
// form from the patch's clip extents, less one rank-1 term per excluded cell.
// X'v holds sums of coordinate*value, whose rounding depends on the order of
// the additions, so it is accumulated cell by cell in row-major order; its
// entries are independent accumulators, so several can share one pass over
// the cells without reordering any entry's additions.
//
// The cells that must not be read — idx itself and the masked cells of the
// patch — are collected once, after the call starts and before the first
// read (Env.SetMaskFunc states the contract). A row of the patch is then
// runs of readable cells separated by excluded ones.
func (l LocalRegression) Predict(env *Env, idx []int) (float64, error) {
	a := env.A
	d := a.NumDims()
	p := d + 1
	r := l.Radius
	if r < 1 {
		return 0, ErrUnsupported
	}
	skip := a.Offset(idx...)
	phi, xtx, xtv, solveM, solveX := env.fitScratch(p)

	// The clipped box: its cell count and the linear span it lies in.
	n, first, last := 1, 0, 0
	for t := 0; t < d; t++ {
		lo, hi := a.PatchBounds(idx, r, t)
		n *= hi - lo + 1
		first += lo * a.Stride(t)
		last += hi * a.Stride(t)
	}

	// X'X over the whole box (upper triangle). With n_t cells, coordinate
	// sum S_t and sum of squares Q_t along dimension t, and n cells in all:
	// n, S_t*n/n_t, Q_t*n/n_t and S_s*S_t*n/(n_s*n_t).
	xtx[0] = float64(n)
	for t := 0; t < d; t++ {
		nT, sT, qT := axisSums(a, idx, r, t)
		xtx[t+1] = float64(sT * (n / nT))
		xtx[(t+1)*p+t+1] = float64(qT * (n / nT))
		for s := 0; s < t; s++ {
			nS, sS, _ := axisSums(a, idx, r, s)
			xtx[(s+1)*p+t+1] = float64(sS * sT * (n / nT / nS))
		}
	}

	// One mask query for the whole prediction; per cell when the mask cannot
	// enumerate (a bare predicate, Mask/Allow overrides, a span too wide).
	excl, enumerated := env.appendMaskedIn(env.sc.excluded[:0], first, last, n)
	if !enumerated {
		excl = excl[:0]
		rows := env.PatchRows(idx, r)
		for rows.Next() {
			for off, end := rows.Off, rows.Off+rows.Len; off < end; off++ {
				if off != skip && env.Masked(off) {
					excl = append(excl, off)
				}
			}
		}
	}
	if i, found := slices.BinarySearch(excl, skip); !found {
		excl = slices.Insert(excl, i, skip)
	}
	env.sc.excluded = excl

	for i := range xtv {
		xtv[i] = 0
	}
	phi[0] = 1
	data := a.Data()
	// X'v entries 0, 1, 2 and d (the last coordinate's, the one that varies
	// along a row) accumulate in registers for the whole walk: up to 3-D
	// that is every entry, one pass per run of cells (31 % faster on
	// BenchmarkLocalRegressionKernel than a pass per entry). An entry a
	// lower-dimensional fit lacks is a dummy that is never stored.
	var a0, a1, a2, ax float64
	k := 0 // excl[k:] are the excluded offsets not yet passed
	rows := env.PatchRows(idx, r)
	for rows.Next() {
		// Coordinates are centered at idx; all but the last are constant
		// along a row.
		for t := 0; t < d-1; t++ {
			phi[t+1] = float64(rows.Cur[t] - idx[t])
		}
		var f1, f2 float64
		if d > 1 {
			f1 = phi[1]
		}
		if d > 2 {
			f2 = phi[2]
		}
		// xAt0 is the last coordinate a cell at offset 0 would have.
		xAt0 := rows.Cur[d-1] - idx[d-1] - rows.Off
		for off, end := rows.Off, rows.Off+rows.Len; off < end; off++ {
			for k < len(excl) && excl[k] < off {
				k++ // inside the span but outside the patch
			}
			stop := end
			if k < len(excl) && excl[k] < end {
				stop = excl[k]
			}
			x := float64(xAt0 + off)
			for _, v := range data[off:stop] {
				a0 += v
				a1 += f1 * v
				a2 += f2 * v
				ax += x * v
				x++
			}
			for t := 3; t < d; t++ {
				acc, f := xtv[t], phi[t]
				for _, v := range data[off:stop] {
					acc += f * v
				}
				xtv[t] = acc
			}
			if off = stop; off < end {
				// The excluded cell ending the run leaves the fit.
				n--
				phi[d] = float64(xAt0 + off)
				for i := 0; i < p; i++ {
					for j := i; j < p; j++ {
						xtx[i*p+j] -= phi[i] * phi[j]
					}
				}
			}
		}
	}
	xtv[0] = a0
	if d > 1 {
		xtv[1] = a1
	}
	if d > 2 {
		xtv[2] = a2
	}
	xtv[d] = ax
	if n < p {
		return 0, ErrUnsupported
	}
	for i := 0; i < p; i++ {
		for j := 0; j < i; j++ {
			xtx[i*p+j] = xtx[j*p+i]
		}
	}
	beta, ok := solveSymInto(solveM, solveX, xtx, xtv, p)
	if !ok {
		return 0, ErrUnsupported
	}
	// The patch is centered at idx, so the prediction is the intercept.
	return beta[0], nil
}

// axisSums returns, for dimension t of the patch of radius r around idx
// clipped to a, the number of coordinates it covers and the sum and sum of
// squares of those coordinates relative to idx[t].
func axisSums(a *ndarray.Array, idx []int, r, t int) (n, sum, sq int) {
	lo, hi := a.PatchBounds(idx, r, t)
	for x := lo - idx[t]; x <= hi-idx[t]; x++ {
		sum += x
		sq += x * x
	}
	return hi - lo + 1, sum, sq
}

// solveSym solves the n x n linear system A x = b (A row-major, symmetric
// positive semi-definite normal equations) by Gaussian elimination with
// partial pivoting. It reports ok=false for singular systems.
func solveSym(a, b []float64, n int) ([]float64, bool) {
	return solveSymInto(make([]float64, n*n), make([]float64, n), a, b, n)
}

// solveSymInto is solveSym with caller-provided scratch: m (n*n) and x (n)
// receive working copies of a and b, so a and b are left untouched and no
// allocation occurs. The solution is returned in x.
func solveSymInto(m, x, a, b []float64, n int) ([]float64, bool) {
	copy(m, a)
	copy(x, b)
	for col := 0; col < n; col++ {
		// Partial pivot.
		piv, pmax := col, math.Abs(m[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m[r*n+col]); v > pmax {
				piv, pmax = r, v
			}
		}
		if pmax == 0 || math.IsNaN(pmax) {
			return nil, false
		}
		if piv != col {
			for c := 0; c < n; c++ {
				m[col*n+c], m[piv*n+c] = m[piv*n+c], m[col*n+c]
			}
			x[col], x[piv] = x[piv], x[col]
		}
		inv := 1 / m[col*n+col]
		for r := col + 1; r < n; r++ {
			f := m[r*n+col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				m[r*n+c] -= f * m[col*n+c]
			}
			x[r] -= f * x[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		s := x[r]
		for c := r + 1; c < n; c++ {
			s -= m[r*n+c] * x[c]
		}
		x[r] = s / m[r*n+r]
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, false
		}
	}
	return x, true
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

var (
	_ Predictor = GlobalRegression{}
	_ Predictor = LocalRegression{}
)
