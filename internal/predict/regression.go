package predict

import (
	"math"

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

// moments accumulates the sufficient statistics of the least-squares fit
// (the normal-equation matrix X'X and vector X'v) over an entire array so
// that "fit excluding one element" becomes an O(1) rank-1 downdate instead
// of an O(N) scan. Coordinates are centered at the array midpoint to keep
// the normal equations well conditioned on large grids.
type moments struct {
	a   *ndarray.Array // the shape the moments are over
	p   int            // number of features: 1 + NumDims
	xtx []float64      // p*p, row-major
	xtv []float64      // p
	n   int            // number of rows accumulated

	idxBuf []int     // scratch: accumulate's row odometer, a cell's coordinates
	phiBuf []float64 // scratch: a cell's features
}

// newMoments returns empty moments for an array of a's shape.
func newMoments(a *ndarray.Array) *moments {
	d := a.NumDims()
	return &moments{
		a:      a,
		p:      d + 1,
		xtx:    make([]float64, (d+1)*(d+1)),
		xtv:    make([]float64, d+1),
		idxBuf: make([]int, d),
		phiBuf: make([]float64, d+1),
	}
}

// center returns the midpoint of dimension t, the origin of its feature.
func (m *moments) center(t int) float64 { return float64(m.a.Dim(t)-1) / 2 }

// accumulate fills m from data — the values of an array of m's shape, in
// offset order — leaving out the cells at the offsets excl (in range,
// ascending, no duplicates). It returns the minimum and maximum of the cells
// it took, NaN cells aside: (NaN, NaN) when there is no such cell. It is the
// one array-wide walk behind the global fit, of SharedStats and of an Env
// without them alike.
//
// The result is, bit for bit, what adding the cells one by one in offset
// order gives (moments.add, which the incremental updates still use and a
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
func (m *moments) accumulate(data []float64, excl []int) (lo, hi float64) {
	p, d, n := m.p, m.p-1, len(data)
	rowLen := m.a.Dim(d - 1)
	cLast := m.center(d - 1)
	xtx, xtv, phi := m.xtx, m.xtv, m.phiBuf
	clear(xtx)
	clear(xtv)
	m.n = n - len(excl)

	e := 2
	for t := 0; t < d; t++ {
		e = max(e, m.a.Dim(t)-1)
	}
	exact := n <= (1<<53-1)/e/e
	if exact {
		xtx[0] = float64(n)
		for t := 0; t < d; t++ {
			dim, c := m.a.Dim(t), m.center(t)
			var sq float64
			for x := 0; x < dim; x++ {
				f := float64(x) - c
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
			phi[t+1] = float64(x) - m.center(t)
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
			if lead[t]++; lead[t] < m.a.Dim(t) {
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

// addElementValue folds the element at off with an explicit value v (the
// value the caller knows was, or should be, accumulated — e.g. a snapshot
// value when the live cell has since been corrupted).
func (m *moments) addElementValue(off int, v float64) { m.updateElement(off, v, +1) }

// subElementValue removes the element at off with an explicit value v.
func (m *moments) subElementValue(off int, v float64) { m.updateElement(off, v, -1) }

func (m *moments) updateElement(off int, v, sign float64) {
	m.a.CoordsInto(m.idxBuf, off)
	m.features(m.idxBuf, m.phiBuf)
	m.add(m.phiBuf, v, sign)
	m.n += int(sign)
}

// features writes the feature vector [1, x_0-c_0, ...] for idx into dst.
func (m *moments) features(idx []int, dst []float64) {
	dst[0] = 1
	for t := 0; t < m.p-1; t++ {
		dst[t+1] = float64(idx[t]) - m.center(t)
	}
}

// fitAt solves the normal equations xtx*beta = xtv of a p-feature fit (p =
// len(phi)), in place, and evaluates the fit at the features phi.
func fitAt(xtx, xtv, phi []float64) (float64, error) {
	beta, ok := solveSymInPlace(xtx, xtv, len(phi))
	if !ok {
		return 0, ErrUnsupported
	}
	return dot(beta, phi), nil
}

// add accumulates (sign=+1) or removes (sign=-1) one observation.
func (m *moments) add(phi []float64, v float64, sign float64) {
	for i := 0; i < m.p; i++ {
		for j := 0; j < m.p; j++ {
			m.xtx[i*m.p+j] += sign * phi[i] * phi[j]
		}
		m.xtv[i] += sign * phi[i] * v
	}
}

// GlobalRegression implements Section 3.4.6. Unlike SZ, which fits
// regressions per block, this reconstruction uses the full dataset (which
// the paper notes hampers its accuracy via long-range correlations, and
// makes it by far the most expensive method at recovery time — Figure 10).
//
// When the Env carries SharedStats the prediction is O(1). Without them each
// prediction walks the whole array once (moments.accumulate, the walk that
// builds SharedStats), leaving out idx and the masked cells.
type GlobalRegression struct{}

// Name implements Predictor.
func (GlobalRegression) Name() string { return "Linear Regression" }

// Predict implements Predictor.
func (GlobalRegression) Predict(env *Env, idx []int) (float64, error) {
	// Engine-shared moments: O(p^2) downdate against incrementally
	// maintained statistics. The shared exclusion set covers the quarantine
	// mask, so no rescan is needed even with masked cells in play.
	if env.shared != nil {
		return env.shared.PredictExcluding(idx)
	}
	a := env.A
	skip, ok := a.OffsetOK(idx)
	if !ok {
		skip = a.Offset(idx...) // panics with the index's error
	}
	p := a.NumDims() + 1
	phi, xtx, xtv, _ := env.fitScratch(p)
	m := moments{a: a, p: p, xtx: xtx, xtv: xtv, idxBuf: env.ints(slotRegIdx), phiBuf: phi}
	m.accumulate(a.Data(), env.excluded(idx, wholeArray, skip))
	m.features(idx, phi)
	return fitAt(xtx, xtv, phi)
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
// The closed form depends on nothing but those extents, so the Env keeps the
// last one it computed: the unclipped probes of a tuner run share one. X'v
// holds sums of coordinate*value, whose rounding depends on the order of the
// additions, so it is accumulated cell by cell in row-major order; its
// entries are independent accumulators, so several can share one pass over
// the cells without reordering any entry's additions.
//
// The cells that must not be read — idx itself and the masked cells of the
// patch — are collected once (Env.excluded), after the call starts and
// before the first read (Env.SetMaskFunc states the contract). A row of the
// patch is then runs of readable cells separated by excluded ones, and the
// walk that meets an excluded cell knows its coordinates and takes its term
// off X'X there.
func (l LocalRegression) Predict(env *Env, idx []int) (float64, error) {
	a := env.A
	d := a.NumDims()
	p := d + 1
	r := l.Radius
	if r < 1 {
		return 0, ErrUnsupported
	}
	skip, ok := a.OffsetOK(idx)
	if !ok {
		skip = a.Offset(idx...) // panics with the index's error
	}
	phi, xtx, xtv, memo := env.fitScratch(p)
	box, keyLo, keyHi := memo[:p*p], memo[p*p:p*p+d], memo[p*p+d:]

	// The clipped box, once per prediction: its bounds, its cell count and
	// whether the memoized X'X is its own.
	lo, hi := env.ints(slotRegLo), env.ints(slotRegHi)
	n := 1
	hit := true
	for t := 0; t < d; t++ {
		lo[t], hi[t] = a.PatchBounds(idx, r, t)
		n *= hi[t] - lo[t] + 1
		hit = hit && keyLo[t] == float64(lo[t]-idx[t]) && keyHi[t] == float64(hi[t]-idx[t])
	}

	if hit {
		copy(xtx, box)
	} else {
		// X'X over the whole box (upper triangle). With n_t cells,
		// coordinate sum S_t and sum of squares Q_t along dimension t, and
		// n cells in all: n, S_t*n/n_t, Q_t*n/n_t and S_s*S_t*n/(n_s*n_t),
		// the quotients taken as products of the other extents.
		xtx[0] = float64(n)
		sums := env.ints(slotRegSum)
		for t := 0; t < d; t++ {
			sT, qT := 0, 0
			for x := lo[t] - idx[t]; x <= hi[t]-idx[t]; x++ {
				sT += x
				qT += x * x
			}
			sums[t] = sT
			rest := 1 // n/n_t
			for u := 0; u < d; u++ {
				if u != t {
					rest *= hi[u] - lo[u] + 1
				}
			}
			xtx[t+1] = float64(sT * rest)
			xtx[(t+1)*p+t+1] = float64(qT * rest)
			for s := 0; s < t; s++ {
				rest := 1 // n/(n_s*n_t)
				for u := 0; u < d; u++ {
					if u != s && u != t {
						rest *= hi[u] - lo[u] + 1
					}
				}
				xtx[(s+1)*p+t+1] = float64(sums[s] * sT * rest)
			}
			keyLo[t], keyHi[t] = float64(lo[t]-idx[t]), float64(hi[t]-idx[t])
		}
		copy(box, xtx)
	}

	excl := append(env.excluded(idx, r, skip), math.MaxInt) // a sentinel past every run
	env.sc.excluded = excl

	for i := range xtv {
		xtv[i] = 0
	}
	phi[0] = 1
	data := a.Data()
	// The walk visits the box's rows in row-major order. The last two
	// leading dimensions, A and B, are nested loops and the dimensions
	// before them (from 4-D on) an odometer outside those loops; a dimension
	// the array lacks is a loop that runs once with a zero feature. X'v
	// entries 0, A's, B's and the last coordinate's accumulate in registers
	// for the whole walk, one pass per run of cells: up to 3-D that is every
	// entry. An entry a lower-dimensional fit lacks is a dummy that is never
	// stored.
	nOut := max(d-3, 0)
	out := env.ints(slotRegCur)[:nOut]
	copy(out, lo)
	base := lo[d-1] // the offset of the outer index's first row, A and B aside
	for t := range out {
		base += lo[t] * a.Stride(t)
	}
	var loA, hiA, stA, cA, loB, hiB, stB, cB int
	if d > 2 {
		loA, hiA, stA, cA = lo[d-3], hi[d-3], a.Stride(d-3), idx[d-3]
	}
	if d > 1 {
		loB, hiB, stB, cB = lo[d-2], hi[d-2], a.Stride(d-2), idx[d-2]
	}
	rowLen := hi[d-1] - lo[d-1] + 1
	x0 := lo[d-1] - idx[d-1] // the last coordinate of a row's first cell
	var a0, aA, aB, ax float64
	k := 0 // excl[k:] are the excluded offsets not yet passed
	for {
		// Coordinates are centered at idx.
		for t, c := range out {
			phi[t+1] = float64(c - idx[t])
		}
		for iA := loA; iA <= hiA; iA++ {
			fA := float64(iA - cA)
			row := base + iA*stA + loB*stB
			for iB := loB; iB <= hiB; {
				for excl[k] < row {
					k++ // inside the span but outside the box
				}
				// The rows that end before the next excluded cell are clean:
				// one call takes them all.
				rows := hiB - iB + 1
				if e := excl[k]; e < row+(rows-1)*stB+rowLen {
					rows = 0
					if e >= row+rowLen {
						rows = (e-row-rowLen)/stB + 1
					}
				}
				if rows > 0 {
					span := data[row : row+(rows-1)*stB+rowLen]
					a0, aA, aB, ax = xtvRows(span, rows, rowLen, stB, fA, float64(iB-cB), float64(x0), a0, aA, aB, ax)
					for t := 1; t <= nOut; t++ {
						acc, f := xtv[t], phi[t]
						for r := 0; r < rows; r++ {
							for _, v := range span[r*stB : r*stB+rowLen] {
								acc += f * v
							}
						}
						xtv[t] = acc
					}
					iB, row = iB+rows, row+rows*stB
					continue
				}
				// A row with an excluded cell: runs of cells between them.
				fB := float64(iB - cB)
				for off, end := row, row+rowLen; off < end; off++ {
					for excl[k] < off {
						k++ // inside the span but outside the box
					}
					stop := min(end, excl[k])
					x := float64(x0 + off - row)
					a0, aA, aB, ax = xtvRows(data[off:stop], 1, stop-off, 0, fA, fB, x, a0, aA, aB, ax)
					for t := 1; t <= nOut; t++ {
						acc, f := xtv[t], phi[t]
						for _, v := range data[off:stop] {
							acc += f * v
						}
						xtv[t] = acc
					}
					if stop < end {
						// The excluded cell that ends the run is a cell of
						// the box: its rank-1 term leaves X'X, in integers,
						// so exact in any order.
						if d > 2 {
							phi[d-2] = fA
						}
						if d > 1 {
							phi[d-1] = fB
						}
						phi[d] = float64(x0 + stop - row)
						downdate(xtx, phi)
						n--
					}
					off = stop // steps over the excluded cell that ended the run
				}
				iB, row = iB+1, row+stB
			}
		}
		t := nOut - 1
		for ; t >= 0; t-- {
			if out[t] < hi[t] {
				out[t]++
				base += a.Stride(t)
				break
			}
			base -= (out[t] - lo[t]) * a.Stride(t)
			out[t] = lo[t]
		}
		if t < 0 {
			break
		}
	}
	xtv[0] = a0
	if d > 2 {
		xtv[d-2] = aA
	}
	if d > 1 {
		xtv[d-1] = aB
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
	beta, ok := solveSymInPlace(xtx, xtv, p)
	if !ok {
		return 0, ErrUnsupported
	}
	// The patch is centered at idx, so the prediction is the intercept.
	return beta[0], nil
}

// xtvRows adds rows rows of n cells — the first at data[0:n], each next one
// stride cells on — to LocalRegression's four register X'v sums in
// row-major order: the intercept's, A's (fA, constant), B's (fB, one more
// per row) and the last coordinate's (x0 at a row's first cell, one more per
// cell). It is kept out of line: inlined into Predict, whose walk keeps more
// values live than there are registers, the loop's counter went through the
// stack on every cell.
//
//go:noinline
func xtvRows(data []float64, rows, n, stride int, fA, fB, x0, a0, aA, aB, ax float64) (float64, float64, float64, float64) {
	for r := 0; r < rows; r++ {
		x := x0
		for _, v := range data[r*stride : r*stride+n] {
			a0 += v
			aA += fA * v
			aB += fB * v
			ax += x * v
			x++
		}
		fB++
	}
	return a0, aA, aB, ax
}

// downdate takes one cell's rank-1 term phi*phi' off the upper triangle of
// the row-major len(phi) x len(phi) matrix xtx.
func downdate(xtx, phi []float64) {
	p := len(phi)
	for i, fi := range phi {
		for j := i; j < p; j++ {
			xtx[i*p+j] -= fi * phi[j]
		}
	}
}

// solveSymInPlace solves the n x n linear system A x = b (A row-major,
// symmetric positive semi-definite normal equations) by Gaussian elimination
// with partial pivoting. It reports ok=false for singular systems. It works
// in a (n*n) and b (n), which it may overwrite, so no allocation occurs, and
// returns the solution in b.
//
// The systems of every fit of an array of up to three dimensions (n = 2, 3
// and 4) take a fixed-size path, solveSymGeneric written out for that n with
// the matrix in registers: the same operations in the same order — the
// pivot choice (the first row of largest magnitude), the skip of a zero
// multiplier, the back-substitution and the refusal of a zero or NaN pivot
// and of a NaN or infinite result — so the same bits. Entries below the
// diagonal that elimination zeroes are left as they are: nothing reads them
// again.
func solveSymInPlace(a, b []float64, n int) ([]float64, bool) {
	switch n {
	case 2:
		return solveSym2(a, b)
	case 3:
		return solveSym3(a, b)
	case 4:
		return solveSym4(a, b)
	}
	return solveSymGeneric(a, b, n)
}

// solveSymGeneric is solveSymInPlace for any n: it eliminates in m and x.
func solveSymGeneric(m, x []float64, n int) ([]float64, bool) {
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

// solveSym2 is solveSymGeneric for n = 2.
func solveSym2(a, b []float64) ([]float64, bool) {
	a, b = a[:4], b[:2]
	m00, m01 := a[0], a[1]
	m10, m11 := a[2], a[3]
	y0, y1 := b[0], b[1]
	piv, pmax := 0, math.Abs(m00)
	if v := math.Abs(m10); v > pmax {
		piv, pmax = 1, v
	}
	if pmax == 0 || pmax != pmax {
		return nil, false
	}
	if piv == 1 {
		m00, m01, y0, m10, m11, y1 = m10, m11, y1, m00, m01, y0
	}
	inv := 1 / m00
	if f := m10 * inv; f != 0 {
		m11 -= f * m01
		y1 -= f * y0
	}
	if pmax = math.Abs(m11); pmax == 0 || pmax != pmax {
		return nil, false
	}
	x1 := y1 / m11
	x0 := (y0 - m01*x1) / m00
	for _, v := range [2]float64{x0, x1} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, false
		}
	}
	b[0], b[1] = x0, x1
	return b, true
}

// solveSym3 is solveSymGeneric for n = 3.
func solveSym3(a, b []float64) ([]float64, bool) {
	a, b = a[:9], b[:3]
	m00, m01, m02 := a[0], a[1], a[2]
	m10, m11, m12 := a[3], a[4], a[5]
	m20, m21, m22 := a[6], a[7], a[8]
	y0, y1, y2 := b[0], b[1], b[2]
	piv, pmax := 0, math.Abs(m00)
	if v := math.Abs(m10); v > pmax {
		piv, pmax = 1, v
	}
	if v := math.Abs(m20); v > pmax {
		piv, pmax = 2, v
	}
	if pmax == 0 || pmax != pmax {
		return nil, false
	}
	switch piv {
	case 1:
		m00, m01, m02, y0, m10, m11, m12, y1 = m10, m11, m12, y1, m00, m01, m02, y0
	case 2:
		m00, m01, m02, y0, m20, m21, m22, y2 = m20, m21, m22, y2, m00, m01, m02, y0
	}
	inv := 1 / m00
	if f := m10 * inv; f != 0 {
		m11 -= f * m01
		m12 -= f * m02
		y1 -= f * y0
	}
	if f := m20 * inv; f != 0 {
		m21 -= f * m01
		m22 -= f * m02
		y2 -= f * y0
	}
	piv, pmax = 1, math.Abs(m11)
	if v := math.Abs(m21); v > pmax {
		piv, pmax = 2, v
	}
	if pmax == 0 || pmax != pmax {
		return nil, false
	}
	if piv == 2 {
		m11, m12, y1, m21, m22, y2 = m21, m22, y2, m11, m12, y1
	}
	inv = 1 / m11
	if f := m21 * inv; f != 0 {
		m22 -= f * m12
		y2 -= f * y1
	}
	if pmax = math.Abs(m22); pmax == 0 || pmax != pmax {
		return nil, false
	}
	x2 := y2 / m22
	x1 := (y1 - m12*x2) / m11
	x0 := (y0 - m01*x1 - m02*x2) / m00
	for _, v := range [3]float64{x0, x1, x2} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, false
		}
	}
	b[0], b[1], b[2] = x0, x1, x2
	return b, true
}

// solveSym4 is solveSymGeneric for n = 4.
func solveSym4(a, b []float64) ([]float64, bool) {
	a, b = a[:16], b[:4]
	m00, m01, m02, m03 := a[0], a[1], a[2], a[3]
	m10, m11, m12, m13 := a[4], a[5], a[6], a[7]
	m20, m21, m22, m23 := a[8], a[9], a[10], a[11]
	m30, m31, m32, m33 := a[12], a[13], a[14], a[15]
	y0, y1, y2, y3 := b[0], b[1], b[2], b[3]
	piv, pmax := 0, math.Abs(m00)
	if v := math.Abs(m10); v > pmax {
		piv, pmax = 1, v
	}
	if v := math.Abs(m20); v > pmax {
		piv, pmax = 2, v
	}
	if v := math.Abs(m30); v > pmax {
		piv, pmax = 3, v
	}
	if pmax == 0 || pmax != pmax {
		return nil, false
	}
	switch piv {
	case 1:
		m00, m01, m02, m03, y0, m10, m11, m12, m13, y1 = m10, m11, m12, m13, y1, m00, m01, m02, m03, y0
	case 2:
		m00, m01, m02, m03, y0, m20, m21, m22, m23, y2 = m20, m21, m22, m23, y2, m00, m01, m02, m03, y0
	case 3:
		m00, m01, m02, m03, y0, m30, m31, m32, m33, y3 = m30, m31, m32, m33, y3, m00, m01, m02, m03, y0
	}
	inv := 1 / m00
	if f := m10 * inv; f != 0 {
		m11 -= f * m01
		m12 -= f * m02
		m13 -= f * m03
		y1 -= f * y0
	}
	if f := m20 * inv; f != 0 {
		m21 -= f * m01
		m22 -= f * m02
		m23 -= f * m03
		y2 -= f * y0
	}
	if f := m30 * inv; f != 0 {
		m31 -= f * m01
		m32 -= f * m02
		m33 -= f * m03
		y3 -= f * y0
	}
	piv, pmax = 1, math.Abs(m11)
	if v := math.Abs(m21); v > pmax {
		piv, pmax = 2, v
	}
	if v := math.Abs(m31); v > pmax {
		piv, pmax = 3, v
	}
	if pmax == 0 || pmax != pmax {
		return nil, false
	}
	switch piv {
	case 2:
		m11, m12, m13, y1, m21, m22, m23, y2 = m21, m22, m23, y2, m11, m12, m13, y1
	case 3:
		m11, m12, m13, y1, m31, m32, m33, y3 = m31, m32, m33, y3, m11, m12, m13, y1
	}
	inv = 1 / m11
	if f := m21 * inv; f != 0 {
		m22 -= f * m12
		m23 -= f * m13
		y2 -= f * y1
	}
	if f := m31 * inv; f != 0 {
		m32 -= f * m12
		m33 -= f * m13
		y3 -= f * y1
	}
	piv, pmax = 2, math.Abs(m22)
	if v := math.Abs(m32); v > pmax {
		piv, pmax = 3, v
	}
	if pmax == 0 || pmax != pmax {
		return nil, false
	}
	if piv == 3 {
		m22, m23, y2, m32, m33, y3 = m32, m33, y3, m22, m23, y2
	}
	inv = 1 / m22
	if f := m32 * inv; f != 0 {
		m33 -= f * m23
		y3 -= f * y2
	}
	if pmax = math.Abs(m33); pmax == 0 || pmax != pmax {
		return nil, false
	}
	x3 := y3 / m33
	x2 := (y2 - m23*x3) / m22
	x1 := (y1 - m12*x2 - m13*x3) / m11
	x0 := (y0 - m01*x1 - m02*x2 - m03*x3) / m00
	for _, v := range [4]float64{x0, x1, x2, x3} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, false
		}
	}
	b[0], b[1], b[2], b[3] = x0, x1, x2, x3
	return b, true
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
