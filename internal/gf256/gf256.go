// Package gf256 implements arithmetic over the finite field GF(2^8) and a
// systematic Reed-Solomon erasure codec built on it. The real FTI library
// protects its L3 checkpoint level with Reed-Solomon encoding across rank
// groups; internal/fti uses this package the same way, so losing up to m
// ranks' storage remains recoverable from k surviving checkpoint blobs plus
// parity.
//
// The field is GF(2)[x]/(x^8 + x^4 + x^3 + x^2 + 1) (polynomial 0x11D, the
// common erasure-coding choice), with generator element 2.
package gf256

import "fmt"

// poly is the reducing polynomial (x^8 + x^4 + x^3 + x^2 + 1).
const poly = 0x11D

// expTable[i] = 2^i for i in [0, 510); logTable[v] = log2(v) for v != 0.
var (
	expTable [510]byte
	logTable [256]int
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		expTable[i] = byte(x)
		logTable[x] = i
		x <<= 1
		if x&0x100 != 0 {
			x ^= poly
		}
	}
	// Duplicate so Mul can skip a modulo.
	for i := 255; i < 510; i++ {
		expTable[i] = expTable[i-255]
	}
}

// Mul returns a * b in GF(2^8).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[logTable[a]+logTable[b]]
}

// Inv returns the multiplicative inverse of a; it panics on zero.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: zero has no inverse")
	}
	return expTable[255-logTable[a]]
}

// Exp returns 2^n (the generator raised to n, n may be any non-negative
// integer).
func Exp(n int) byte { return expTable[n%255] }

// --- Matrices over GF(2^8) -------------------------------------------------

// Matrix is a dense row-major matrix over GF(2^8).
type Matrix struct {
	rows, cols int
	data       []byte
}

// NewMatrix allocates a zero rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{rows: rows, cols: cols, data: make([]byte, rows*cols)}
}

// Vandermonde returns the rows x cols matrix with entry (r, c) = (2^r)^c.
// Because the nodes 2^r are distinct for r < 255, every square submatrix
// built from distinct rows is invertible.
func Vandermonde(rows, cols int) *Matrix {
	if rows > 255 {
		panic("gf256: Vandermonde supports at most 255 rows")
	}
	m := NewMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		node := Exp(r)
		v := byte(1)
		for c := 0; c < cols; c++ {
			m.Set(r, c, v)
			v = Mul(v, node)
		}
	}
	return m
}

// At returns entry (r, c).
func (m *Matrix) At(r, c int) byte { return m.data[r*m.cols+c] }

// Set stores v at (r, c).
func (m *Matrix) Set(r, c int, v byte) { m.data[r*m.cols+c] = v }

// Row returns a view of row r (not a copy).
func (m *Matrix) Row(r int) []byte { return m.data[r*m.cols : (r+1)*m.cols] }

// Mul returns m * other.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	if m.cols != other.rows {
		panic(fmt.Sprintf("gf256: dimension mismatch %dx%d * %dx%d", m.rows, m.cols, other.rows, other.cols))
	}
	out := NewMatrix(m.rows, other.cols)
	for r := 0; r < m.rows; r++ {
		for k := 0; k < m.cols; k++ {
			a := m.At(r, k)
			if a == 0 {
				continue
			}
			orow := other.Row(k)
			dst := out.Row(r)
			for c, b := range orow {
				dst[c] ^= Mul(a, b)
			}
		}
	}
	return out
}

// SubMatrix returns the matrix consisting of the given rows.
func (m *Matrix) SubMatrix(rows []int) *Matrix {
	out := NewMatrix(len(rows), m.cols)
	for i, r := range rows {
		copy(out.Row(i), m.Row(r))
	}
	return out
}

// Invert returns the inverse, or an error for singular matrices.
func (m *Matrix) Invert() (*Matrix, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("gf256: cannot invert %dx%d", m.rows, m.cols)
	}
	n := m.rows
	// Augment [m | I] and run Gauss-Jordan.
	work := NewMatrix(n, 2*n)
	for r := 0; r < n; r++ {
		copy(work.Row(r)[:n], m.Row(r))
		work.Set(r, n+r, 1)
	}
	for col := 0; col < n; col++ {
		piv := -1
		for r := col; r < n; r++ {
			if work.At(r, col) != 0 {
				piv = r
				break
			}
		}
		if piv < 0 {
			return nil, fmt.Errorf("gf256: singular matrix")
		}
		if piv != col {
			pr, cr := work.Row(piv), work.Row(col)
			for i := range pr {
				pr[i], cr[i] = cr[i], pr[i]
			}
		}
		inv := Inv(work.At(col, col))
		row := work.Row(col)
		for i := range row {
			row[i] = Mul(row[i], inv)
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := work.At(r, col)
			if f == 0 {
				continue
			}
			dst, src := work.Row(r), work.Row(col)
			for i := range dst {
				dst[i] ^= Mul(f, src[i])
			}
		}
	}
	out := NewMatrix(n, n)
	for r := 0; r < n; r++ {
		copy(out.Row(r), work.Row(r)[n:])
	}
	return out, nil
}
