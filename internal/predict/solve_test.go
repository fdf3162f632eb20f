package predict

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// solveCases returns n x n systems (a, b) that exercise every branch of the
// elimination: normal equations of random designs, general random matrices,
// exactly and nearly singular ones, NaN and Inf entries, pivot ties (equal
// magnitudes, either sign) and zero multipliers.
func solveCases(rng *rand.Rand, n int) (as, bs [][]float64) {
	add := func(a, b []float64) { as, bs = append(as, a), append(bs, b) }
	vec := func(scale float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = scale * rng.NormFloat64()
		}
		return v
	}
	mat := func(scale float64) []float64 {
		m := make([]float64, n*n)
		for i := range m {
			m[i] = scale * rng.NormFloat64()
		}
		return m
	}
	normal := func(rows int, intCoords bool) ([]float64, []float64) {
		a, b := make([]float64, n*n), make([]float64, n)
		phi := make([]float64, n)
		for k := 0; k < rows; k++ {
			phi[0] = 1
			for t := 1; t < n; t++ {
				if intCoords {
					phi[t] = float64(rng.Intn(7) - 3)
				} else {
					phi[t] = rng.NormFloat64()
				}
			}
			v := 100 + rng.NormFloat64()
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					a[i*n+j] += phi[i] * phi[j]
				}
				b[i] += phi[i] * v
			}
		}
		return a, b
	}
	for i := 0; i < 200; i++ {
		add(normal(n+rng.Intn(40), i%2 == 0))
		add(mat(1), vec(1))
		add(mat(math.Ldexp(1, rng.Intn(80)-40)), vec(1e3))
	}
	for i := 0; i < 50; i++ {
		// Fewer rows than unknowns: singular normal equations.
		add(normal(rng.Intn(n), true))
		// A repeated row: exactly singular.
		a := mat(1)
		if n > 1 {
			copy(a[(n-1)*n:], a[:n])
		}
		add(a, vec(1))
		// A zero column below the diagonal, so some multipliers are zero.
		a = mat(1)
		for r := 1; r < n; r++ {
			a[r*n] = 0
		}
		add(a, vec(1))
		// Pivot ties: every entry of a column has the same magnitude.
		a = mat(1)
		for r := 0; r < n; r++ {
			a[r*n] = float64(1 - 2*(r&1))
		}
		add(a, vec(1))
		a = mat(0)
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				a[r*n+c] = float64(rng.Intn(3) - 1)
			}
		}
		add(a, vec(1))
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64} {
		for i := 0; i < 10; i++ {
			a, b := mat(1), vec(1)
			if i%2 == 0 {
				a[rng.Intn(n*n)] = bad
			} else {
				b[rng.Intn(n)] = bad
			}
			add(a, b)
		}
	}
	add(make([]float64, n*n), vec(1))
	return as, bs
}

// TestSolveSymFixedSizeMatchesGeneric holds solveSymInPlace's fixed-size paths
// to the generic elimination bit for bit: the same refusals, and for every
// solved system the same solution bits, on every size from 1 to 5 (the
// fixed-size paths are 2, 3 and 4).
func TestSolveSymFixedSizeMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	solved, refused := 0, 0
	for n := 1; n <= 5; n++ {
		as, bs := solveCases(rng, n)
		for i := range as {
			a, b := as[i], bs[i]
			want, wantOK := solveSymGeneric(slices.Clone(a), slices.Clone(b), n)
			got, gotOK := solveSymInPlace(slices.Clone(a), slices.Clone(b), n)
			if gotOK != wantOK {
				t.Fatalf("n=%d case %d: ok %v, generic %v (a=%v b=%v)", n, i, gotOK, wantOK, a, b)
			}
			if !wantOK {
				refused++
				continue
			}
			solved++
			if len(got) != len(want) {
				t.Fatalf("n=%d case %d: %d unknowns, generic %d", n, i, len(got), len(want))
			}
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("n=%d case %d: x[%d] = %v, generic %v (a=%v b=%v)", n, i, j, got[j], want[j], a, b)
				}
			}
		}
	}
	if solved < 1000 || refused < 100 {
		t.Errorf("cases cover %d solved and %d refused systems; want >= 1000 and >= 100", solved, refused)
	}
}

// BenchmarkSolveSym solves 4 x 4 normal-equation systems, the size every
// 3-D regression fit solves, through solveSymInPlace's fixed-size path and
// through the generic elimination, cycling over 64 of them so that the
// pivot branches are not learned. Each solve starts from a copy, as the
// kernels' do from their accumulated normal equations.
func BenchmarkSolveSym(b *testing.B) {
	cases, rhs := solveCases(rand.New(rand.NewSource(3)), 4)
	var as, bs [64][]float64
	for i := range as {
		as[i], bs[i] = cases[3*i], rhs[3*i] // the normal equations
	}
	m, x := make([]float64, 16), make([]float64, 4)
	for _, c := range []struct {
		name  string
		solve func(a, b []float64, n int) ([]float64, bool)
	}{{"fixed", solveSymInPlace}, {"generic", solveSymGeneric}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(m, as[i&63])
				copy(x, bs[i&63])
				c.solve(m, x, 4)
			}
		})
	}
}
