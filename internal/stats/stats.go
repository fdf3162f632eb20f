// Package stats provides the small set of descriptive statistics the
// experiment reports need: streaming summaries, quantiles, histograms, and
// binomial confidence intervals for the success-rate figures.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates count/mean/variance (Welford), min and max in one
// pass. The zero value is ready to use.
type Summary struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add folds one observation into the summary. Non-finite values are
// counted separately via AddNonFinite semantics — callers should filter, so
// Add panics on NaN to surface bugs early.
func (s *Summary) Add(x float64) {
	if math.IsNaN(x) {
		panic("stats: NaN observation")
	}
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the observation count.
func (s *Summary) N() int { return s.n }

// Mean returns the running mean (0 for an empty summary).
func (s *Summary) Mean() float64 { return s.mean }

// Var returns the population variance.
func (s *Summary) Var() float64 {
	if s.n == 0 {
		return 0
	}
	return s.m2 / float64(s.n)
}

// Std returns the population standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// String implements fmt.Stringer.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g min=%.4g max=%.4g",
		s.n, s.Mean(), s.Std(), s.min, s.max)
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Histogram counts observations into log-spaced bins, which suits relative
// errors spanning many orders of magnitude.
type Histogram struct {
	// Edges are the bin boundaries (len = bins+1), ascending.
	Edges []float64
	// Counts holds per-bin counts; Under/Over catch out-of-range values.
	Counts      []int
	Under, Over int
}

// NewLogHistogram builds a histogram with bins log-spaced between lo and hi
// (both > 0).
func NewLogHistogram(lo, hi float64, bins int) *Histogram {
	if lo <= 0 || hi <= lo || bins < 1 {
		panic("stats: bad histogram bounds")
	}
	h := &Histogram{Edges: make([]float64, bins+1), Counts: make([]int, bins)}
	ratio := math.Pow(hi/lo, 1/float64(bins))
	e := lo
	for i := range h.Edges {
		h.Edges[i] = e
		e *= ratio
	}
	h.Edges[bins] = hi
	return h
}

// Add counts one observation.
func (h *Histogram) Add(x float64) {
	if x < h.Edges[0] {
		h.Under++
		return
	}
	if x >= h.Edges[len(h.Edges)-1] {
		h.Over++
		return
	}
	i := sort.SearchFloat64s(h.Edges, x)
	// SearchFloat64s returns the first edge >= x; the bin is the one below,
	// except when x equals an edge exactly.
	if i > 0 && (i == len(h.Edges) || h.Edges[i] != x) {
		i--
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
}

// Total returns the in-range count.
func (h *Histogram) Total() int {
	t := 0
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// Pearson returns the Pearson correlation coefficient of two equal-length
// samples (NaN for degenerate inputs).
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	var sx, sy Summary
	for i := range xs {
		sx.Add(xs[i])
		sy.Add(ys[i])
	}
	cov := 0.0
	for i := range xs {
		cov += (xs[i] - sx.Mean()) * (ys[i] - sy.Mean())
	}
	cov /= float64(len(xs))
	den := sx.Std() * sy.Std()
	if den == 0 {
		return math.NaN()
	}
	return cov / den
}

// Spearman returns the Spearman rank correlation (Pearson on ranks, with
// average ranks for ties).
func Spearman(xs, ys []float64) float64 {
	return Pearson(ranks(xs), ranks(ys))
}

// ranks assigns 1-based average ranks.
func ranks(xs []float64) []float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	out := make([]float64, len(xs))
	for i := 0; i < len(idx); {
		j := i
		for j+1 < len(idx) && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}

// WilsonInterval returns the 95% Wilson score interval for a binomial
// proportion with k successes out of n trials — the error bars for the
// success-rate figures.
func WilsonInterval(k, n int) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	const z = 1.96
	p := float64(k) / float64(n)
	nf := float64(n)
	denom := 1 + z*z/nf
	center := (p + z*z/(2*nf)) / denom
	half := z * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf)) / denom
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}
