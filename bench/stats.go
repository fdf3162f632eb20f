package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 <= p <= 1) of sorted by linear
// interpolation between closest ranks — the same rule numpy's default and
// Python's statistics.quantiles(method="inclusive") use. sorted must be
// ascending; an empty slice yields NaN.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns vals sorted ascending without disturbing the input.
func sortedCopy(vals []float64) []float64 {
	out := append([]float64(nil), vals...)
	sort.Float64s(out)
	return out
}

// median returns the middle value of vals (mean of the two middle values
// for an even count); NaN when empty.
func median(vals []float64) float64 {
	return percentile(sortedCopy(vals), 0.5)
}

// summary is a metric reduced over its samples: the median is what the
// benchmark reports, min-max and n say how much to trust it.
type summary struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// summarize reduces samples to median/min/max. NaN samples (a window in
// which nothing completed) are dropped so one empty window cannot poison the
// median; the count tells the reader it happened.
func summarize(samples []float64) summary {
	kept := make([]float64, 0, len(samples))
	for _, v := range samples {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			kept = append(kept, v)
		}
	}
	if len(kept) == 0 {
		return summary{Median: math.NaN(), Min: math.NaN(), Max: math.NaN()}
	}
	s := sortedCopy(kept)
	return summary{Median: percentile(s, 0.5), Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// interQuartileSpread is the comparator's run-to-run spread: the inter-quartile
// distance over the median, quartiles by linear interpolation between
// closest ranks. With the handful of runs a results file holds (five: the
// quartiles are the second and fourth value) it shrugs off one outlier run
// per side, where the exclusive quartiles below would put half the outlier's
// weight into the spread.
func interQuartileSpread(vals []float64) float64 {
	s := sortedCopy(vals)
	if len(s) < 2 {
		return 0
	}
	med := percentile(s, 0.5)
	if med == 0 {
		return math.Inf(1)
	}
	return math.Abs(percentile(s, 0.75)-percentile(s, 0.25)) / math.Abs(med)
}

// quartileSpread is the driver's steadiness measure: the distance between
// the first and third quartile as a share of the median, with the quartiles
// computed exactly as Python's statistics.quantiles(values, n=4) does
// (the default "exclusive" method: position (n+1)*k/4 in the sorted list).
func quartileSpread(vals []float64) float64 {
	s := sortedCopy(vals)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		// Like Python, take the fraction after clamping the index: for tiny
		// samples the quartiles then extrapolate past the data.
		delta := pos - float64(j)
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	med := percentile(s, 0.5)
	if med == 0 {
		return math.Inf(1)
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}
