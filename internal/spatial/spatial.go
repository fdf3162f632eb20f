// Package spatial measures the spatial structure of recovery errors.
//
// PAPERS.md "Experimental Findings on the Sources of Detected Unrecoverable
// Errors in GPUs" shows DUEs cluster in rows and regions rather than landing
// uniformly; the waywiser toolkit (SNIPPETS.md) measures exactly that kind of
// structure in model residuals with Moran's I, Geary's C, and Getis-Ord G.
// This package applies those statistics to our own recovery outcomes: every
// finished recovery deposits its post-verify residual, verification-failure
// count, and escalation depth into a per-stripe accumulator (the PR 4 stripe
// map is the spatial unit — stripes are the engine's unit of locking,
// invalidation, and now analytics), and the three statistics are computed on
// demand over the stripe aggregates:
//
//   - Moran's I (global): do error-heavy stripes neighbor error-heavy
//     stripes? I > 0 means clustering, I < 0 alternation, I ≈ 0 no spatial
//     structure.
//   - Geary's C (global): the local-difference complement (C < 1 clustering,
//     C > 1 dispersion); more sensitive to adjacent-pair differences than
//     Moran's covariance form.
//   - Getis-Ord G* (local, per stripe): a z-score per stripe comparing the
//     stripe-plus-neighbors error mass against the global mean; |z| above a
//     threshold marks a hot spot (error concentration) or a cold spot.
//
// The weight matrix is the stripe-adjacency chain: stripes partition
// dimension 0, so stripe i borders i-1 and i+1 (w_ij = 1 iff |i-j| = 1, and
// w_ii = 1 for the starred G* variant that includes self). All statistics
// are pure functions of the accumulated sums — no clocks, no randomness —
// so a snapshot+journal-replay restart that re-runs the same recoveries
// reproduces every value bit for bit.
//
// The feedback consumer is internal/autotune: hot-spot stripes get short
// cache TTLs, widened re-tune neighborhoods, and a bias toward the stripe's
// historically best method; smooth cold stripes keep long-lived cached
// decisions (see autotune.Policy and core's cacheFor wiring).
package spatial

import (
	"math"
	"sync"

	"spatialdue/internal/predict"
)

// maxMethods bounds the per-stripe per-method success counters. The predict
// enumeration tops out at MethodLorenzoAuto (= NumMethods+4); one spare slot
// keeps an out-of-range method from panicking the accumulate hot path.
const maxMethods = predict.NumMethods + 6

// DefaultHotZ is the default |G*| z-score past which a stripe is classified
// hot (1.645 is the one-sided 95% normal critical value).
const DefaultHotZ = 1.645

// Heat classifies a stripe's error temperature.
type Heat int

const (
	// HeatNeutral is the default: no significant local structure.
	HeatNeutral Heat = iota
	// HeatHot marks a stripe whose G* z-score exceeds the hot threshold:
	// error mass concentrates here and in its neighbors.
	HeatHot
	// HeatCold marks a stripe significantly smoother than the field
	// average (G* below the negated threshold).
	HeatCold
)

// String implements fmt.Stringer.
func (h Heat) String() string {
	switch h {
	case HeatHot:
		return "hot"
	case HeatCold:
		return "cold"
	}
	return "neutral"
}

// stripeAcc is one stripe's running totals. Plain integers and float sums
// only: the accumulate path must stay allocation-free and the report a pure
// function of these values.
type stripeAcc struct {
	recoveries  int64   // finished recoveries (success or fallback)
	successes   int64   // recoveries that wrote a verified value
	verifyFails int64   // verification rejections across all ladder rungs
	escalSum    int64   // sum of final ladder depth (Stage ordinal)
	residualSum float64 // sum of clamped post-verify relative residuals

	// methodOK counts successful recoveries per method — the region's
	// history, feeding the cache's bias-toward-best policy.
	methodOK [maxMethods]int64
}

// Analytics accumulates recovery outcomes for one protected array at stripe
// granularity. Create one per array with New (the engine does this on
// demand, sized by the array's stripe table).
type Analytics struct {
	mu      sync.Mutex
	stripes []stripeAcc
	hotZ    float64
}

// New creates an Analytics over n stripes. hotZ is the |G*| threshold for
// hot/cold classification (<= 0 selects DefaultHotZ).
func New(n int, hotZ float64) *Analytics {
	if n < 1 {
		n = 1
	}
	if hotZ <= 0 {
		hotZ = DefaultHotZ
	}
	return &Analytics{stripes: make([]stripeAcc, n), hotZ: hotZ}
}

// residualClamp bounds one observation's contribution so a single wild
// residual cannot swamp a stripe's mean (mirrors the tuner's 1e3 clamp).
const residualClamp = 1e3

// Accumulate records one finished recovery in stripe s.
//
//	residual    — post-verify relative error: the written value's relative
//	              deviation from the neighborhood-average provisional
//	              estimate (NaN/negative when unavailable, e.g. fallbacks);
//	verifyFails — verification rejections the ladder climb accumulated;
//	depth       — the final ladder rung (core.Stage ordinal);
//	method      — the method that produced the written value;
//	ok          — whether a verified value was written.
//
// The path is allocation-free (benchmarked by BenchmarkSpatialAccumulate):
// recovery throughput pays one mutex and a handful of adds.
func (a *Analytics) Accumulate(s int, residual float64, verifyFails, depth int, method predict.Method, ok bool) {
	if a == nil {
		return
	}
	if s < 0 {
		s = 0
	}
	if s >= len(a.stripes) {
		s = len(a.stripes) - 1
	}
	a.mu.Lock()
	acc := &a.stripes[s]
	acc.recoveries++
	acc.verifyFails += int64(verifyFails)
	acc.escalSum += int64(depth)
	if ok {
		acc.successes++
		if residual >= 0 && !math.IsNaN(residual) {
			acc.residualSum += math.Min(residual, residualClamp)
		}
		if method >= 0 && int(method) < maxMethods {
			acc.methodOK[method]++
		}
	}
	a.mu.Unlock()
}

// intensity is stripe i's error-intensity score: mean residual plus the
// verify-failure and escalation-depth rates, each normalized per recovery.
// Stripes with no recoveries score zero — absence of errors is the coldest
// signal there is.
func (acc *stripeAcc) intensity() float64 {
	if acc.recoveries == 0 {
		return 0
	}
	n := float64(acc.recoveries)
	return acc.residualSum/n + float64(acc.verifyFails)/n + float64(acc.escalSum)/n
}

// StripeStat is one stripe's aggregate view.
type StripeStat struct {
	// Stripe is the stripe index (dimension-0 bands, the PR 4 stripe map).
	Stripe int `json:"stripe"`
	// Recoveries / Successes / VerifyFails / EscalationSum are the raw
	// accumulated counts.
	Recoveries    int64 `json:"recoveries"`
	Successes     int64 `json:"successes"`
	VerifyFails   int64 `json:"verify_fails"`
	EscalationSum int64 `json:"escalation_sum"`
	// MeanResidual is the mean clamped post-verify relative residual over
	// successful recoveries (0 when none).
	MeanResidual float64 `json:"mean_residual"`
	// Intensity is the composite error-intensity score the statistics run
	// over (mean residual + verify-fail rate + mean escalation depth).
	Intensity float64 `json:"intensity"`
	// GStar is the stripe's Getis-Ord G* z-score (0 when undefined).
	GStar float64 `json:"g_star"`
	// Heat is the hot/cold classification of GStar ("hot", "cold",
	// "neutral").
	Heat string `json:"heat"`
	// BestMethod names the method with the most successful recoveries in
	// this stripe ("" when the stripe has no successes).
	BestMethod string `json:"best_method,omitempty"`
}

// Report is a point-in-time spatial-autocorrelation summary.
type Report struct {
	// Stripes is the number of spatial units (engine lock stripes).
	Stripes int `json:"stripes"`
	// Recoveries is the total accumulated recovery count.
	Recoveries int64 `json:"recoveries"`
	// MoranI is global Moran's I over stripe intensities (0 when
	// undefined: fewer than 2 stripes or zero variance).
	MoranI float64 `json:"moran_i"`
	// GearyC is global Geary's C (1 when undefined — 1 is its
	// no-structure expectation).
	GearyC float64 `json:"geary_c"`
	// Defined reports whether the global statistics are meaningful
	// (at least 2 stripes and nonzero intensity variance).
	Defined bool `json:"defined"`
	// HotZ is the |G*| threshold used for classification.
	HotZ float64 `json:"hot_z"`
	// Local holds every stripe's aggregates and local statistic.
	Local []StripeStat `json:"local"`
	// HotStripes lists the stripes classified hot, ascending.
	HotStripes []int `json:"hot_stripes"`
}

// Report computes the statistics over the current accumulated state.
func (a *Analytics) Report() Report {
	if a == nil {
		return Report{GearyC: 1}
	}
	a.mu.Lock()
	defer a.mu.Unlock()

	n := len(a.stripes)
	rep := Report{Stripes: n, GearyC: 1, HotZ: a.hotZ, Local: make([]StripeStat, n)}

	x := make([]float64, n)
	var sum, sumSq float64
	for i := range a.stripes {
		acc := &a.stripes[i]
		x[i] = acc.intensity()
		sum += x[i]
		sumSq += x[i] * x[i]
		rep.Recoveries += acc.recoveries

		st := StripeStat{
			Stripe:        i,
			Recoveries:    acc.recoveries,
			Successes:     acc.successes,
			VerifyFails:   acc.verifyFails,
			EscalationSum: acc.escalSum,
			Intensity:     x[i],
			Heat:          HeatNeutral.String(),
		}
		if acc.successes > 0 {
			st.MeanResidual = acc.residualSum / float64(acc.successes)
		}
		if m, ok := bestMethod(acc); ok {
			st.BestMethod = m.String()
		}
		rep.Local[i] = st
	}
	mean := sum / float64(n)

	// Variance-family denominators. m2 is the biased second moment (the
	// Moran/Geary denominator); sd the G* standard deviation form.
	var m2 float64
	for i := range x {
		d := x[i] - mean
		m2 += d * d
	}
	if n < 2 || m2 == 0 {
		// No spatial structure computable: uniform field or single stripe.
		// G* is likewise undefined; everything stays neutral.
		return rep
	}
	rep.Defined = true

	// Chain adjacency: w_ij = 1 iff |i-j| == 1. S0 = 2(n-1) directed pairs.
	s0 := float64(2 * (n - 1))
	var cross, diffSq float64
	for i := 0; i+1 < n; i++ {
		cross += (x[i] - mean) * (x[i+1] - mean)
		d := x[i] - x[i+1]
		diffSq += d * d
	}
	// Each undirected neighbor pair counts twice in the directed sums.
	rep.MoranI = (float64(n) / s0) * (2 * cross) / m2
	rep.GearyC = (float64(n-1) / (2 * s0)) * (2 * diffSq) / m2

	// Local G* per stripe: self + chain neighbors, binary weights.
	sd := math.Sqrt(m2 / float64(n))
	for i := range x {
		wSum, wx := 1.0, x[i] // self
		if i > 0 {
			wSum++
			wx += x[i-1]
		}
		if i+1 < n {
			wSum++
			wx += x[i+1]
		}
		denom := sd * math.Sqrt((float64(n)*wSum-wSum*wSum)/float64(n-1))
		if denom == 0 {
			continue
		}
		z := (wx - mean*wSum) / denom
		rep.Local[i].GStar = z
		switch {
		case z >= a.hotZ:
			rep.Local[i].Heat = HeatHot.String()
			rep.HotStripes = append(rep.HotStripes, i)
		case z <= -a.hotZ:
			rep.Local[i].Heat = HeatCold.String()
		}
	}
	return rep
}

// Heat classifies one stripe without materializing a full report. It is the
// cache-policy fast path: same G* computation, restricted to stripe s.
func (a *Analytics) Heat(s int) Heat {
	z, ok := a.gStar(s)
	if !ok {
		return HeatNeutral
	}
	switch {
	case z >= a.hotZ:
		return HeatHot
	case z <= -a.hotZ:
		return HeatCold
	}
	return HeatNeutral
}

// gStar returns stripe s's local z-score (0, false when undefined).
func (a *Analytics) gStar(s int) (float64, bool) {
	if a == nil {
		return 0, false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	n := len(a.stripes)
	if s < 0 || s >= n || n < 2 {
		return 0, false
	}
	var sum, sumSq float64
	for i := range a.stripes {
		xi := a.stripes[i].intensity()
		sum += xi
		sumSq += xi * xi
	}
	mean := sum / float64(n)
	m2 := sumSq - float64(n)*mean*mean
	if m2 <= 0 {
		return 0, false
	}
	sd := math.Sqrt(m2 / float64(n))
	wSum, wx := 1.0, a.stripes[s].intensity()
	if s > 0 {
		wSum++
		wx += a.stripes[s-1].intensity()
	}
	if s+1 < n {
		wSum++
		wx += a.stripes[s+1].intensity()
	}
	denom := sd * math.Sqrt((float64(n)*wSum-wSum*wSum)/float64(n-1))
	if denom == 0 {
		return 0, false
	}
	return (wx - mean*wSum) / denom, true
}

// BestMethod returns stripe s's historically most successful method, when
// the stripe has recorded at least one success.
func (a *Analytics) BestMethod(s int) (predict.Method, bool) {
	if a == nil {
		return 0, false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if s < 0 || s >= len(a.stripes) {
		return 0, false
	}
	return bestMethod(&a.stripes[s])
}

// bestMethod picks the method with the most successes (lowest enum wins
// ties, mirroring the tuner's cheapest-first tie-break).
func bestMethod(acc *stripeAcc) (predict.Method, bool) {
	best, bestN := predict.Method(0), int64(0)
	for m, cnt := range acc.methodOK {
		if cnt > bestN {
			best, bestN = predict.Method(m), cnt
		}
	}
	return best, bestN > 0
}
