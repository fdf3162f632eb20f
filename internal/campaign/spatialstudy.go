package campaign

import (
	"fmt"
	"io"
	"math"

	"spatialdue/internal/autotune"
	"spatialdue/internal/bitflip"
	"spatialdue/internal/predict"
	"spatialdue/internal/sdrbench"
	"spatialdue/internal/spatial"
)

// SpatialStudyConfig parameterizes the analytics-guided-tuning study: does
// feeding spatial-autocorrelation analytics back into the tuner improve
// recovery accuracy when errors cluster, at escalating error rates?
type SpatialStudyConfig struct {
	// Scale selects the synthetic dataset scale (the study uses the 2-D
	// CESM fields — stripes partition their row dimension).
	Scale sdrbench.Scale
	// Fields is how many CESM fields the study averages over.
	Fields int
	// Rates are the simultaneous-error densities to sweep (fraction of
	// cells masked per run). The paper-style sweep is 1%, 5%, 10%.
	Rates []float64
	// HotFrac is the fraction of each run's errors concentrated in the hot
	// band (the rest land uniformly); DUEs cluster in the field, so the
	// study's fault geography does too.
	HotFrac float64
	// K is the baseline tuner radius (paper: 3). HotK is the widened radius
	// the guided arm uses inside stripes the analytics classify hot.
	K, HotK int
	// MaxProbes caps tuner probes (0 = no cap).
	MaxProbes int
	// Tolerance is the within-tolerance accuracy bound (paper: 1%).
	Tolerance float64
	// Seed drives every deterministic draw.
	Seed int64
}

// DefaultSpatialStudyConfig mirrors the paper's tuner settings with a
// doubled hot-spot radius.
func DefaultSpatialStudyConfig() SpatialStudyConfig {
	return SpatialStudyConfig{
		Scale:     sdrbench.ScaleSmall,
		Fields:    3,
		Rates:     []float64{0.01, 0.05, 0.10},
		HotFrac:   0.7,
		K:         3,
		HotK:      6,
		MaxProbes: 48,
		Tolerance: 0.01,
		Seed:      42,
	}
}

// SpatialArmStat aggregates one tuning arm's quality at one error rate.
type SpatialArmStat struct {
	// Trials is the number of masked cells the arm reconstructed.
	Trials int
	// WithinTol counts reconstructions within the tolerance.
	WithinTol int
	// ErrSum accumulates clamped relative errors (failed predictions count
	// at the clamp).
	ErrSum float64
	// NoProbes counts cells whose probe neighborhood was empty at the arm's
	// radius (the tuner returned ErrNoProbes).
	NoProbes int
}

// Accuracy returns the within-tolerance fraction.
func (s SpatialArmStat) Accuracy() float64 {
	if s.Trials == 0 {
		return 0
	}
	return float64(s.WithinTol) / float64(s.Trials)
}

// MeanRelErr returns the mean clamped relative error.
func (s SpatialArmStat) MeanRelErr() float64 {
	if s.Trials == 0 {
		return 0
	}
	return s.ErrSum / float64(s.Trials)
}

func (s *SpatialArmStat) merge(o SpatialArmStat) {
	s.Trials += o.Trials
	s.WithinTol += o.WithinTol
	s.ErrSum += o.ErrSum
	s.NoProbes += o.NoProbes
}

// SpatialRateRow is one error rate's baseline-vs-guided comparison,
// aggregated across fields.
type SpatialRateRow struct {
	Rate             float64
	Baseline, Guided SpatialArmStat
	// MeanMoranI is the mean Moran's I over the per-field runs — how much
	// spatial structure the injected error geography produced.
	MeanMoranI float64
	// HotStripes is the total number of stripes classified hot.
	HotStripes int
}

// SpatialStudyResult is the study outcome.
type SpatialStudyResult struct {
	Fields  []string
	Dims    []int
	Stripes int
	Rows    []SpatialRateRow
}

// RunSpatialStudy sweeps clustered simultaneous-error densities over 2-D
// CESM fields and reconstructs every masked cell twice:
//
//   - baseline arm: the paper's fixed-K RECOVER_ANY tuner;
//   - guided arm: the same tuner fed by spatial analytics — stripes the
//     accumulated outcomes classify hot re-tune with the widened HotK
//     radius, and when the neighborhood yields no usable probes (or no
//     probe reconstructs within tolerance) the arm falls back to the
//     stripe's historically best method.
//
// Cells stay masked for the whole run — every reconstruction sees the same
// degraded stencils in both arms, so the arms differ only in how the method
// is chosen. Everything is seeded: same config, same table.
func RunSpatialStudy(cfg SpatialStudyConfig) (*SpatialStudyResult, error) {
	if cfg.K <= 0 {
		cfg.K = 3
	}
	if cfg.HotK <= cfg.K {
		cfg.HotK = 2 * cfg.K
	}
	if cfg.Tolerance <= 0 {
		cfg.Tolerance = 0.01
	}
	if cfg.HotFrac <= 0 || cfg.HotFrac > 1 {
		cfg.HotFrac = 0.7
	}
	if len(cfg.Rates) == 0 {
		cfg.Rates = []float64{0.01, 0.05, 0.10}
	}
	names := sdrbench.Names(sdrbench.CESM)
	if cfg.Fields <= 0 || cfg.Fields > len(names) {
		cfg.Fields = 3
	}
	names = names[:cfg.Fields]

	res := &SpatialStudyResult{Fields: names}
	for _, rate := range cfg.Rates {
		row := SpatialRateRow{Rate: rate}
		var moranSum float64
		for _, name := range names {
			fr := runSpatialField(cfg, name, rate)
			row.Baseline.merge(fr.baseline)
			row.Guided.merge(fr.guided)
			moranSum += fr.moranI
			row.HotStripes += fr.hotStripes
			res.Dims, res.Stripes = fr.dims, fr.stripes
		}
		row.MeanMoranI = moranSum / float64(len(names))
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

type spatialFieldResult struct {
	baseline, guided SpatialArmStat
	moranI           float64
	hotStripes       int
	dims             []int
	stripes          int
}

func runSpatialField(cfg SpatialStudyConfig, name string, rate float64) spatialFieldResult {
	ds := sdrbench.Generate(sdrbench.CESM, name, cfg.Scale)
	arr := ds.Array
	dims := arr.Dims()
	rows, cells := dims[0], arr.Len()
	seed := seedFor(cfg.Seed, sdrbench.CESM, name)
	env := predict.NewEnv(arr, seed)

	// Stripes partition the row dimension, as in the engine; ~16 stripes
	// give G* room to resolve a band against the background.
	stripeRows := rows / 16
	if stripeRows < 2 {
		stripeRows = 2
	}
	stripes := (rows + stripeRows - 1) / stripeRows
	an := spatial.New(stripes, 0)

	// Clustered fault geography. HotFrac of the errors pile into a band
	// covering exactly the two middle stripes — two adjacent spatial units,
	// because a single-stripe spike reads as alternation, not clustering,
	// under a chain-adjacency Moran's I. The rest scatter across the
	// background with a one-cell clearance ring, the way isolated DUEs
	// land: scattered faults rarely share stencils, clustered ones always
	// do, and that asymmetry is precisely what the analytics must detect.
	// All cells are masked up front — a simultaneous multi-cell error
	// field, not one fault at a time.
	rng := &splitmix{state: uint64(seed) ^ 0xA5A5A5A55A5A5A5A}
	rowStride := cells / rows
	bandLo := (stripes/2 - 1) * stripeRows
	bandH := 2 * stripeRows
	if bandLo+bandH > rows {
		bandH = rows - bandLo
	}
	total := int(rate * float64(cells))
	if total < 2*stripes {
		total = 2 * stripes
	}
	hotN := int(cfg.HotFrac * float64(total))
	seen := make(map[int]bool, total)
	clear := func(off int) bool {
		r, c := off/rowStride, off%rowStride
		for dr := -1; dr <= 1; dr++ {
			for dc := -1; dc <= 1; dc++ {
				rr, cc := r+dr, c+dc
				if rr < 0 || rr >= rows || cc < 0 || cc >= rowStride {
					continue
				}
				if seen[rr*rowStride+cc] {
					return false
				}
			}
		}
		return true
	}
	offs := make([]int, 0, total)
	for len(offs) < total {
		var off int
		if len(offs) < hotN {
			off = (bandLo+int(rng.next()%uint64(bandH)))*rowStride + int(rng.next()%uint64(rowStride))
			if seen[off] {
				continue
			}
		} else {
			// Background: outside the band and its one-row halo, spaced
			// apart (best effort — after enough collisions any free
			// out-of-band cell is accepted).
			found := false
			for attempt := 0; attempt < 64 && !found; attempt++ {
				r := int(rng.next() % uint64(rows))
				if r >= bandLo-1 && r < bandLo+bandH+1 {
					continue
				}
				off = r*rowStride + int(rng.next()%uint64(rowStride))
				if !seen[off] && (clear(off) || attempt == 63) {
					found = true
				}
			}
			if !found {
				continue
			}
		}
		seen[off] = true
		offs = append(offs, off)
	}
	env.SetMaskFunc(func(off int) bool { return seen[off] })
	// Shuffle so band and background reconstructions interleave: the guided
	// arm's analytics warm up the way the engine's do, mid-storm.
	for i := len(offs) - 1; i > 0; i-- {
		j := int(rng.next() % uint64(i+1))
		offs[i], offs[j] = offs[j], offs[i]
	}

	baseCfg := autotune.Config{K: cfg.K, Tolerance: cfg.Tolerance, MaxProbes: cfg.MaxProbes}
	fr := spatialFieldResult{dims: dims, stripes: stripes}
	idx := make([]int, arr.NumDims())
	score := func(m predict.Method, orig float64) (re float64, ok bool) {
		got, err := predict.New(m).Predict(env, idx)
		if err != nil {
			return relErrClamp, false
		}
		re = bitflip.RelErr(orig, got)
		if math.IsNaN(re) || re > relErrClamp {
			re = relErrClamp
		}
		return re, true
	}

	wideCfg := baseCfg
	wideCfg.K = cfg.HotK
	for _, off := range offs {
		arr.CoordsInto(idx, off)
		orig := arr.AtOffset(off)
		stripe := idx[0] / stripeRows

		// Both arms start from the same fixed-K tune (same env, same config
		// — one Select serves both). The baseline falls back to the cheapest
		// headline method, unguided, when the neighborhood has no probes.
		bm := predict.MethodAverage
		sel, err := autotune.Select(env, idx, baseCfg)
		if err != nil {
			fr.baseline.NoProbes++
		} else {
			bm = sel.Best
		}
		re, _ := score(bm, orig)
		fr.baseline.Trials++
		fr.baseline.ErrSum += re
		if re <= cfg.Tolerance {
			fr.baseline.WithinTol++
		}

		// Guided: identical to baseline while the local ranking rests on
		// real evidence. When it does not — no probes at all, or the
		// winning method reconstructed fewer than minEvidence probes within
		// tolerance (a ranking carried by two or three lucky cells in a
		// devastated neighborhood) — the arm escalates: inside an
		// analytics-hot stripe it re-tunes with the widened radius and
		// takes the wide choice when it is better evidenced, and if no
		// radius yields signal it falls back to the stripe's historically
		// best method.
		gm := bm
		evidence := 0
		if err == nil {
			evidence = sel.Scores[0].Hits
		} else {
			fr.guided.NoProbes++
		}
		if evidence < minEvidence {
			informed := false
			if an.Heat(stripe) == spatial.HeatHot {
				if wsel, werr := autotune.Select(env, idx, wideCfg); werr == nil && wsel.Scores[0].Hits > evidence {
					gm = wsel.Best
					informed = true
				}
			}
			if !informed && evidence == 0 {
				if best, ok := an.BestMethod(stripe); ok {
					gm = best
				}
			}
		}
		gre, gok := score(gm, orig)
		fr.guided.Trials++
		fr.guided.ErrSum += gre
		within := gre <= cfg.Tolerance
		if within {
			fr.guided.WithinTol++
		}
		fails := 0
		if !within {
			fails = 1
		}
		// Feed the analytics the way the engine does: the reconstruction's
		// relative error is the residual (clamped so one wild cell cannot
		// out-shout a whole band — devastated band stencils produce errors
		// orders of magnitude past the tolerance, and that magnitude is the
		// clustering signal), while the method history only records choices
		// that actually reconstructed within tolerance.
		histMethod := gm
		if !within {
			histMethod = -1
		}
		an.Accumulate(stripe, math.Min(gre, 10), fails, fails, histMethod, gok)
	}

	rep := an.Report()
	fr.moranI = rep.MoranI
	fr.hotStripes = len(rep.HotStripes)
	return fr
}

// minEvidence is how many within-tolerance probes the fixed-K winner needs
// before the guided arm trusts the local ranking without escalating.
const minEvidence = 3

// Render writes the accuracy-lift table.
func (r *SpatialStudyResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Spatial-analytics tuning study: clustered errors over %d CESM fields %v (%d stripes)\n",
		len(r.Fields), r.Dims, r.Stripes)
	fmt.Fprintf(w, "baseline = fixed-K tuner; guided = hot stripes widen K and bias to the stripe's best method\n\n")
	fmt.Fprintf(w, "  %5s  %9s  %9s  %8s  %10s  %10s  %8s  %8s  %s\n",
		"rate", "baseline", "guided", "lift", "base err", "guided err", "no-probe", "Moran I", "hot stripes")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %4.0f%%  %8.2f%%  %8.2f%%  %+7.2fpp  %10.4f  %10.4f  %4d/%-3d  %8.3f  %d\n",
			100*row.Rate,
			100*row.Baseline.Accuracy(), 100*row.Guided.Accuracy(),
			100*(row.Guided.Accuracy()-row.Baseline.Accuracy()),
			row.Baseline.MeanRelErr(), row.Guided.MeanRelErr(),
			row.Baseline.NoProbes, row.Guided.NoProbes,
			row.MeanMoranI, row.HotStripes)
	}
}
