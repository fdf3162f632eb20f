// Package autotune implements the paper's RECOVER_ANY path (Sections 3.3
// and 4.4): a localized search that selects the reconstruction method that
// is locally optimal in a spatially close region around the corrupted datum.
//
// The tuner runs a leave-one-out evaluation: every non-corrupted element
// within Chebyshev distance K of the corrupted index becomes a probe point;
// each candidate method predicts the probe as if it were unknown, and the
// prediction is compared against the actual stored value. Methods are
// ranked by the fraction of probes reconstructed within the tolerance
// (the paper scores with a 1% relative-error bound), with mean relative
// error as the tie-breaker.
//
// When the tuner runs against a genuinely corrupted array (the recovery
// engine in internal/core), the corrupted element must first be patched with
// a provisional estimate so probe predictions whose stencils overlap it are
// not polluted; the engine does this before calling Select.
package autotune

import (
	"errors"
	"math"
	"slices"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/predict"
)

// ErrNoProbes is returned when the neighborhood contains no usable probe
// points (degenerate arrays).
var ErrNoProbes = errors.New("autotune: no probe points in neighborhood")

// Config parameterizes the local search.
type Config struct {
	// K is the Chebyshev radius of the probe neighborhood; the paper uses 3.
	K int
	// Tolerance is the relative-error bound a probe reconstruction must meet
	// to count as a hit; the paper scores with 0.01.
	Tolerance float64
	// Methods are the candidate methods. Empty means every headline method.
	Methods []predict.Method
	// MaxProbes caps the number of probe points (0 = no cap). Probes are
	// subsampled deterministically with a fixed stride when the cap binds,
	// which keeps tuning cost bounded on 3-D neighborhoods (7^3 = 343).
	MaxProbes int
}

// DefaultConfig returns the paper's configuration: K=3, 1% tolerance, all
// headline methods.
func DefaultConfig() Config {
	return Config{K: 3, Tolerance: 0.01}
}

// Score records the leave-one-out quality of one candidate method.
type Score struct {
	Method predict.Method
	// Hits is the number of probes reconstructed within the tolerance.
	Hits int
	// Probes is the number of probes the method produced a prediction for.
	Probes int
	// MeanRelErr is the mean relative error over successful predictions,
	// with relative errors clamped at 1e3 so one wild probe cannot swamp
	// the mean.
	MeanRelErr float64
}

// HitRate returns Hits/Probes, or 0 when the method never applied.
func (s Score) HitRate() float64 {
	if s.Probes == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Probes)
}

// Result is the outcome of a tuning run.
type Result struct {
	// Best is the selected method.
	Best predict.Method
	// Scores holds every candidate's score, sorted best-first.
	Scores []Score
}

// headlineMethods is the default candidate list, built once (Select only
// reads it).
var headlineMethods = predict.HeadlineMethods()

// Select runs the local search around idx and returns the locally optimal
// method. The element at idx is never used as a probe and never read.
func Select(env *predict.Env, idx []int, cfg Config) (Result, error) {
	if cfg.K <= 0 {
		cfg.K = 3
	}
	if cfg.Tolerance <= 0 {
		cfg.Tolerance = 0.01
	}
	methods := cfg.Methods
	if len(methods) == 0 {
		methods = headlineMethods
	}

	a := env.A

	// Probe offsets and the probe-coordinate buffer are Env scratch, reused
	// by every Select on this Env; only the scores, which the caller keeps,
	// are allocated here.
	probes, probeIdx := env.Probes(idx, cfg.K)
	if len(probes) == 0 {
		return Result{}, ErrNoProbes
	}
	if cfg.MaxProbes > 0 && len(probes) > cfg.MaxProbes {
		stride := (len(probes) + cfg.MaxProbes - 1) / cfg.MaxProbes
		kept := probes[:0]
		for i := 0; i < len(probes); i += stride {
			kept = append(kept, probes[i])
		}
		probes = kept
	}

	// Probes outside, methods inside: a probe's coordinates are computed once
	// and its neighbourhood stays cached for all candidates. Each method still
	// sees the probes in row-major order, so its error sum (kept in MeanRelErr
	// until the division below) rounds as in a method-by-method sweep, and
	// Random, the one method that draws, draws in the same order.
	scores := make([]Score, len(methods))
	for mi, m := range methods {
		scores[mi].Method = m
	}
	for _, off := range probes {
		a.CoordsInto(probeIdx, off)
		want := a.AtOffset(off)
		for mi, m := range methods {
			got, err := predict.New(m).Predict(env, probeIdx)
			if err != nil {
				continue
			}
			re := bitflip.RelErr(want, got)
			if math.IsInf(re, 0) {
				continue
			}
			sc := &scores[mi]
			sc.Probes++
			if re <= cfg.Tolerance {
				sc.Hits++
			}
			sc.MeanRelErr += math.Min(re, 1e3)
		}
	}
	for mi := range scores {
		if sc := &scores[mi]; sc.Probes > 0 {
			sc.MeanRelErr /= float64(sc.Probes)
		} else {
			sc.MeanRelErr = math.Inf(1)
		}
	}

	slices.SortStableFunc(scores, func(x, y Score) int {
		switch {
		case better(x, y):
			return -1
		case better(y, x):
			return 1
		}
		return 0
	})
	// A probe-less score ranks below any method that produced even one bad
	// prediction (hit rate 0 but finite mean error), so if the BEST score
	// has zero probes, no candidate predicted anything — every probe's
	// stencil inputs were masked (e.g. a mass-quarantined row wipe). The
	// old behavior ranked such scores by method enum and returned a Best
	// with zero evidence, which the ladder then applied unguarded.
	if scores[0].Probes == 0 {
		return Result{Scores: scores}, ErrNoProbes
	}
	return Result{Best: scores[0].Method, Scores: scores}, nil
}

// better orders scores by hit rate, then by mean relative error, then by
// method order (cheaper methods come first in the Method enumeration).
func better(a, b Score) bool {
	ra, rb := a.HitRate(), b.HitRate()
	if ra != rb {
		return ra > rb
	}
	if a.MeanRelErr != b.MeanRelErr {
		return a.MeanRelErr < b.MeanRelErr
	}
	return a.Method < b.Method
}
