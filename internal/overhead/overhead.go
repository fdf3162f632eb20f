// Package overhead measures the runtime cost of each reconstruction method
// and of auto-tuning — the paper's Figure 10. Following Section 4.5, each
// method runs in a loop of at least MinIters iterations and until the
// loop's total runtime exceeds MinDuration, on a single representative
// dataset (the paper uses ISABEL's CLOUDf48; so does this package's
// default).
//
// MeasureMethods' Env carries no SharedStats, so every Linear Regression
// recovery walks the whole dataset once (the walk SharedStats are built
// with) while every other method touches a constant amount of data.
package overhead

import (
	"fmt"
	"math/rand"
	"time"

	"spatialdue/internal/autotune"
	"spatialdue/internal/predict"
	"spatialdue/internal/sdrbench"
)

// Timing is one measured row of Figure 10.
type Timing struct {
	// Name is the method (or "Auto-tuning") label.
	Name string
	// PerCall is the mean time per reconstruction.
	PerCall time.Duration
	// Calls is how many reconstructions were timed.
	Calls int
}

// Config controls a measurement run.
type Config struct {
	// MinIters is the minimum loop count per method (paper: 10).
	MinIters int
	// MinDuration is the minimum total loop runtime (paper: 1s).
	MinDuration time.Duration
	// Seed drives the random corruption locations.
	Seed int64
	// TuneK and TuneMaxProbes configure the auto-tuning measurement.
	TuneK         int
	TuneMaxProbes int
}

// DefaultConfig matches the paper's timing methodology.
func DefaultConfig() Config {
	return Config{MinIters: 10, MinDuration: time.Second, Seed: 99, TuneK: 3}
}

// DefaultDataset generates the paper's representative dataset: ISABEL
// CLOUDf48 at the given scale.
func DefaultDataset(scale sdrbench.Scale) *sdrbench.Dataset {
	return sdrbench.Generate(sdrbench.Isabel, "CLOUDf48", scale)
}

// withDefaults returns cfg with its unset fields taken from DefaultConfig.
func (cfg Config) withDefaults() Config {
	def := DefaultConfig()
	if cfg.MinIters <= 0 {
		cfg.MinIters = def.MinIters
	}
	if cfg.MinDuration <= 0 {
		cfg.MinDuration = def.MinDuration
	}
	if cfg.TuneK <= 0 {
		cfg.TuneK = def.TuneK
	}
	return cfg
}

// timeCalls is the one timing loop of Section 4.5: it runs call at cells of
// ds drawn by rng until it has made cfg.MinIters calls and they have taken
// cfg.MinDuration, so a call slower than the whole budget still runs
// MinIters times but no more. It times the calls alone, not the draws.
func timeCalls(ds *sdrbench.Dataset, cfg Config, rng *rand.Rand, name string, call func(idx []int)) Timing {
	idx := make([]int, ds.Array.NumDims())
	calls := 0
	var elapsed time.Duration
	for calls < cfg.MinIters || elapsed < cfg.MinDuration {
		ds.Array.CoordsInto(idx, rng.Intn(ds.Array.Len()))
		start := time.Now()
		call(idx)
		elapsed += time.Since(start)
		calls++
	}
	return Timing{Name: name, PerCall: elapsed / time.Duration(calls), Calls: calls}
}

// MeasureMethods times every given method on the dataset.
func MeasureMethods(ds *sdrbench.Dataset, methods []predict.Method, cfg Config) []Timing {
	cfg = cfg.withDefaults()
	env := predict.NewEnv(ds.Array, cfg.Seed)
	env.Range() // dataset range is precomputed once, as in the paper
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	out := make([]Timing, 0, len(methods))
	for _, m := range methods {
		p := predict.New(m)
		out = append(out, timeCalls(ds, cfg, rng, m.String(), func(idx []int) { _, _ = p.Predict(env, idx) }))
	}
	return out
}

// MeasureAutotune times the RECOVER_ANY path: a full local tuning pass per
// call (the paper reports 15.83 ms, plus the chosen method's execution).
func MeasureAutotune(ds *sdrbench.Dataset, methods []predict.Method, cfg Config) Timing {
	cfg = cfg.withDefaults()
	env := predict.NewEnv(ds.Array, cfg.Seed)
	// Tuning probes global regression many times; the engine amortizes
	// these statistics exactly once per allocation.
	shared := predict.NewSharedStats(ds.Array)
	shared.Prepare()
	env.SetShared(shared)
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	tcfg := autotune.Config{K: cfg.TuneK, Tolerance: 0.01, Methods: methods, MaxProbes: cfg.TuneMaxProbes}
	return timeCalls(ds, cfg, rng, "Auto-tuning", func(idx []int) { _, _ = autotune.Select(env, idx, tcfg) })
}

// FormatMillis renders a duration in the paper's milliseconds notation
// with sensible precision across the 5e-5 .. 1e2 ms span Figure 10 covers.
func FormatMillis(d time.Duration) string {
	ms := float64(d.Nanoseconds()) / 1e6
	switch {
	case ms < 0.001:
		return fmt.Sprintf("%.2e ms", ms)
	case ms < 1:
		return fmt.Sprintf("%.4f ms", ms)
	default:
		return fmt.Sprintf("%.2f ms", ms)
	}
}
