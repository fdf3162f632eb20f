package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"spatialdue/internal/autotune"
	"spatialdue/internal/bitflip"
	"spatialdue/internal/ndarray"
	"spatialdue/internal/predict"
	"spatialdue/internal/registry"
)

// plateauArray is a smooth field around 100 — pairs with WithRange(50, 150)
// so MethodZero's prediction (0) always fails range verification.
func plateauArray(ny, nx int) *ndarray.Array {
	a := ndarray.New(ny, nx)
	a.FillFunc(func(idx []int) float64 {
		return 100 + 5*math.Sin(float64(idx[0])/5) + 3*math.Cos(float64(idx[1])/4)
	})
	return a
}

// TestStaleCacheCorrectedAfterVerifyFailure is the satellite-1 regression:
// a cached method that fails verification must be replaced by the fresh
// tune's winner, so the region's SECOND recovery hits the corrected entry at
// the primary rung instead of re-walking the ladder.
func TestStaleCacheCorrectedAfterVerifyFailure(t *testing.T) {
	eng := NewEngine(Options{Seed: 11, TuneCacheBlock: 8})
	a := plateauArray(32, 32)
	alloc := eng.Protect("f", a, bitflip.Float32, registry.RecoverAny().WithRange(50, 150))

	// Poison the region with a stale decision: MethodZero reconstructs 0,
	// which the (50, 150) range verification always rejects.
	c := eng.stateFor(a).cache
	c.Update([]int{5, 5}, predict.MethodZero,
		[]autotune.Score{{Method: predict.MethodZero, Hits: 0, Probes: 5, MeanRelErr: 1}})

	off1 := a.Offset(5, 5)
	a.SetOffset(off1, math.NaN())
	out1, err := eng.RecoverElement(alloc, off1)
	if err != nil {
		t.Fatal(err)
	}
	if out1.Stage != StageTune {
		t.Fatalf("first recovery stage = %v, want tune (cached Zero must fail verify)", out1.Stage)
	}
	if out1.Method == predict.MethodZero {
		t.Fatalf("first recovery still used the stale method")
	}
	if corr := c.Counters().Corrections; corr != 1 {
		t.Errorf("corrections = %d, want 1 (fresh winner replaced stale Zero)", corr)
	}

	// Second corruption in the same stripe: the corrected entry must serve
	// at the primary rung with the fresh winner.
	off2 := a.Offset(5, 9)
	a.SetOffset(off2, math.NaN())
	out2, err := eng.RecoverElement(alloc, off2)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Stage != StagePrimary || out2.Method != out1.Method {
		t.Errorf("second recovery = stage %v method %v, want primary with %v (corrected cache hit)",
			out2.Stage, out2.Method, out1.Method)
	}
	if hits, _ := c.Stats(); hits < 2 {
		t.Errorf("cache hits = %d, want >= 2 (poisoned hit + corrected hit)", hits)
	}
}

// TestRowWipeLadderReportsNoProbes is the satellite-2 regression through
// the full ladder: a mass quarantine that leaves probes with no usable
// stencil inputs must surface autotune.ErrNoProbes (no zero-evidence Best
// is ever attempted) and exhaust into checkpoint-restart with the element
// still quarantined.
func TestRowWipeLadderReportsNoProbes(t *testing.T) {
	eng := NewEngine(Options{Seed: 12,
		Tune: autotune.Config{Methods: []predict.Method{predict.MethodAverage, predict.MethodLorenzo1}}})
	a := smoothArray(24, 24)
	alloc := eng.Protect("w", a, bitflip.Float32, registry.RecoverAny())

	// Structured wipe: every cell within 4 rows of the target row is
	// quarantined except one surviving probe right of the target. The
	// tuner collects that probe, but its entire stencil neighborhood is
	// masked, so neither candidate method can predict it.
	ty, tx := 12, 12
	survivor := a.Offset(ty, tx+1)
	for y := ty - 4; y <= ty+4; y++ {
		for x := 0; x < 24; x++ {
			if off := a.Offset(y, x); off != survivor {
				eng.MarkCorrupt(alloc, off)
			}
		}
	}

	off := a.Offset(ty, tx)
	a.SetOffset(off, math.NaN())
	_, err := eng.RecoverElement(alloc, off)
	if !errors.Is(err, ErrCheckpointRestartRequired) {
		t.Fatalf("err = %v, want checkpoint-restart", err)
	}
	if !errors.Is(err, autotune.ErrNoProbes) {
		t.Fatalf("err = %v, want autotune.ErrNoProbes in the chain", err)
	}
	if !eng.IsQuarantined(alloc, off) {
		t.Error("exhausted element left quarantine")
	}
}

// TestFieldUpdatedStripesPartialInvalidation is the satellite-4 coverage: a
// streaming upload that committed stripes {2,3} drops cached decisions only
// for regions overlapping those stripes (±1 for stencil reach) and
// preserves the rest.
func TestFieldUpdatedStripesPartialInvalidation(t *testing.T) {
	eng := NewEngine(Options{Seed: 13, TuneCacheBlock: 8})
	a := smoothArray(64, 16)
	alloc := eng.Protect("p", a, bitflip.Float32, registry.RecoverAny())
	ss := eng.stateFor(a)
	if ss.n < 5 {
		t.Fatalf("need >= 5 stripes, have %d (rows=%d)", ss.n, ss.rows)
	}

	// Warm one cached decision per stripe.
	recoverAt := func(row int) Outcome {
		t.Helper()
		off := a.Offset(row, 8)
		a.SetOffset(off, math.NaN())
		out, err := eng.RecoverElement(alloc, off)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for s := 0; s < ss.n; s++ {
		recoverAt(s*ss.rows + 2)
	}
	c := eng.stateFor(a).cache
	if _, misses := c.Stats(); misses != ss.n {
		t.Fatalf("warmup misses = %d, want %d", misses, ss.n)
	}

	eng.FieldUpdatedStripes(a, []int{2, 3})
	if inv := c.Counters().Invalidations; inv != 4 {
		t.Errorf("invalidations = %d, want 4 (regions 1-4: stripes {2,3} expanded +/-1)", inv)
	}

	// Stripe 0 kept its decision; stripes 1..4 must re-tune.
	h0, m0 := c.Stats()
	recoverAt(2)
	h1, m1 := c.Stats()
	if h1 != h0+1 || m1 != m0 {
		t.Errorf("stripe 0 after partial invalidation: hits %d->%d misses %d->%d, want a pure hit",
			h0, h1, m0, m1)
	}
	for s := 1; s <= 4; s++ {
		hb, mb := c.Stats()
		recoverAt(s*ss.rows + 2)
		ha, ma := c.Stats()
		if ma != mb+1 || ha != hb {
			t.Errorf("stripe %d after partial invalidation: hits %d->%d misses %d->%d, want a pure miss",
				s, hb, ha, mb, ma)
		}
	}
}

// TestSpatialReportAndMetrics: recoveries accumulate into the per-stripe
// spatial analytics, and the Prometheus export carries the new series.
func TestSpatialReportAndMetrics(t *testing.T) {
	eng := NewEngine(Options{Seed: 14, TuneCacheBlock: 8})
	a := smoothArray(32, 32)
	alloc := eng.Protect("s", a, bitflip.Float32, registry.RecoverAny())

	for _, row := range []int{4, 5, 6, 20} {
		off := a.Offset(row, 7)
		a.SetOffset(off, math.NaN())
		if _, err := eng.RecoverElement(alloc, off); err != nil {
			t.Fatal(err)
		}
	}
	rep := eng.SpatialReport(a)
	if rep.Recoveries != 4 {
		t.Fatalf("spatial recoveries = %d, want 4", rep.Recoveries)
	}
	s0 := eng.stateFor(a).stripeOf(a.Offset(4, 7))
	if rep.Local[s0].Successes < 3 {
		t.Errorf("stripe %d successes = %d, want >= 3", s0, rep.Local[s0].Successes)
	}
	if rep.Local[s0].BestMethod == "" {
		t.Errorf("stripe %d has no best method after successes", s0)
	}

	var sb strings.Builder
	if err := eng.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"spatialdue_spatial_moran_i{alloc=\"s\"}",
		"spatialdue_tune_cache_hits_total",
		"spatialdue_tune_cache_misses_total",
		"spatialdue_tune_cache_invalidations_total",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestTraceCarriesTuneCacheAttribute: the slow-trace ring's summaries must
// distinguish cache hits from misses on the RECOVER_ANY primary rung.
func TestTraceCarriesTuneCacheAttribute(t *testing.T) {
	eng := NewEngine(Options{Seed: 15, TuneCacheBlock: 8})
	a := smoothArray(24, 24)
	alloc := eng.Protect("tc", a, bitflip.Float32, registry.RecoverAny())

	for i, off := range []int{a.Offset(6, 6), a.Offset(6, 9)} {
		a.SetOffset(off, math.NaN())
		if _, err := eng.RecoverElement(alloc, off); err != nil {
			t.Fatal(err)
		}
		_ = i
	}
	var hit, miss bool
	for _, s := range eng.Tracer().Top() {
		switch s.TuneCache {
		case "hit":
			hit = true
		case "miss":
			miss = true
		}
	}
	if !hit || !miss {
		t.Errorf("trace summaries: hit=%v miss=%v, want both (first recovery misses, second hits)", hit, miss)
	}
}
