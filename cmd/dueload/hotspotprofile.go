package main

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"spatialdue/internal/httpapi"
	"spatialdue/internal/httpapi/client"
	"spatialdue/internal/stats"
)

// runHotspotProfile drives a spatially concentrated DUE storm — most faults
// land in one narrow row band, harsher than the background — and scores the
// server's spatial-analytics feedback loop end to end:
//
//   - probe skipping: on quiet background stripes, the first recovery per
//     stripe pays a full tuner run and every repeat is served from the
//     tune cache; the server's cache counters must show exactly one miss
//     per stripe and one hit per repeat (the cold/warm mean in-engine
//     latencies, the server's own timings, are printed beside them);
//   - hot-spot detection: GET /v1/analytics/spatial must report clustered
//     global structure (Moran's I > 0) and classify the most-stormed stripe
//     hot;
//   - tune-cache convergence: the run's overall hit rate is asserted;
//   - zero lost recoveries: every corrupted cell is recovered in place or
//     swept synchronously once its neighborhood is clean, the quarantine
//     ends empty, and the field matches the upload within tolerance.
//
// The server must run with the tune cache enabled (duerecover -listen ...;
// the -tune-cache flag defaults on), and be freshly started:
// the cache counters and the spatial statistics are server-wide.
func runHotspotProfile(ctx context.Context, cfg config) error {
	rows, cols := cfg.rows, cfg.cols
	// G* needs spatial resolution: with few stripes a 2-stripe band cannot
	// clear the 1.645 hot threshold no matter how much error mass it holds.
	// 128 rows give the engine's ~11-row stripes enough units to resolve.
	if rows < 128 {
		fmt.Printf("dueload: raising -rows %d -> 128 (hot-spot detection needs stripe resolution)\n", rows)
		rows = 128
	}
	fmt.Printf("dueload: hotspot storm profile: %d events against %s (%dx%d field)\n",
		cfg.events, cfg.addr, rows, cols)

	r := newRun([]string{cfg.addr}, 0, "storm-hotspot")
	if _, err := r.setup(ctx, rows, cols, "float32", cfg.seed); err != nil {
		return err
	}
	inject := func(off int, bit *int) error {
		if _, err := r.inject(ctx, httpapi.InjectRequest{Offset: &off, Seed: cfg.seed + int64(off), Bit: bit}); err != nil {
			return fmt.Errorf("inject %d: %w", off, err)
		}
		return nil
	}

	// The hot band: a narrow run of rows mid-field. Measurement rows sit
	// well clear of it — two near the top, two near the bottom, >= 13 rows
	// apart so each lands in a distinct ~11-row lock stripe.
	bandH := max(rows/8, 2)
	bandLo := rows/2 - bandH/2
	measureRows := []int{2, 18, rows - 30, rows - 12}

	// Phase 1 — probe-skip measurement, on an empty cache: in each
	// measurement stripe the first single-bit recovery is a cache miss (full
	// tuner run) and the repeats are hits (tuner skipped). Same fault class,
	// same clean neighborhoods: the latency delta IS the tuner cost.
	const perRow = 5
	var cold, warm stats.Summary // in-engine seconds
	for _, row := range measureRows {
		for j := 0; j < perRow; j++ {
			off := row*cols + 3 + j*(cols-6)/perRow
			if err := inject(off, nil); err != nil {
				return err
			}
			rep, err := r.recoverCell(ctx, off)
			if err != nil {
				return fmt.Errorf("measurement recovery at offset %d failed", off)
			}
			if j == 0 {
				cold.Add(rep.ElapsedSeconds)
			} else {
				warm.Add(rep.ElapsedSeconds)
			}
		}
	}
	measured, err := call(ctx, r.f, func(c *client.Client) (*httpapi.SpatialAnalyticsReport, error) {
		return c.SpatialAnalytics(ctx)
	})
	if err != nil {
		return fmt.Errorf("spatial analytics: %w", err)
	}
	coldHits, coldMisses := measured.TuneCache.Hits, measured.TuneCache.Misses
	if coldMisses != cold.N() || coldHits != warm.N() {
		return fmt.Errorf("profile hotspot: measurement recoveries left %d tune-cache hits / %d misses, want %d / %d (one miss per stripe, then only hits; is the server running with -tune-cache > 0?)",
			coldHits, coldMisses, warm.N(), cold.N())
	}

	// Phase 2 — the band storm: adjacent-pair corruptions with a high
	// exponent bit (violently out of the policy range). Both cells of a
	// pair are corrupted before the RIGHT one recovers, so its stencil
	// reads the still-corrupt left partner: verification rejects the
	// polluted predictions and the ladder escalates — real error mass
	// (verify failures, escalation depth, residual) concentrated in the
	// band, not just more recoveries.
	state := uint64(cfg.seed)*6364136223846793005 + 1442695040888963407
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % n
	}
	bandEvents := max(cfg.events-len(measureRows)*perRow, 8)
	expBit := 29
	for pairs := 0; pairs*2 < bandEvents; {
		off := (bandLo+next(bandH))*cols + 1 + next(cols-3)
		if r.own[off] || r.own[off+1] {
			continue // pairs never overlap
		}
		pairs++
		for _, o := range []int{off, off + 1} {
			if err := inject(o, &expBit); err != nil {
				return err
			}
		}
		// A recovery that fails (its neighborhood still corrupt) leaves
		// the cell quarantined for the sweep.
		_, _ = r.recoverCell(ctx, off+1)
		_, _ = r.recoverCell(ctx, off)
	}
	failed := len(r.own) - len(r.ok)

	// Sweep: pair partners that failed while their neighbor was corrupt
	// recover synchronously once the neighborhood is clean.
	swept := r.rep.swept
	if err := r.sweep(ctx, time.Now().Add(cfg.settle)); err != nil {
		return err
	}
	swept = r.rep.swept - swept

	// Analytics: the band must read as spatial structure.
	an, err := call(ctx, r.f, func(c *client.Client) (*httpapi.SpatialAnalyticsReport, error) {
		return c.SpatialAnalytics(ctx)
	})
	if err != nil {
		return fmt.Errorf("spatial analytics: %w", err)
	}
	if len(an.Allocations) != 1 {
		return fmt.Errorf("spatial analytics reports %d allocations, want 1", len(an.Allocations))
	}
	ar := an.Allocations[0]

	fmt.Printf("\n== spatial hot-spot map (%d stripes, Moran's I %.4f, Geary's C %.4f) ==\n",
		ar.Stripes, ar.MoranI, ar.GearyC)
	fmt.Printf("  %6s %10s %9s %11s %9s %8s %-8s %s\n",
		"stripe", "recoveries", "verify✗", "escalation", "intensity", "G*", "heat", "best method")
	hottest, hottestRec := -1, int64(-1)
	for _, st := range ar.Local {
		if st.Recoveries == 0 {
			continue
		}
		fmt.Printf("  %6d %10d %9d %11d %9.3f %8.3f %-8s %s\n",
			st.Stripe, st.Recoveries, st.VerifyFails, st.EscalationSum,
			st.Intensity, st.GStar, st.Heat, st.BestMethod)
		if st.Recoveries > hottestRec {
			hottest, hottestRec = st.Stripe, st.Recoveries
		}
	}

	coldMean, warmMean := cold.Mean(), warm.Mean()
	hits, misses := an.TuneCache.Hits, an.TuneCache.Misses
	hitRate := float64(hits) / float64(hits+misses)
	fmt.Printf("\n== tune-cache convergence ==\n")
	fmt.Printf("cold recoveries   %4d  mean in-engine %s (first per stripe: full tuner run)\n",
		cold.N(), fmtDur(coldMean))
	fmt.Printf("warm recoveries   %4d  mean in-engine %s (repeats: cached decision, tuner skipped)\n",
		warm.N(), fmtDur(warmMean))
	fmt.Printf("probe-skip speedup %.2fx (cache after them: %d hits / %d misses)\n", coldMean/warmMean, coldHits, coldMisses)
	fmt.Printf("cache: %d hits / %d misses (%.0f%% hit rate), %d expiries, %d corrections\n",
		hits, misses, 100*hitRate, an.TuneCache.Expiries, an.TuneCache.Corrections)

	q, err := r.verify(ctx, r.owned(nil), cfg.tol)
	if err != nil {
		return err
	}
	fmt.Printf("\n== profile \"hotspot\" results ==\n")
	fmt.Printf("recovered in place  %6d  (%d first-attempt failures, %d recovered via post-storm sweep)\n",
		q.cells-q.quarantined, failed, swept)
	fmt.Printf("within %.2g rel err: %d/%d (max rel err %.3g)\n", cfg.tol, q.within, q.cells, q.maxRelErr)
	fmt.Printf("quarantined at end: %d\n", q.quarantined)

	if q.quarantined > 0 {
		return fmt.Errorf("profile hotspot: run ended with %d quarantined cells", q.quarantined)
	}
	if !ar.Defined || ar.MoranI <= 0 {
		return fmt.Errorf("profile hotspot: concentrated storm produced no clustered spatial structure (Moran's I %.4f)", ar.MoranI)
	}
	if len(ar.HotStripes) == 0 {
		return errors.New("profile hotspot: no stripe classified hot")
	}
	if !slices.Contains(ar.HotStripes, hottest) {
		return fmt.Errorf("profile hotspot: most-stormed stripe %d not in hot set %v", hottest, ar.HotStripes)
	}
	if hitRate < 0.5 {
		return fmt.Errorf("profile hotspot: cache hit rate %.0f%% — tuner never converged (is the server running with -tune-cache > 0?)", 100*hitRate)
	}
	fmt.Printf("\nOK [profile hotspot]: %d cells, hot stripe %d detected, probe skipped on %d of %d repeats, %.0f%% cache hit rate, zero lost\n",
		q.cells, hottest, coldHits, warm.N(), 100*hitRate)
	return nil
}
