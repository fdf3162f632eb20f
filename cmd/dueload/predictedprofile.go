package main

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"spatialdue/internal/core"
	"spatialdue/internal/httpapi"
)

// rocThresholds are the risk cutoffs the predicted profile sweeps for its
// ROC table (the middle three are the default tier thresholds).
var rocThresholds = []float64{0.05, 0.15, 0.25, 0.40, 0.55, 0.70, 0.85, 0.95}

// runPredictedProfile scores the server's predictive memory-health tier
// end to end. The storm has a known ground truth: a few banks are
// designated DUE banks and receive concentrated CE precursor storms
// (clustered rows, several distinct bit positions — the Yu et al.
// pre-failure signature), the remaining banks receive only scattered
// background CEs and never take a DUE. The client then waits for the
// health report, injects the structured DUEs into the stormed rows, and
// grades the prediction:
//
//   - confusion matrix over banks (predicted = tier >= elevated, actual =
//     bank took a DUE) with recall asserted >= 0.8;
//   - ROC points (TPR/FPR) across risk thresholds;
//   - at least one row proactively offlined BEFORE its DUE was injected;
//   - zero lost recoveries, and every DUE landing in a critical-tier bank
//     mitigated from the migration shadow (outcome stage "offlined").
//
// Bank health is server-wide, so the server must be freshly started.
func runPredictedProfile(ctx context.Context, cfg config) error {
	const (
		dueBankMax  = 3  // banks designated to fail
		stormCEs    = 36 // precursor CEs per DUE bank
		noiseCEs    = 3  // background CEs per clean bank
		duesPerBank = 4
	)
	fmt.Printf("dueload: predicted storm profile against %s (%dx%d float64 field)\n", cfg.addr, cfg.rows, cfg.cols)

	r := newRun([]string{cfg.addr}, 0, "storm-predicted")
	c := r.f.c
	rep, err := c.Health(ctx)
	if err != nil {
		return fmt.Errorf("health: %w", err)
	}
	if !rep.Enabled {
		return errors.New("predicted profile needs a predictive server: run duerecover -listen ... -predictor")
	}
	banks, rowBytes := rep.Topology.Banks, uint64(rep.Topology.RowBytes)

	info, err := r.setup(ctx, cfg.rows, cfg.cols, "float64", cfg.seed)
	if err != nil {
		return err
	}

	// Map the allocation onto DRAM rows: every full row it covers, grouped
	// by bank. The allocation must span enough rows that each DUE bank owns
	// at least two (the storm clusters on two rows per bank).
	end := info.Base + info.SizeBytes
	bankRows := make([][]uint64, banks) // bank -> row-start addresses
	for lo := (info.Base + rowBytes - 1) / rowBytes * rowBytes; lo+rowBytes <= end; lo += rowBytes {
		b := int(lo / rowBytes % uint64(banks))
		bankRows[b] = append(bankRows[b], lo)
	}
	var dueBanks, cleanBanks []int
	for b := 0; b < banks; b++ {
		if len(bankRows[b]) >= 2 && len(dueBanks) < dueBankMax {
			dueBanks = append(dueBanks, b)
		} else if len(bankRows[b]) >= 1 {
			cleanBanks = append(cleanBanks, b)
		}
	}
	if len(dueBanks) == 0 {
		return fmt.Errorf("field too small: no bank owns two full %d-byte rows (raise -rows/-cols)", rowBytes)
	}

	// Phase 1 — CE precursors. DUE banks get the failure signature: CEs
	// clustered on two rows, six distinct bit positions, rapid succession.
	// Clean banks get sparse single-bit noise on distinct rows.
	raise := func(a uint64, bit int) error {
		res, err := c.RaiseCE(ctx, a, bit)
		if err != nil {
			return fmt.Errorf("raise CE at %#x: %w", a, err)
		}
		if res.Status != httpapi.StatusAccepted {
			return fmt.Errorf("CE at %#x: status %q", a, res.Status)
		}
		return nil
	}
	stormBits := []int{1, 5, 9, 17, 23, 42}
	for _, b := range dueBanks {
		for i := 0; i < stormCEs; i++ {
			lo := bankRows[b][i%2] // two hot rows per bank
			if err := raise(lo+uint64((i%16)*8), stormBits[i%len(stormBits)]); err != nil {
				return err
			}
		}
	}
	for _, b := range cleanBanks {
		for i := 0; i < noiseCEs && i < len(bankRows[b]); i++ {
			if err := raise(bankRows[b][i]+uint64(i*64), 3); err != nil {
				return err
			}
		}
	}

	// Phase 2 — read the verdict BEFORE any DUE exists. Offlined rows seen
	// here are proactive by construction: the first DUE is injected after.
	rep, err = c.Health(ctx)
	if err != nil {
		return fmt.Errorf("health after storm: %w", err)
	}
	risk := map[int]float64{}
	tier := map[int]string{}
	for _, hb := range rep.Banks {
		risk[hb.Bank] = hb.Risk
		tier[hb.Bank] = hb.Tier
	}
	offlinedBefore := map[int]bool{} // bank -> had a proactive row offline
	for _, o := range rep.OfflinedRows {
		offlinedBefore[o.Bank] = true
	}
	fmt.Printf("\n== bank health after CE phase (before any DUE) ==\n")
	fmt.Printf("  %-5s %-9s %8s %s\n", "bank", "tier", "risk", "role")
	for b := 0; b < banks; b++ {
		role := "clean"
		if slices.Contains(dueBanks, b) {
			role = "DUE-designated"
		}
		if offlinedBefore[b] {
			role += ", rows proactively offlined"
		}
		fmt.Printf("  %-5d %-9s %8.4f %s\n", b, cmp.Or(tier[b], "none"), risk[b], role)
	}

	// Phase 3 — the DUEs land, only in the designated banks, inside the
	// stormed (and ideally already-offlined) rows.
	bankOf := map[int]int{} // DUE offset -> bank
	for _, b := range dueBanks {
		lo := bankRows[b][0]
		for i := 0; i < duesPerBank; i++ {
			off := int(lo-info.Base)/8 + 3 + i*31 // spread inside the 128-element row
			cells, err := r.inject(ctx, httpapi.InjectRequest{
				Offset: &off, Seed: cfg.seed + int64(b*100+i),
			})
			if err != nil {
				return fmt.Errorf("inject bank %d: %w", b, err)
			}
			if err := r.ingest(ctx, cells, false); err != nil {
				return fmt.Errorf("bank %d: %w", b, err)
			}
			bankOf[off] = b
		}
	}
	fmt.Printf("\ninjected %d DUEs into %d designated banks (%d latched)\n", len(bankOf), len(dueBanks), r.rep.latched)

	// Settle: every DUE offset needs a successful outcome, whose stage tells
	// mitigations (served from the migration shadow) from ladder recoveries.
	if err := r.settle(ctx, time.Now().Add(cfg.settle)); err != nil {
		return err
	}
	offlined := core.StageOfflined.String()

	// Grade the prediction. Predicted positive = the tier said "act" (>=
	// elevated) before the DUEs; actual positive = the bank was designated
	// to fail.
	tp, fn, fp, tn := 0, 0, 0, 0
	for b := 0; b < banks; b++ {
		predicted := tier[b] == "elevated" || tier[b] == "critical"
		actual := slices.Contains(dueBanks, b)
		switch {
		case actual && predicted:
			tp++
		case actual:
			fn++
		case predicted:
			fp++
		default:
			tn++
		}
	}
	recall := ratio(tp, tp+fn)
	precision := ratio(tp, tp+fp)
	fmt.Printf("\n== prediction vs outcome (banks, elevated threshold) ==\n")
	fmt.Printf("                 predicted+  predicted-\n")
	fmt.Printf("  actual DUE     %9d  %9d\n", tp, fn)
	fmt.Printf("  no DUE         %9d  %9d\n", fp, tn)
	fmt.Printf("  recall %.2f, precision %.2f, FPR %.2f\n", recall, precision, ratio(fp, fp+tn))

	fmt.Printf("\n== ROC points (risk threshold sweep) ==\n")
	fmt.Printf("  %-10s %6s %6s\n", "threshold", "TPR", "FPR")
	for _, t := range rocThresholds {
		above := func(b int) bool { return risk[b] >= t }
		fmt.Printf("  %-10.2f %6.2f %6.2f\n", t,
			ratio(count(dueBanks, above), len(dueBanks)), ratio(count(cleanBanks, above), len(cleanBanks)))
	}

	// Mitigation audit: a DUE in a critical-tier bank must have been served
	// from the migration shadow; anything less is an unmitigated hit on a
	// bank the tier had already condemned.
	unmitigatedCritical := 0
	for off, b := range bankOf {
		if stage, ok := r.ok[off]; ok && stage != offlined && tier[b] == "critical" {
			unmitigatedCritical++
		}
	}
	shadow, err := r.verify(ctx, r.owned(func(off int) bool { return r.ok[off] == offlined }), cfg.tol)
	if err != nil {
		return err
	}
	mitigated, lost := shadow.cells, len(r.own)-len(r.ok)
	fmt.Printf("\n== mitigation ==\n")
	fmt.Printf("  DUEs mitigated from migration shadow  %d/%d (%d bit-exact)\n", mitigated, len(r.own), shadow.exact)
	fmt.Printf("  recovered via prediction ladder       %d\n", len(r.ok)-mitigated)
	fmt.Printf("  lost (no successful outcome)          %d\n", lost)

	if recall < 0.8 {
		return fmt.Errorf("profile predicted: recall %.2f < 0.8 at the elevated threshold", recall)
	}
	proactive := count(dueBanks, func(b int) bool { return offlinedBefore[b] })
	if proactive == 0 {
		return errors.New("profile predicted: no row was proactively offlined before its DUE")
	}
	if mitigated == 0 {
		return errors.New("profile predicted: no DUE was served from the migration shadow")
	}
	if mitigated != shadow.exact {
		return fmt.Errorf("profile predicted: %d shadow restores were not bit-exact", mitigated-shadow.exact)
	}
	if lost > 0 {
		return fmt.Errorf("profile predicted: %d DUEs never produced a successful outcome", lost)
	}
	if unmitigatedCritical > 0 {
		return fmt.Errorf("profile predicted: %d DUEs hit critical-tier banks without shadow mitigation", unmitigatedCritical)
	}
	fmt.Printf("\nOK [profile predicted]: recall %.2f, %d/%d banks proactively offlined rows before their DUEs, %d/%d DUEs shadow-mitigated, zero lost\n",
		recall, proactive, len(dueBanks), mitigated, len(r.own))
	return nil
}

// count is how many banks satisfy keep.
func count(banks []int, keep func(b int) bool) int {
	n := 0
	for _, b := range banks {
		if keep(b) {
			n++
		}
	}
	return n
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
