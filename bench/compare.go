package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of the comparator, per end-to-end metric and workload.
const (
	verdictOK         = "ok"
	verdictRegression = "regression"
	verdictUnresolved = "unresolved"
)

// worsening returns by how much b is worse than a, as a share of |a|
// (negative when b is better).
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		if b == a {
			return 0
		}
		return math.Inf(1)
	}
	d := (b - a) / math.Abs(a)
	if better == "higher" {
		d = -d
	}
	return d
}

// judge compares one metric's samples from the parent (a) and the change (b).
//
//   - ok: the change's median is no worse than the parent's by more than
//     the bound — or every sample of the change reads at least as good as
//     every sample of the parent, however wide the spread;
//   - unresolved: the run-to-run spread of either side (interQuartileSpread) exceeds
//     the bound, so a difference of the bound's size
//     cannot be told from noise;
//   - regression: the median worsened by more than the bound.
func judge(a, b []float64, def metricDef) (verdict string, worse, spread float64) {
	sa, sb := summarize(a), summarize(b)
	worse = worsening(sa.Median, sb.Median, def.Better)
	spread = math.Max(interQuartileSpread(a), interQuartileSpread(b))
	if sa.N == 0 || sb.N == 0 {
		return verdictUnresolved, worse, spread
	}
	dominates := sb.Max <= sa.Min
	if def.Better == "higher" {
		dominates = sb.Min >= sa.Max
	}
	switch {
	case dominates:
		return verdictOK, worse, spread
	case spread > def.Bound:
		return verdictUnresolved, worse, spread
	case worse > def.Bound:
		return verdictRegression, worse, spread
	}
	return verdictOK, worse, spread
}

func loadResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// compareFiles prints one row per end-to-end metric and workload — both
// medians with their min-max, the bound, and the verdict — and returns the
// number of regressions. A workload that was incorrect on the change side,
// or is missing from it, is a regression of every metric.
func compareFiles(w io.Writer, pathA, pathB string) (int, error) {
	a, err := loadResults(pathA)
	if err != nil {
		return 0, err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "# A: %s commit=%s seed=%d seconds=%g repeat=%d\n", pathA, a.Header.Commit, a.Header.Seed, a.Header.Seconds, a.Header.Repeat)
	fmt.Fprintf(w, "# B: %s commit=%s seed=%d seconds=%g repeat=%d\n", pathB, b.Header.Commit, b.Header.Seed, b.Header.Seconds, b.Header.Repeat)
	fmt.Fprintf(w, "%-13s %-21s %12s %25s %12s %25s %7s %8s %7s  %s\n",
		"workload", "metric", "A median", "A min..max", "B median", "B min..max", "worse", "spread", "bound", "verdict")
	regressions, unresolved := 0, 0
	for _, wl := range workloads {
		ra, okA := a.Workloads[wl.Name]
		rb, okB := b.Workloads[wl.Name]
		if !okA {
			continue // nothing to hold the change against
		}
		for _, def := range endToEnd {
			ma := ra.EndToEnd[def.Name]
			if !okB || !rb.Correct {
				regressions++
				fmt.Fprintf(w, "%-13s %-21s %12.6g %25s %12s %25s %7s %8s %6.1f%%  %s (workload missing or incorrect in B)\n",
					wl.Name, def.Name, ma.Median, rangeOf(ma), "-", "-", "-", "-", 100*def.Bound, verdictRegression)
				continue
			}
			mb := rb.EndToEnd[def.Name]
			verdict, worse, spread := judge(ma.Runs, mb.Runs, def)
			switch verdict {
			case verdictRegression:
				regressions++
			case verdictUnresolved:
				unresolved++
			}
			fmt.Fprintf(w, "%-13s %-21s %12.6g %25s %12.6g %25s %+6.1f%% %7.1f%% %6.1f%%  %s\n",
				wl.Name, def.Name, ma.Median, rangeOf(ma), mb.Median, rangeOf(mb), 100*worse, 100*spread, 100*def.Bound, verdict)
		}
	}
	fmt.Fprintf(w, "# %d regressions, %d unresolved\n", regressions, unresolved)
	return regressions, nil
}

func rangeOf(m metricReport) string { return fmt.Sprintf("%.5g..%.5g", m.Min, m.Max) }
