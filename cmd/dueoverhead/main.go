// Command dueoverhead reproduces Figure 10 of the paper: the runtime
// overhead of each reconstruction method, measured on the representative
// ISABEL CLOUDf48 dataset, plus the auto-tuning cost and the comparison
// against checkpoint-restart recovery (Section 4.5).
//
// Usage:
//
//	dueoverhead [-scale tiny|small|medium] [-miniters N] [-mindur 1s]
//	            [-ckptcost 60] [-mtbf 86400]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"spatialdue/internal/fti"
	"spatialdue/internal/overhead"
	"spatialdue/internal/predict"
	"spatialdue/internal/report"
	"spatialdue/internal/sdrbench"
)

func main() {
	var (
		scaleFlag = flag.String("scale", "medium", "dataset scale: tiny, small, medium")
		minIters  = flag.Int("miniters", 10, "minimum timing-loop iterations per method (paper: 10)")
		minDur    = flag.Duration("mindur", time.Second, "minimum timing-loop duration (paper: 1s)")
		ckptCost  = flag.Float64("ckptcost", 60, "checkpoint write cost in seconds (for the Young-model comparison)")
		mtbf      = flag.Float64("mtbf", 86400, "mean time between failures in seconds")
	)
	flag.Parse()

	scale, err := sdrbench.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dueoverhead: %v\n", err)
		os.Exit(1)
	}

	cfg := overhead.DefaultConfig()
	cfg.MinIters = *minIters
	cfg.MinDuration = *minDur

	ds := overhead.DefaultDataset(scale)
	fmt.Printf("Figure 10: runtime overhead per reconstruction, dataset %s (%v, %d elements)\n\n",
		ds.Name, ds.Array, ds.Array.Len())

	methods := predict.HeadlineMethods()
	timings := overhead.MeasureMethods(ds, methods, cfg)
	tune := overhead.MeasureAutotune(ds, methods, cfg)

	rows := make([][]string, 0, len(timings)+1)
	for _, t := range timings {
		rows = append(rows, []string{t.Name, overhead.FormatMillis(t.PerCall), fmt.Sprint(t.Calls)})
	}
	rows = append(rows, []string{tune.Name, overhead.FormatMillis(tune.PerCall), fmt.Sprint(tune.Calls)})
	report.Table(os.Stdout, []string{"Method", "Per-recovery cost", "Timed calls"}, rows)

	// Section 4.5's closing comparison: spatial recovery vs the average
	// checkpoint-restart recovery at Young's optimal interval.
	interval := fti.OptimalInterval(*ckptCost, *mtbf)
	lost := fti.ExpectedLostWork(interval)
	worst := timings[0].PerCall
	for _, t := range timings {
		if t.PerCall > worst {
			worst = t.PerCall
		}
	}
	if tune.PerCall > worst {
		worst = tune.PerCall
	}
	fmt.Printf("Checkpoint-restart baseline (Young's model): interval %.0fs for C=%.0fs, MTBF=%.0fs\n",
		interval, *ckptCost, *mtbf)
	fmt.Printf("  average recovery recomputes %.0fs of lost work\n", lost)
	fmt.Printf("  slowest spatial recovery (%s) is %.0fx cheaper\n",
		overhead.FormatMillis(worst), fti.RecoverySpeedup(worst.Seconds(), interval))
}
