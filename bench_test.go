// Benchmarks that regenerate every table and figure of the paper's
// evaluation (Section 4). Each benchmark both times its experiment and
// reports the headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's result rows. The campaign benchmarks use the tiny
// dataset scale and reduced trial counts so the full suite runs in seconds;
// cmd/duecampaign and cmd/dueoverhead run the same experiments at paper
// strength.
//
// Index (see DESIGN.md §4 for the full mapping):
//
//	Table 2   -> BenchmarkTable2DatasetGeneration
//	Figure 2  -> BenchmarkFigure2OverallAccuracy1
//	Figure 3  -> BenchmarkFigure3OverallAccuracy5
//	Figure 4  -> BenchmarkFigure4OverallAccuracy10
//	Figure 5  -> BenchmarkFigure5PerAppAccuracy1
//	Figure 6  -> BenchmarkFigure6PerAppAccuracy5
//	Figure 7  -> BenchmarkFigure7PerAppAccuracy10
//	Figure 8  -> BenchmarkFigure8AutotunerSuccess
//	Figure 9  -> BenchmarkFigure9AutotunerOracle
//	Figure 10 -> BenchmarkFigure10MethodOverhead (+ Autotuning)
//	Ablations -> BenchmarkAblation*
package spatialdue_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"spatialdue/internal/autotune"
	"spatialdue/internal/campaign"
	"spatialdue/internal/core"
	"spatialdue/internal/gf256"
	"spatialdue/internal/ndarray"
	"spatialdue/internal/overhead"
	"spatialdue/internal/predict"
	"spatialdue/internal/registry"
	"spatialdue/internal/sdrbench"
	"spatialdue/internal/tradeoff"
)

// benchCampaignConfig is the shared reduced-scale campaign setup.
func benchCampaignConfig(autotuneTrials int) campaign.Config {
	cfg := campaign.DefaultConfig()
	cfg.Scale = sdrbench.ScaleTiny
	cfg.Trials = 150
	cfg.AutotuneTrials = autotuneTrials
	cfg.AutotuneMaxProbes = 32
	return cfg
}

func BenchmarkTable2DatasetGeneration(b *testing.B) {
	// Table 2: the 111 datasets across 5 applications.
	for i := 0; i < b.N; i++ {
		n := 0
		for _, app := range sdrbench.Apps() {
			for _, name := range sdrbench.Names(app) {
				ds := sdrbench.Generate(app, name, sdrbench.ScaleTiny)
				n += ds.Array.Len()
			}
		}
		if i == 0 {
			b.ReportMetric(111, "datasets")
			b.ReportMetric(float64(n), "elements")
		}
	}
}

// runOverallFigure runs the pooled-accuracy campaign (Figures 2-4) and
// reports each method's success rate at the given threshold as a metric.
func runOverallFigure(b *testing.B, threshold float64) {
	b.Helper()
	var res *campaign.Results
	for i := 0; i < b.N; i++ {
		var err error
		res, err = campaign.Run(benchCampaignConfig(0))
		if err != nil {
			b.Fatal(err)
		}
	}
	labels, vals, err := res.OverallSeries(threshold)
	if err != nil {
		b.Fatal(err)
	}
	for i, l := range labels {
		b.ReportMetric(100*vals[i], "pct_"+metricName(l))
	}
}

func BenchmarkFigure2OverallAccuracy1(b *testing.B)  { runOverallFigure(b, 0.01) }
func BenchmarkFigure3OverallAccuracy5(b *testing.B)  { runOverallFigure(b, 0.05) }
func BenchmarkFigure4OverallAccuracy10(b *testing.B) { runOverallFigure(b, 0.10) }

// runPerAppFigure runs the per-application campaign (Figures 5-7) and
// reports the best method's rate per application.
func runPerAppFigure(b *testing.B, threshold float64) {
	b.Helper()
	var res *campaign.Results
	for i := 0; i < b.N; i++ {
		var err error
		res, err = campaign.Run(benchCampaignConfig(0))
		if err != nil {
			b.Fatal(err)
		}
	}
	apps, _, vals, err := res.PerAppMatrix(threshold)
	if err != nil {
		b.Fatal(err)
	}
	for ai, app := range apps {
		best := 0.0
		for _, v := range vals[ai] {
			if v > best {
				best = v
			}
		}
		b.ReportMetric(100*best, "pct_best_"+app)
	}
}

func BenchmarkFigure5PerAppAccuracy1(b *testing.B)  { runPerAppFigure(b, 0.01) }
func BenchmarkFigure6PerAppAccuracy5(b *testing.B)  { runPerAppFigure(b, 0.05) }
func BenchmarkFigure7PerAppAccuracy10(b *testing.B) { runPerAppFigure(b, 0.10) }

func benchAutotune(b *testing.B, oracle bool) {
	b.Helper()
	cfg := benchCampaignConfig(25)
	cfg.Trials = 60
	var res *campaign.Results
	for i := 0; i < b.N; i++ {
		var err error
		res, err = campaign.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	apps, withinTol, oracleRate, err := res.AutotuneSeries()
	if err != nil {
		b.Fatal(err)
	}
	for ai, app := range apps {
		if oracle {
			b.ReportMetric(100*oracleRate[ai], "pct_oracle_"+app)
		} else {
			b.ReportMetric(100*withinTol[ai], "pct_within1_"+app)
		}
	}
}

func BenchmarkFigure8AutotunerSuccess(b *testing.B) { benchAutotune(b, false) }
func BenchmarkFigure9AutotunerOracle(b *testing.B)  { benchAutotune(b, true) }

func BenchmarkFigure10MethodOverhead(b *testing.B) {
	// Figure 10: per-recovery cost of each method on ISABEL CLOUDf48.
	// These are true per-op microbenchmarks: ns/op is the figure's bar.
	ds := overhead.DefaultDataset(sdrbench.ScaleSmall)
	for _, m := range predict.HeadlineMethods() {
		m := m
		b.Run(metricName(m.String()), func(b *testing.B) {
			env := predict.NewEnv(ds.Array, 1)
			env.Range()
			p := predict.New(m)
			rng := rand.New(rand.NewSource(2))
			idx := make([]int, ds.Array.NumDims())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ds.Array.CoordsInto(idx, rng.Intn(ds.Array.Len()))
				_, _ = p.Predict(env, idx)
			}
		})
	}
	b.Run("Autotuning", func(b *testing.B) {
		env := predict.NewEnv(ds.Array, 1)
		env.SetShared(preparedStats(ds.Array))
		rng := rand.New(rand.NewSource(3))
		idx := make([]int, ds.Array.NumDims())
		cfg := autotune.Config{K: 3, Tolerance: 0.01, MaxProbes: 48}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ds.Array.CoordsInto(idx, rng.Intn(ds.Array.Len()))
			_, _ = autotune.Select(env, idx, cfg)
		}
	})
}

// --- Ablations (DESIGN.md §5) ----------------------------------------------

func BenchmarkAblationLorenzoLayers(b *testing.B) {
	// How much do deeper Lorenzo stencils (as in SZ) help or hurt?
	ds := sdrbench.Generate(sdrbench.CESM, "FLDS", sdrbench.ScaleSmall)
	for layers := 1; layers <= 4; layers++ {
		layers := layers
		b.Run(fmt.Sprintf("L%d", layers), func(b *testing.B) {
			env := predict.NewEnv(ds.Array, 1)
			p := predict.Lorenzo{Layers: layers}
			rng := rand.New(rand.NewSource(4))
			idx := make([]int, 2)
			hits, total := 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := rng.Intn(ds.Array.Len())
				ds.Array.CoordsInto(idx, off)
				v, err := p.Predict(env, idx)
				if err == nil {
					total++
					want := ds.Array.AtOffset(off)
					if re := relErr(want, v); re <= 0.01 {
						hits++
					}
				}
			}
			if total > 0 {
				b.ReportMetric(100*float64(hits)/float64(total), "pct_within1")
			}
		})
	}
}

func BenchmarkAblationAutotuneK(b *testing.B) {
	// Tuning-neighborhood radius: accuracy/cost trade-off around the
	// paper's k=3.
	ds := sdrbench.Generate(sdrbench.Miranda, "density", sdrbench.ScaleTiny)
	for _, k := range []int{1, 2, 3, 5} {
		k := k
		b.Run(fmt.Sprintf("K%d", k), func(b *testing.B) {
			env := predict.NewEnv(ds.Array, 1)
			env.SetShared(preparedStats(ds.Array))
			rng := rand.New(rand.NewSource(5))
			idx := make([]int, 3)
			cfg := autotune.Config{K: k, Tolerance: 0.01, MaxProbes: 64}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ds.Array.CoordsInto(idx, rng.Intn(ds.Array.Len()))
				_, _ = autotune.Select(env, idx, cfg)
			}
		})
	}
}

func BenchmarkAblationLocalRegressionRadius(b *testing.B) {
	// Patch radius for local linear regression (paper: 3 layers).
	ds := sdrbench.Generate(sdrbench.CESM, "FLDS", sdrbench.ScaleSmall)
	for _, r := range []int{1, 2, 3, 5} {
		r := r
		b.Run(fmt.Sprintf("R%d", r), func(b *testing.B) {
			env := predict.NewEnv(ds.Array, 1)
			p := predict.LocalRegression{Radius: r}
			rng := rand.New(rand.NewSource(6))
			idx := make([]int, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ds.Array.CoordsInto(idx, rng.Intn(ds.Array.Len()))
				_, _ = p.Predict(env, idx)
			}
		})
	}
}

// preparedStats returns shared statistics for a with the O(N) build done, so
// a benchmark times only what the engine repeats per recovery.
func preparedStats(a *ndarray.Array) *predict.SharedStats {
	s := predict.NewSharedStats(a)
	s.Prepare()
	return s
}

func BenchmarkAblationMomentsVsScan(b *testing.B) {
	// The O(1) shared moments versus the O(N) walk per prediction for
	// global regression.
	ds := sdrbench.Generate(sdrbench.Isabel, "Pf48", sdrbench.ScaleTiny)
	idx := []int{5, 12, 12}
	b.Run("scan", func(b *testing.B) {
		env := predict.NewEnv(ds.Array, 1)
		p := predict.GlobalRegression{}
		for i := 0; i < b.N; i++ {
			_, _ = p.Predict(env, idx)
		}
	})
	b.Run("moments", func(b *testing.B) {
		env := predict.NewEnv(ds.Array, 1)
		env.SetShared(preparedStats(ds.Array))
		p := predict.GlobalRegression{}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _ = p.Predict(env, idx)
		}
	})
}

func BenchmarkExtensionBurstRecovery(b *testing.B) {
	// Multi-element (cache-line) recovery, beyond the paper's
	// single-element scope: 16 consecutive float32 elements per burst.
	ds := sdrbench.Generate(sdrbench.CESM, "FLDS", sdrbench.ScaleSmall)
	eng := core.NewEngine(core.Options{Seed: 1})
	alloc := eng.Protect("g", ds.Array, ds.DType, registry.RecoverWith(predict.MethodLorenzo1))
	rng := rand.New(rand.NewSource(7))
	offsets := make([]int, 16)
	orig := make([]float64, 16)
	hits1, hits5, total := 0, 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := rng.Intn(ds.Array.Len() - 16)
		for j := range offsets {
			offsets[j] = base + j
			orig[j] = ds.Array.AtOffset(offsets[j])
			ds.Array.SetOffset(offsets[j], math.NaN())
		}
		out, err := eng.RecoverBurst(alloc, offsets)
		if err != nil {
			b.Fatal(err)
		}
		for j := range offsets {
			total++
			re := relErr(orig[j], out.New[j])
			if re <= 0.01 {
				hits1++
			}
			if re <= 0.05 {
				hits5++
			}
			ds.Array.SetOffset(offsets[j], orig[j]) // restore for the next burst
		}
	}
	b.StopTimer()
	if total > 0 {
		// Interior cells of a 16-wide gap cannot recover sub-texture
		// detail, so the 1% rate is structurally low; 5% is the fair bar.
		b.ReportMetric(100*float64(hits1)/float64(total), "pct_within1")
		b.ReportMetric(100*float64(hits5)/float64(total), "pct_within5")
	}
}

func BenchmarkExtensionRSParityEncode(b *testing.B) {
	// Reed-Solomon L3 parity throughput (k=16 ranks, m=2 parity, 1 MiB
	// checkpoints).
	codec, err := gf256.NewCodec(16, 2)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	shards := make([][]byte, 16)
	for i := range shards {
		shards[i] = make([]byte, 1<<20)
		rng.Read(shards[i])
	}
	b.SetBytes(16 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.Encode(shards); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensionTuneCache(b *testing.B) {
	// RECOVER_ANY with and without region-level tuning memoization, for
	// the realistic case the cache targets: faults clustering in one
	// neighborhood (a flaky DRAM row hits the same addresses repeatedly).
	ds := sdrbench.Generate(sdrbench.CESM, "FLDS", sdrbench.ScaleSmall)
	for _, block := range []int{0, 8} {
		block := block
		name := "uncached"
		if block > 0 {
			name = "cached"
		}
		b.Run(name, func(b *testing.B) {
			eng := core.NewEngine(core.Options{Seed: 1, TuneCacheBlock: block})
			alloc := eng.Protect("g", ds.Array, ds.DType, registry.RecoverAny())
			rng := rand.New(rand.NewSource(2))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// All faults land inside one 8x8 region.
				off := ds.Array.Offset(40+rng.Intn(8), 80+rng.Intn(8))
				old := ds.Array.AtOffset(off)
				ds.Array.SetOffset(off, math.NaN())
				if _, err := eng.RecoverElement(alloc, off); err != nil {
					b.Fatal(err)
				}
				ds.Array.SetOffset(off, old)
			}
		})
	}
}

func BenchmarkExtensionTradeoffSimulation(b *testing.B) {
	// End-to-end strategy comparison (Section 4.5): report the simulated
	// overhead percentage per strategy.
	p := tradeoff.Params{
		Work: 1e6, MTBF: 86400, CkptCost: 60, RestartCost: 30,
		LocalRecoveryCost: 0.016, LocalRecoverable: 0.9,
	}
	var cr, fr tradeoff.Outcome
	for i := 0; i < b.N; i++ {
		cr = tradeoff.Simulate(p, tradeoff.CheckpointRestart, int64(i))
		fr = tradeoff.Simulate(p, tradeoff.ForwardRecovery, int64(i))
	}
	b.ReportMetric(100*cr.Overhead(p)/p.Work, "pct_overhead_ckptrestart")
	b.ReportMetric(100*fr.Overhead(p)/p.Work, "pct_overhead_forward")
}

func metricName(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r == ' ' || r == '-':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

func relErr(want, got float64) float64 {
	if want == 0 {
		if got < 0 {
			return -got
		}
		return got
	}
	re := (got - want) / want
	if re < 0 {
		return -re
	}
	return re
}
