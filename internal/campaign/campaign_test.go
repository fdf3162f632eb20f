package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"spatialdue/internal/predict"
	"spatialdue/internal/sdrbench"
)

// tinyConfig runs a fast but non-trivial campaign over two applications.
func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.Scale = sdrbench.ScaleTiny
	cfg.Trials = 60
	cfg.AutotuneTrials = 10
	cfg.AutotuneMaxProbes = 24
	cfg.Apps = []sdrbench.App{sdrbench.HACC, sdrbench.Isabel}
	return cfg
}

func runTiny(t *testing.T) *Results {
	t.Helper()
	res, err := Run(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunAccounting(t *testing.T) {
	res := runTiny(t)
	wantDatasets := sdrbench.DatasetCount(sdrbench.HACC) + sdrbench.DatasetCount(sdrbench.Isabel)
	if len(res.Datasets) != wantDatasets {
		t.Errorf("datasets = %d, want %d", len(res.Datasets), wantDatasets)
	}
	if res.TotalTrials != wantDatasets*60 {
		t.Errorf("TotalTrials = %d, want %d", res.TotalTrials, wantDatasets*60)
	}
	for mi := range res.Methods {
		for ai := range res.Apps {
			c := res.PerMethodApp[mi][ai]
			if c.Trials != sdrbench.DatasetCount(res.Apps[ai])*60 {
				t.Errorf("cell [%d][%d] trials = %d", mi, ai, c.Trials)
			}
			for ti := range res.Thresholds {
				if r := c.Rate(ti); r < 0 || r > 1 {
					t.Errorf("rate out of range: %v", r)
				}
			}
		}
	}
}

func TestRatesMonotonicInThreshold(t *testing.T) {
	res := runTiny(t)
	for mi := range res.Methods {
		prev := -1.0
		for ti := range res.Thresholds {
			r := res.OverallRate(mi, ti)
			if r < prev {
				t.Errorf("%v: rate decreased from %v to %v at looser threshold",
					res.Methods[mi], prev, r)
			}
			prev = r
		}
	}
}

func TestShapeLorenzoBeatsZero(t *testing.T) {
	// The paper's most basic shape claim at every tolerance.
	res := runTiny(t)
	var lor, zero int
	for i, m := range res.Methods {
		if m == predict.MethodLorenzo1 {
			lor = i
		}
		if m == predict.MethodZero {
			zero = i
		}
	}
	for ti := range res.Thresholds {
		if res.OverallRate(lor, ti) <= res.OverallRate(zero, ti) {
			t.Errorf("threshold %v: Lorenzo (%v) <= Zero (%v)",
				res.Thresholds[ti], res.OverallRate(lor, ti), res.OverallRate(zero, ti))
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	r1, err1 := Run(tinyConfig())
	r2, err2 := Run(tinyConfig())
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for mi := range r1.Methods {
		for ai := range r1.Apps {
			c1, c2 := r1.PerMethodApp[mi][ai], r2.PerMethodApp[mi][ai]
			for ti := range r1.Thresholds {
				if c1.Hits[ti] != c2.Hits[ti] {
					t.Fatalf("non-deterministic hits at [%d][%d][%d]: %d vs %d",
						mi, ai, ti, c1.Hits[ti], c2.Hits[ti])
				}
			}
		}
	}
	for ai := range r1.Apps {
		if r1.Autotune[ai].WithinTol != r2.Autotune[ai].WithinTol {
			t.Fatal("non-deterministic autotune results")
		}
	}
}

func TestSeedChangesResults(t *testing.T) {
	cfg := tinyConfig()
	r1, _ := Run(cfg)
	cfg.Seed = 777
	r2, _ := Run(cfg)
	same := true
	for mi := range r1.Methods {
		for ai := range r1.Apps {
			for ti := range r1.Thresholds {
				if r1.PerMethodApp[mi][ai].Hits[ti] != r2.PerMethodApp[mi][ai].Hits[ti] {
					same = false
				}
			}
		}
	}
	if same {
		t.Error("different seeds produced identical campaigns")
	}
}

func TestAutotunePopulated(t *testing.T) {
	res := runTiny(t)
	if res.Autotune == nil {
		t.Fatal("autotune disabled")
	}
	for ai, c := range res.Autotune {
		if c.Trials == 0 {
			t.Errorf("app %v: no tuned trials", res.Apps[ai])
		}
		if c.WithinTol > c.Trials || c.OracleBest > c.Trials {
			t.Errorf("app %v: counts exceed trials: %+v", res.Apps[ai], c)
		}
		chosen := 0
		for _, n := range c.Chosen {
			chosen += n
		}
		if chosen != c.Trials {
			t.Errorf("app %v: chosen histogram sums to %d, trials %d", res.Apps[ai], chosen, c.Trials)
		}
	}
}

func TestAutotuneDisabled(t *testing.T) {
	cfg := tinyConfig()
	cfg.AutotuneTrials = 0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Autotune != nil {
		t.Error("autotune results present when disabled")
	}
	if err := res.RenderFigure(&bytes.Buffer{}, 8); err == nil {
		t.Error("figure 8 rendered without tuning data")
	}
}

func TestRunValidation(t *testing.T) {
	cfg := tinyConfig()
	cfg.Trials = 0
	if _, err := Run(cfg); err == nil {
		t.Error("Trials=0 accepted")
	}
}

func TestRenderFigures(t *testing.T) {
	res := runTiny(t)
	for fig := 2; fig <= 9; fig++ {
		var b bytes.Buffer
		if err := res.RenderFigure(&b, fig); err != nil {
			t.Errorf("figure %d: %v", fig, err)
			continue
		}
		if !strings.Contains(b.String(), "Figure") {
			t.Errorf("figure %d output missing title", fig)
		}
	}
	if err := res.RenderFigure(&bytes.Buffer{}, 1); err == nil {
		t.Error("figure 1 should be rejected")
	}
	if err := res.RenderFigure(&bytes.Buffer{}, 10); err == nil {
		t.Error("figure 10 is not a campaign figure")
	}
}

func TestRenderTable2(t *testing.T) {
	res := runTiny(t)
	var b bytes.Buffer
	res.RenderTable2(&b)
	out := b.String()
	for _, want := range []string{"HACC", "ISABEL", "Data Set Count"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 missing %q:\n%s", want, out)
		}
	}
}

func TestCSVOutputs(t *testing.T) {
	res := runTiny(t)
	var b bytes.Buffer
	if err := res.WriteOverallCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 1+len(res.Methods) {
		t.Errorf("overall CSV has %d lines", len(lines))
	}
	b.Reset()
	if err := res.WritePerAppCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines = strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 1+len(res.Methods)*len(res.Apps) {
		t.Errorf("perapp CSV has %d lines", len(lines))
	}
	b.Reset()
	if err := res.WriteAutotuneCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines = strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 1+len(res.Apps) {
		t.Errorf("autotune CSV has %d lines", len(lines))
	}
}

func TestOverallSeriesThresholds(t *testing.T) {
	res := runTiny(t)
	labels, vals, err := res.OverallSeries(0.05)
	if err != nil || len(labels) != len(res.Methods) || len(vals) != len(labels) {
		t.Fatalf("OverallSeries: %v", err)
	}
	if _, _, err := res.OverallSeries(0.42); err == nil {
		t.Error("unknown threshold accepted")
	}
}

func TestCellStatistics(t *testing.T) {
	res := runTiny(t)
	c := res.PerMethodApp[0][0]
	if c.MeanRelErr() < 0 {
		t.Error("negative mean relative error")
	}
	if len(c.Sample) == 0 {
		t.Error("reservoir empty")
	}
	med := c.MedianRelErr()
	if med < 0 {
		t.Errorf("median = %v", med)
	}
}

func TestQuantilesCSV(t *testing.T) {
	res := runTiny(t)
	var b bytes.Buffer
	if err := res.WriteQuantilesCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 1+len(res.Methods) {
		t.Errorf("quantiles CSV has %d lines", len(lines))
	}
	if !strings.Contains(lines[0], "p50") {
		t.Errorf("missing median column: %q", lines[0])
	}
}

func TestPaperConclusionLorenzoMedianBelow1Percent(t *testing.T) {
	// The paper's headline: "the Lorenzo 1-Layer prediction method is the
	// most accurate ... with over half of its predictions within 1% of the
	// correct value." Run the full 5-app campaign at tiny scale.
	cfg := DefaultConfig()
	cfg.Scale = sdrbench.ScaleTiny
	cfg.Trials = 120
	cfg.AutotuneTrials = 0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for mi, m := range res.Methods {
		if m == predict.MethodLorenzo1 {
			if med := res.pooledCell(mi).MedianRelErr(); med >= 0.01 {
				t.Errorf("Lorenzo pooled median rel err = %v, want < 1%%", med)
			}
			return
		}
	}
	t.Fatal("Lorenzo not in method list")
}

func TestDatasetInfoSorted(t *testing.T) {
	res := runTiny(t)
	for i := 1; i < len(res.Datasets); i++ {
		a, b := res.Datasets[i-1], res.Datasets[i]
		if a.App > b.App || (a.App == b.App && a.Name > b.Name) {
			t.Fatalf("datasets not sorted at %d: %v/%v after %v/%v", i, b.App, b.Name, a.App, a.Name)
		}
	}
}

func TestProgressCallback(t *testing.T) {
	cfg := tinyConfig()
	cfg.Apps = []sdrbench.App{sdrbench.HACC}
	// Run calls Progress from its worker goroutines.
	var n atomic.Int64
	cfg.Progress = func(string) { n.Add(1) }
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if n.Load() != int64(sdrbench.DatasetCount(sdrbench.HACC)) {
		t.Errorf("progress called %d times", n.Load())
	}
}

func TestWorkersEquivalence(t *testing.T) {
	cfg := tinyConfig()
	cfg.Workers = 1
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	r4, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for mi := range r1.Methods {
		for ai := range r1.Apps {
			for ti := range r1.Thresholds {
				if r1.PerMethodApp[mi][ai].Hits[ti] != r4.PerMethodApp[mi][ai].Hits[ti] {
					t.Fatal("worker count changed results")
				}
			}
		}
	}
}

func TestRunWithRealDataDir(t *testing.T) {
	// Dump two synthetic datasets as raw SDRBench-format files, then run
	// the campaign against the directory instead of the generators.
	dir := t.TempDir()
	for _, spec := range []struct {
		app  sdrbench.App
		name string
		file string
	}{
		{sdrbench.Isabel, "Pf48", "Pf48.f32"},
		{sdrbench.HACC, "xx", "xx.f32"},
	} {
		ds := sdrbench.Generate(spec.app, spec.name, sdrbench.ScaleTiny)
		if err := sdrbench.WriteRaw(ds, filepath.Join(dir, spec.file)); err != nil {
			t.Fatal(err)
		}
	}
	manifest := `{"datasets":[
		{"app":"ISABEL","name":"Pf48","file":"Pf48.f32","dims":[10,25,25]},
		{"app":"HACC","name":"xx","file":"xx.f32","dims":[4096]}
	]}`
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig()
	cfg.Trials = 50
	cfg.AutotuneTrials = 5
	cfg.AutotuneMaxProbes = 16
	cfg.DataDir = dir
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Datasets) != 2 {
		t.Fatalf("ran %d datasets", len(res.Datasets))
	}
	if len(res.Apps) != 2 {
		t.Fatalf("apps = %v", res.Apps)
	}
	// Real-data results must match generator results for identical bits.
	gen := DefaultConfig()
	gen.Scale = sdrbench.ScaleTiny
	gen.Trials = 50
	gen.AutotuneTrials = 5
	gen.AutotuneMaxProbes = 16
	gen.Apps = []sdrbench.App{sdrbench.HACC, sdrbench.Isabel}
	genRes, err := Run(gen)
	if err != nil {
		t.Fatal(err)
	}
	// Compare the one dataset present in both: find per-dataset cells.
	var fromData, fromGen *DatasetCells
	for i := range res.PerDataset {
		if res.PerDataset[i].Info.Name == "Pf48" {
			fromData = &res.PerDataset[i]
		}
	}
	for i := range genRes.PerDataset {
		if genRes.PerDataset[i].Info.Name == "Pf48" {
			fromGen = &genRes.PerDataset[i]
		}
	}
	if fromData == nil || fromGen == nil {
		t.Fatal("Pf48 missing from results")
	}
	for mi := range res.Methods {
		for ti := range res.Thresholds {
			if fromData.Hits[mi][ti] != fromGen.Hits[mi][ti] {
				t.Fatalf("real-data hits differ from generator at [%d][%d]: %d vs %d",
					mi, ti, fromData.Hits[mi][ti], fromGen.Hits[mi][ti])
			}
		}
	}
}

func TestRunDataDirMissingManifest(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Trials = 10
	cfg.DataDir = t.TempDir()
	if _, err := Run(cfg); err == nil {
		t.Error("missing manifest accepted")
	}
}

func TestRenderFigureSVG(t *testing.T) {
	res := runTiny(t)
	for fig := 2; fig <= 9; fig++ {
		var b bytes.Buffer
		if err := res.RenderFigureSVG(&b, fig); err != nil {
			t.Errorf("figure %d SVG: %v", fig, err)
			continue
		}
		out := b.String()
		if !strings.Contains(out, "<svg") || !strings.Contains(out, "</svg>") {
			t.Errorf("figure %d: malformed SVG", fig)
		}
	}
	if err := res.RenderFigureSVG(&bytes.Buffer{}, 1); err == nil {
		t.Error("figure 1 SVG should be rejected")
	}
}
