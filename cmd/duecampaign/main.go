// Command duecampaign runs the paper's fault-injection campaigns and prints
// ASCII renditions of Figures 2-9 plus Table 2.
//
// Usage:
//
//	duecampaign [-fig all|2,5,8] [-trials N] [-autotrials N] [-scale tiny|small|medium]
//	            [-fault bit|burst|row|column] [-fault-span N] [-spatial]
//	            [-seed S] [-workers W] [-csvdir DIR] [-v]
//
// -spatial appends the spatial-analytics tuning study: clustered
// simultaneous errors at 1%/5%/10% density, reconstructed by a fixed-K
// tuner baseline and by the analytics-guided tuner (hot stripes widen K and
// fall back to the stripe's best method). `duecampaign -fig "" -spatial`
// runs the study alone.
//
// The paper runs >= 6000 trials per dataset; the default here is smaller so
// a full run finishes in about a minute. Pass -trials 6000 for a
// paper-strength campaign.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"spatialdue/internal/campaign"
	"spatialdue/internal/faultinject"
	"spatialdue/internal/sdrbench"
)

func main() {
	var (
		figFlag    = flag.String("fig", "all", "figures to render: 'all' or comma list from 2-9 (plus 'table2')")
		trials     = flag.Int("trials", 1500, "fault-injection trials per dataset (paper: >= 6000)")
		autotrials = flag.Int("autotrials", 200, "trials per dataset that also run the auto-tuner (figures 8-9)")
		scaleFlag  = flag.String("scale", "small", "dataset scale: tiny, small, medium")
		seed       = flag.Int64("seed", 42, "campaign seed")
		workers    = flag.Int("workers", 0, "dataset-level parallelism (0 = GOMAXPROCS)")
		csvDir     = flag.String("csvdir", "", "write overall/perapp/autotune CSVs into this directory")
		verbose    = flag.Bool("v", false, "log per-dataset progress")
		detection  = flag.Bool("detect", false, "also run the SDC-detector characterization study")
		detTrials  = flag.Int("dettrials", 40, "detection-study injections per dataset (each scans the whole dataset)")
		smoothness = flag.Bool("smoothness", false, "also print the smoothness-vs-accuracy analysis (paper contribution #2)")
		dataDir    = flag.String("data", "", "run on real SDRBench dumps from this directory (needs manifest.json; overrides -scale)")
		svgDir     = flag.String("svgdir", "", "also write each rendered figure as an SVG into this directory")
		faultFlag  = flag.String("fault", "bit", "fault class per trial: bit, burst, row, or column (structured classes score every wiped cell against degraded stencils)")
		faultSpan  = flag.Int("fault-span", 0, "fault-class span: burst bit-width or row cells-per-wipe (0 = class default)")
		spatialRun = flag.Bool("spatial", false, "also run the spatial-analytics tuning study (clustered errors at 1%/5%/10%, analytics-guided vs fixed-K baseline)")
	)
	flag.Parse()

	cfg := campaign.DefaultConfig()
	cfg.Trials = *trials
	cfg.AutotuneTrials = *autotrials
	cfg.Seed = *seed
	cfg.Workers = *workers
	scale, err := sdrbench.ParseScale(*scaleFlag)
	if err != nil {
		fatalf("%v", err)
	}
	cfg.Scale = scale
	cfg.DataDir = *dataDir
	fclass, err := faultinject.ParseFaultClass(*faultFlag)
	if err != nil {
		fatalf("%v", err)
	}
	if fclass == faultinject.ClassMetadata {
		fatalf("-fault metadata corrupts descriptors, not data; campaigns need a data class")
	}
	cfg.FaultClass = fclass
	cfg.FaultSpan = *faultSpan
	if *verbose {
		cfg.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}

	figs, wantTable2, err := parseFigs(*figFlag)
	if err != nil {
		fatalf("%v", err)
	}
	needTuner := false
	for _, f := range figs {
		if f == 8 || f == 9 {
			needTuner = true
		}
	}
	if !needTuner {
		cfg.AutotuneTrials = 0
	}

	// `duecampaign -fig "" -spatial` runs the spatial study alone; only
	// spin up the full fault-injection campaign when something consumes it.
	runMain := len(figs) > 0 || wantTable2 || *smoothness || *csvDir != ""
	var res *campaign.Results
	if runMain {
		var err error
		res, err = campaign.Run(cfg)
		if err != nil {
			fatalf("campaign failed: %v", err)
		}
	}

	if wantTable2 {
		fmt.Println("Table 2: applications and data sets (scaled synthetic stand-ins)")
		res.RenderTable2(os.Stdout)
	}
	for _, f := range figs {
		if err := res.RenderFigure(os.Stdout, f); err != nil {
			fatalf("figure %d: %v", f, err)
		}
	}
	if *svgDir != "" {
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			fatalf("svgdir: %v", err)
		}
		for _, f := range figs {
			p := filepath.Join(*svgDir, fmt.Sprintf("figure%d.svg", f))
			fh, err := os.Create(p)
			if err != nil {
				fatalf("create %s: %v", p, err)
			}
			if err := res.RenderFigureSVG(fh, f); err != nil {
				fh.Close()
				fatalf("render %s: %v", p, err)
			}
			fh.Close()
			fmt.Fprintf(os.Stderr, "wrote %s\n", p)
		}
	}

	if *smoothness {
		if err := res.RenderSmoothness(os.Stdout, 0.01); err != nil {
			fatalf("smoothness analysis: %v", err)
		}
	}

	if *detection {
		dcfg := campaign.DefaultDetectionConfig()
		dcfg.Scale = cfg.Scale
		dcfg.Trials = *detTrials
		dcfg.Seed = *seed
		dres, err := campaign.RunDetection(dcfg)
		if err != nil {
			fatalf("detection study: %v", err)
		}
		dres.Render(os.Stdout)
		fmt.Println()
		tcfg := campaign.DefaultTemporalStudyConfig()
		tcfg.Seed = *seed
		tres, err := campaign.RunTemporalStudy(tcfg)
		if err != nil {
			fatalf("temporal study: %v", err)
		}
		tres.Render(os.Stdout)
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fatalf("csvdir: %v", err)
			}
			p := filepath.Join(*csvDir, "detection.csv")
			fh, err := os.Create(p)
			if err != nil {
				fatalf("create %s: %v", p, err)
			}
			if err := dres.WriteCSV(fh); err != nil {
				fatalf("write %s: %v", p, err)
			}
			fh.Close()
			fmt.Fprintf(os.Stderr, "wrote %s\n", p)
		}
	}

	if *spatialRun {
		scfg := campaign.DefaultSpatialStudyConfig()
		scfg.Scale = cfg.Scale
		scfg.Seed = *seed
		sres, err := campaign.RunSpatialStudy(scfg)
		if err != nil {
			fatalf("spatial study: %v", err)
		}
		if runMain || *detection {
			fmt.Println()
		}
		sres.Render(os.Stdout)
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatalf("csvdir: %v", err)
		}
		write := func(name string, f func(w *os.File) error) {
			p := filepath.Join(*csvDir, name)
			fh, err := os.Create(p)
			if err != nil {
				fatalf("create %s: %v", p, err)
			}
			defer fh.Close()
			if err := f(fh); err != nil {
				fatalf("write %s: %v", p, err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", p)
		}
		write("overall.csv", func(w *os.File) error { return res.WriteOverallCSV(w) })
		write("perapp.csv", func(w *os.File) error { return res.WritePerAppCSV(w) })
		write("quantiles.csv", func(w *os.File) error { return res.WriteQuantilesCSV(w) })
		write("perdataset.csv", func(w *os.File) error { return res.WritePerDatasetCSV(w) })
		if res.Autotune != nil {
			write("autotune.csv", func(w *os.File) error { return res.WriteAutotuneCSV(w) })
		}
	}
}

func parseFigs(s string) (figs []int, table2 bool, err error) {
	if s == "all" {
		return []int{2, 3, 4, 5, 6, 7, 8, 9}, true, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if part == "table2" {
			table2 = true
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 2 || n > 9 {
			return nil, false, fmt.Errorf("bad -fig element %q (want 2-9 or table2)", part)
		}
		figs = append(figs, n)
	}
	return figs, table2, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "duecampaign: "+format+"\n", args...)
	os.Exit(1)
}
