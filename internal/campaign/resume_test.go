package campaign

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"spatialdue/internal/predict"
	"spatialdue/internal/sdrbench"
)

func TestTrialPanicPropagatesAsError(t *testing.T) {
	cfg := tinyConfig()
	// predict.New panics on an out-of-range method; the campaign must turn
	// that into an error instead of crashing every in-flight dataset.
	cfg.Methods = []predict.Method{predict.MethodLorenzo1, predict.Method(250)}
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("campaign with a panicking method returned nil error")
	}
	if !strings.Contains(err.Error(), "panicked") {
		t.Errorf("err = %v, want panic provenance", err)
	}
}

func TestClampAndReservoirConfigurable(t *testing.T) {
	cfg := tinyConfig()
	cfg.AutotuneTrials = 0
	cfg.RelErrClamp = 2.0
	cfg.ReservoirCap = 8
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for mi := range res.Methods {
		for ai := range res.Apps {
			c := res.PerMethodApp[mi][ai]
			if len(c.Sample) > 8 {
				t.Errorf("cell [%d][%d] sample = %d values, cap 8", mi, ai, len(c.Sample))
			}
			for _, re := range c.Sample {
				if re > 2.0 {
					t.Errorf("sample value %v above clamp 2.0", re)
				}
			}
			if m := c.MeanRelErr(); m > 2.0 || math.IsNaN(m) {
				t.Errorf("cell [%d][%d] mean = %v, want <= clamp", mi, ai, m)
			}
		}
		// The pooled view (figures path) respects the cap too.
		if p := res.pooledCell(mi); len(p.Sample) > 8 {
			t.Errorf("pooled sample = %d values, cap 8", len(p.Sample))
		}
	}
}

// resultsDigest captures everything a resumed campaign must reproduce.
func resultsDigest(r *Results) map[string]any {
	d := map[string]any{
		"total":    r.TotalTrials,
		"datasets": r.Datasets,
	}
	for mi := range r.Methods {
		for ti := range r.Thresholds {
			d[r.Methods[mi].String()+"@"+string(rune('0'+ti))] = r.OverallRate(mi, ti)
		}
		c := r.pooledCell(mi)
		d[r.Methods[mi].String()+"/mean"] = c.MeanRelErr()
		d[r.Methods[mi].String()+"/sample"] = append([]float64(nil), c.Sample...)
	}
	if r.Autotune != nil {
		for ai, c := range r.Autotune {
			d["tune/"+r.Apps[ai].String()] = *c
		}
	}
	return d
}

func TestResumeJournalRoundTrip(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "campaign.jsonl")
	cfg := tinyConfig()
	cfg.ResumeJournal = jpath
	// Single worker: datasets complete (and merge) in job order, so the
	// journaled replay reproduces the results bit for bit, floating-point
	// accumulation order included.
	cfg.Workers = 1

	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Second run: every dataset must come from the journal, not be
	// recomputed, and the results must match exactly.
	var progress []string
	cfg.Progress = func(s string) { progress = append(progress, s) }
	second, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(progress) == 0 {
		t.Fatal("no progress lines")
	}
	for _, line := range progress {
		if !strings.Contains(line, "resumed from journal") {
			t.Errorf("dataset recomputed despite journal: %q", line)
		}
	}
	if !reflect.DeepEqual(resultsDigest(first), resultsDigest(second)) {
		t.Error("resumed results differ from the original run")
	}
}

func TestResumeJournalPartial(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "campaign.jsonl")

	// First life: only HACC.
	cfg := tinyConfig()
	cfg.Apps = []sdrbench.App{sdrbench.HACC}
	cfg.ResumeJournal = jpath
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}

	// Second life under a DIFFERENT configuration (more apps): the journal
	// is stale, must be ignored, and the campaign recomputes everything.
	cfg2 := tinyConfig()
	cfg2.ResumeJournal = jpath
	// Run calls Progress from its worker goroutines.
	var (
		mu       sync.Mutex
		progress []string
	)
	cfg2.Progress = func(s string) {
		mu.Lock()
		defer mu.Unlock()
		progress = append(progress, s)
	}
	res, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range progress {
		if strings.Contains(line, "resumed") {
			t.Errorf("stale journal was resumed: %q", line)
		}
	}
	wantDatasets := sdrbench.DatasetCount(sdrbench.HACC) + sdrbench.DatasetCount(sdrbench.Isabel)
	if len(res.Datasets) != wantDatasets {
		t.Errorf("datasets = %d, want %d", len(res.Datasets), wantDatasets)
	}

	// Third life repeats cfg2: now everything resumes from the rewritten
	// journal.
	progress = nil
	cfg3 := cfg2
	if _, err := Run(cfg3); err != nil {
		t.Fatal(err)
	}
	resumed := 0
	for _, line := range progress {
		if strings.Contains(line, "resumed from journal") {
			resumed++
		}
	}
	if resumed != wantDatasets {
		t.Errorf("resumed %d datasets, want %d", resumed, wantDatasets)
	}
}

func TestResumeJournalRejectsForeignFile(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "campaign.jsonl")
	cfg := tinyConfig()
	cfg.ResumeJournal = jpath
	// A valid JSON-lines file that is not a campaign journal.
	if err := os.WriteFile(jpath, []byte("{\"k\":\"intent\",\"i\":{\"id\":1}}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("foreign journal accepted")
	}
}
