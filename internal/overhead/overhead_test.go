package overhead

import (
	"strings"
	"testing"
	"time"

	"spatialdue/internal/predict"
	"spatialdue/internal/sdrbench"
)

func fastConfig() Config {
	return Config{MinIters: 5, MinDuration: time.Millisecond, Seed: 1, TuneK: 2, TuneMaxProbes: 8}
}

func TestMeasureMethodsBasics(t *testing.T) {
	ds := DefaultDataset(sdrbench.ScaleTiny)
	methods := []predict.Method{predict.MethodZero, predict.MethodAverage, predict.MethodLinReg}
	ts := MeasureMethods(ds, methods, fastConfig())
	if len(ts) != len(methods) {
		t.Fatalf("got %d timings", len(ts))
	}
	for _, tm := range ts {
		if tm.Calls < 5 {
			t.Errorf("%s: only %d calls", tm.Name, tm.Calls)
		}
		if tm.PerCall <= 0 {
			t.Errorf("%s: non-positive per-call time", tm.Name)
		}
	}
}

func TestLinRegSlowestZeroCheapest(t *testing.T) {
	// The robust shape of Figure 10: Linear Regression scans the whole
	// dataset, so it must cost far more per recovery than Zero.
	ds := DefaultDataset(sdrbench.ScaleSmall)
	cfg := fastConfig()
	cfg.MinDuration = 20 * time.Millisecond
	ts := MeasureMethods(ds, []predict.Method{predict.MethodZero, predict.MethodLinReg}, cfg)
	zero, linreg := ts[0], ts[1]
	if linreg.PerCall < 10*zero.PerCall {
		t.Errorf("LinReg (%v) not >> Zero (%v)", linreg.PerCall, zero.PerCall)
	}
}

func TestMeasureAutotune(t *testing.T) {
	ds := DefaultDataset(sdrbench.ScaleTiny)
	tm := MeasureAutotune(ds, predict.HeadlineMethods(), fastConfig())
	if tm.Name != "Auto-tuning" || tm.Calls < 5 || tm.PerCall <= 0 {
		t.Errorf("autotune timing = %+v", tm)
	}
}

func TestFormatMillis(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{50 * time.Nanosecond, "e-05"}, // scientific for sub-microsecond
		{300 * time.Microsecond, "0.3000 ms"},
		{2500 * time.Microsecond, "2.50 ms"},
	}
	for _, c := range cases {
		got := FormatMillis(c.d)
		if !strings.Contains(got, c.want) {
			t.Errorf("FormatMillis(%v) = %q, want contains %q", c.d, got, c.want)
		}
	}
}

func TestDefaultConfigMatchesPaperMethodology(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.MinIters != 10 || cfg.MinDuration != time.Second {
		t.Errorf("DefaultConfig = %+v, want >=10 iters and >=1s (Section 4.5)", cfg)
	}
}

func TestDefaultDatasetIsCloudf48(t *testing.T) {
	ds := DefaultDataset(sdrbench.ScaleTiny)
	if ds.App != sdrbench.Isabel || ds.Name != "CLOUDf48" {
		t.Errorf("default dataset = %v", ds)
	}
}
