package campaign

import (
	"math"
	"strings"
	"testing"

	"spatialdue/internal/predict"
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

// TestClampAndReservoirBounded: a cell charges failed and wild predictions
// at the clamp, and its quantile sample, merged or not, never outgrows the
// reservoir.
func TestClampAndReservoirBounded(t *testing.T) {
	thresholds := []float64{0.01}
	rng := &splitmix{state: 7}
	a, b := newCell(len(thresholds)), newCell(len(thresholds))
	for i := 0; i < reservoirCap+100; i++ {
		re := 0.001 * float64(i%10)
		switch i % 97 {
		case 0:
			re = math.Inf(1) // no prediction
		case 1:
			re = 5e3 // wild prediction
		}
		a.add(re, thresholds, rng)
		b.add(re, thresholds, rng)
	}
	for _, c := range []*Cell{a, b} {
		if len(c.Sample) != reservoirCap {
			t.Errorf("sample = %d values, want the cap %d", len(c.Sample), reservoirCap)
		}
		for _, re := range c.Sample {
			if re > relErrClamp {
				t.Errorf("sample value %v above clamp %v", re, relErrClamp)
			}
		}
		if m := c.MeanRelErr(); m > relErrClamp || math.IsNaN(m) {
			t.Errorf("mean = %v, want <= clamp", m)
		}
	}
	if a.Failures == 0 {
		t.Error("no failures counted for infinite relative errors")
	}
	a.merge(b)
	if len(a.Sample) != reservoirCap {
		t.Errorf("merged sample = %d values, want the cap %d", len(a.Sample), reservoirCap)
	}
	if a.Trials != 2*(reservoirCap+100) {
		t.Errorf("merged trials = %d, want %d", a.Trials, 2*(reservoirCap+100))
	}
}
