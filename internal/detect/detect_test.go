package detect

import (
	"math"
	"testing"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/ndarray"
)

func smoothGrid(ny, nx int) *ndarray.Array {
	a := ndarray.New(ny, nx)
	a.FillFunc(func(idx []int) float64 {
		return 50 + 10*math.Sin(float64(idx[0])/6)*math.Cos(float64(idx[1])/7)
	})
	return a
}

func TestRangeDetectorFitAndFlag(t *testing.T) {
	a := smoothGrid(20, 20)
	var d RangeDetector
	d.Lo, d.Hi = a.MinMax() // the clean snapshot's interval
	if got := d.Scan(a); len(got) != 0 {
		t.Fatalf("clean scan flagged %d elements", len(got))
	}
	off := a.Offset(5, 5)
	a.SetOffset(off, 1e9)
	got := d.Scan(a)
	if len(got) != 1 || got[0] != off {
		t.Errorf("Scan = %v, want [%d]", got, off)
	}
}

func TestRangeDetectorMargin(t *testing.T) {
	a := smoothGrid(10, 10)
	var d RangeDetector
	d.Lo, d.Hi = a.MinMax() // the clean snapshot's interval
	d.Margin = 0.5
	// A value slightly above the max must survive with a margin.
	_, max := a.MinMax()
	a.SetOffset(0, max*1.05)
	if got := d.Scan(a); len(got) != 0 {
		t.Errorf("marginal value flagged: %v", got)
	}
}

func TestRangeDetectorFlagsNaN(t *testing.T) {
	a := smoothGrid(10, 10)
	var d RangeDetector
	d.Lo, d.Hi = a.MinMax() // the clean snapshot's interval
	a.SetOffset(7, math.NaN())
	if got := d.Scan(a); len(got) != 1 || got[0] != 7 {
		t.Errorf("NaN scan = %v", got)
	}
}

func TestSpatialDetectorCatchesBigFlip(t *testing.T) {
	a := smoothGrid(30, 30)
	d := &SpatialDetector{Theta: 10}
	if got := d.Scan(a); len(got) != 0 {
		t.Fatalf("clean scan flagged %d", len(got))
	}
	off := a.Offset(15, 15)
	orig := a.AtOffset(off)
	a.SetOffset(off, bitflip.Flip(orig, bitflip.Float32, 30)) // exponent bit
	got := d.Scan(a)
	found := false
	for _, o := range got {
		if o == off {
			found = true
		}
	}
	if !found {
		t.Errorf("exponent flip not flagged (scan=%v)", got)
	}
	// Only the corrupted element and possibly its immediate neighbors may
	// be flagged.
	if len(got) > 5 {
		t.Errorf("too many flags: %d", len(got))
	}
}

func TestSpatialDetectorFlagsNonFinite(t *testing.T) {
	a := smoothGrid(10, 10)
	d := &SpatialDetector{}
	a.SetOffset(3, math.Inf(1))
	got := d.Scan(a)
	found := false
	for _, o := range got {
		if o == 3 {
			found = true
		}
	}
	if !found {
		t.Error("Inf not flagged")
	}
}

func TestSpatialDetectorMissesTinyFlip(t *testing.T) {
	// A low-mantissa flip is indistinguishable from data variation — the
	// realistic blind spot of data-analytic detectors.
	a := smoothGrid(30, 30)
	d := &SpatialDetector{Theta: 10}
	off := a.Offset(10, 10)
	a.SetOffset(off, bitflip.Flip(a.AtOffset(off), bitflip.Float32, 3))
	for _, o := range d.Scan(a) {
		if o == off {
			t.Error("low-order mantissa flip unexpectedly flagged")
		}
	}
}

func TestSpatialDetectorTinyArray(t *testing.T) {
	a := ndarray.New(1)
	d := &SpatialDetector{}
	if got := d.Scan(a); got != nil {
		t.Errorf("1-element scan = %v", got)
	}
}

func TestTemporalDetectorWarmup(t *testing.T) {
	det := NewTemporal(6)
	a := smoothGrid(20, 20)
	// First observation: no history, nothing flagged.
	if got := det.Observe(a); len(got) != 0 {
		t.Fatalf("first Observe flagged %d", len(got))
	}
	// Legitimate evolution must not be flagged even while the bound warms
	// up.
	for step := 0; step < 5; step++ {
		evolve(a, 0.3)
		if got := det.Observe(a); len(got) != 0 {
			t.Fatalf("step %d: clean evolution flagged %d elements", step, len(got))
		}
	}
}

func TestTemporalDetectorCatchesCorruption(t *testing.T) {
	det := NewTemporal(6)
	a := smoothGrid(20, 20)
	for step := 0; step < 4; step++ {
		det.Observe(a)
		evolve(a, 0.3)
	}
	off := a.Offset(10, 10)
	a.SetOffset(off, a.AtOffset(off)*1e6)
	got := det.Scan(a)
	if len(got) != 1 || got[0] != off {
		t.Errorf("Scan = %v, want [%d]", got, off)
	}
}

func TestTemporalDetectorFlagsNaN(t *testing.T) {
	det := NewTemporal(6)
	a := smoothGrid(10, 10)
	det.Observe(a)
	evolve(a, 0.1)
	det.Observe(a)
	a.SetOffset(5, math.NaN())
	got := det.Scan(a)
	if len(got) != 1 || got[0] != 5 {
		t.Errorf("NaN Scan = %v", got)
	}
}

func TestTemporalDetectorHistoryBounded(t *testing.T) {
	det := NewTemporal(3)
	a := smoothGrid(5, 5)
	for i := 0; i < 10; i++ {
		det.Observe(a)
	}
	if len(det.hist) > 3 {
		t.Errorf("history grew to %d snapshots", len(det.hist))
	}
}

func TestTemporalDetectorScanReadOnly(t *testing.T) {
	det := NewTemporal(6)
	a := smoothGrid(10, 10)
	det.Observe(a)
	evolve(a, 0.2)
	det.Observe(a)
	before := len(det.hist)
	det.Scan(a)
	if len(det.hist) != before {
		t.Error("Scan modified history")
	}
}

func TestTemporalDetectorOrderAdapts(t *testing.T) {
	det := NewTemporal(6)
	a := ndarray.New(8, 8)
	// Linearly growing field: the linear temporal model should win.
	for step := 0; step < 6; step++ {
		v := float64(step)
		a.FillFunc(func(idx []int) float64 { return 10 + v + 0.1*float64(idx[0]) })
		det.Observe(a)
	}
	if det.order == 0 {
		t.Errorf("order stayed 0 on linearly evolving data")
	}
}

func TestDetectorNames(t *testing.T) {
	if (&RangeDetector{}).Name() != "range" ||
		(&SpatialDetector{}).Name() != "spatial" ||
		NewTemporal(1).Name() != "temporal-AID" {
		t.Error("detector names wrong")
	}
}

// evolve applies a smooth, spatially coherent update (diffusion-like).
func evolve(a *ndarray.Array, rate float64) {
	data := a.Data()
	for i := range data {
		data[i] += rate * math.Sin(float64(i)/50)
	}
}
