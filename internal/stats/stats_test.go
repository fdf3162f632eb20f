package stats

import (
	"math"
	"testing"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{1, 2, 3, 4} {
		s.Add(x)
	}
	if s.N() != 4 || s.Mean() != 2.5 || s.min != 1 || s.max != 4 {
		t.Errorf("Summary = %v", s.String())
	}
	if math.Abs(s.Var()-1.25) > 1e-12 {
		t.Errorf("Var = %v, want 1.25", s.Var())
	}
	if math.Abs(s.Std()-math.Sqrt(1.25)) > 1e-12 {
		t.Errorf("Std = %v", s.Std())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.Mean() != 0 || s.Var() != 0 {
		t.Error("empty summary not zero")
	}
}

func TestSummarySingle(t *testing.T) {
	var s Summary
	s.Add(7)
	if s.min != 7 || s.max != 7 || s.Mean() != 7 || s.Std() != 0 {
		t.Error("single-observation summary wrong")
	}
}

func TestSummaryNegativeValues(t *testing.T) {
	var s Summary
	s.Add(-5)
	s.Add(5)
	if s.Mean() != 0 || s.min != -5 || s.max != 5 {
		t.Error("negative handling wrong")
	}
}

func TestSummaryPanicsOnNaN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NaN Add did not panic")
		}
	}()
	var s Summary
	s.Add(math.NaN())
}

func TestSummaryWelfordStability(t *testing.T) {
	// Large offset: naive sum-of-squares would lose precision.
	var s Summary
	for i := 0; i < 1000; i++ {
		s.Add(1e9 + float64(i%2))
	}
	if math.Abs(s.Var()-0.25) > 1e-6 {
		t.Errorf("Var = %v, want 0.25", s.Var())
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Input must not be reordered.
	if xs[0] != 4 {
		t.Error("Quantile mutated its input")
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty Quantile should be NaN")
	}
	if Quantile([]float64{7}, 0.5) != 7 {
		t.Error("single-element Quantile wrong")
	}
}

func TestLogHistogram(t *testing.T) {
	h := NewLogHistogram(1e-4, 1, 4) // edges 1e-4, 1e-3, 1e-2, 1e-1, 1
	h.Add(5e-4)
	h.Add(5e-3)
	h.Add(5e-2)
	h.Add(0.5)
	if h.Counts[0] != 1 || h.Counts[1] != 1 || h.Counts[2] != 1 || h.Counts[3] != 1 {
		t.Errorf("Counts = %v", h.Counts)
	}
	h.Add(1e-9)
	h.Add(10)
	if h.Under != 1 || h.Over != 1 {
		t.Errorf("Under/Over = %d/%d", h.Under, h.Over)
	}
	if h.Total() != 4 {
		t.Errorf("Total = %d", h.Total())
	}
}

func TestLogHistogramEdgeValues(t *testing.T) {
	h := NewLogHistogram(1, 100, 2) // edges 1, 10, 100
	h.Add(1)                        // exactly lo -> first bin
	h.Add(10)                       // exactly an interior edge -> second bin
	h.Add(100)                      // exactly hi -> Over
	if h.Counts[0] != 1 || h.Counts[1] != 1 || h.Over != 1 {
		t.Errorf("edge handling: Counts=%v Over=%d", h.Counts, h.Over)
	}
}

func TestLogHistogramPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewLogHistogram(0, 1, 4) },
		func() { NewLogHistogram(1, 1, 4) },
		func() { NewLogHistogram(1, 10, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad histogram bounds did not panic")
				}
			}()
			f()
		}()
	}
}

func TestWilsonInterval(t *testing.T) {
	lo, hi := WilsonInterval(50, 100)
	if lo >= 0.5 || hi <= 0.5 {
		t.Errorf("interval (%v, %v) does not contain 0.5", lo, hi)
	}
	if hi-lo > 0.25 {
		t.Errorf("interval too wide: %v", hi-lo)
	}
	// More trials -> narrower interval.
	lo2, hi2 := WilsonInterval(500, 1000)
	if hi2-lo2 >= hi-lo {
		t.Error("interval did not narrow with more trials")
	}
	// Extremes stay in [0, 1].
	lo, hi = WilsonInterval(0, 10)
	if lo != 0 || hi <= 0 {
		t.Errorf("k=0 interval (%v, %v)", lo, hi)
	}
	lo, hi = WilsonInterval(10, 10)
	if hi != 1 || lo >= 1 {
		t.Errorf("k=n interval (%v, %v)", lo, hi)
	}
	lo, hi = WilsonInterval(0, 0)
	if lo != 0 || hi != 1 {
		t.Errorf("empty interval (%v, %v)", lo, hi)
	}
}
