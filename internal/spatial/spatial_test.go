package spatial

import (
	"math"
	"reflect"
	"testing"

	"spatialdue/internal/predict"
)

// feedHotBand deposits a deterministic outcome sequence with error mass
// concentrated in stripes 3 and 4 of 8: the canonical clustered field.
func feedHotBand(a *Analytics) {
	// Background: every stripe sees a couple of clean first-rung
	// recoveries with tiny residuals.
	for s := 0; s < 8; s++ {
		a.Accumulate(s, 0.001, 0, 0, predict.MethodAverage, true)
		a.Accumulate(s, 0.002, 0, 0, predict.MethodAverage, true)
	}
	// Hot band: stripes 3-4 take repeated verify failures, deep ladder
	// climbs, and large residuals; Lorenzo wins there.
	for i := 0; i < 6; i++ {
		a.Accumulate(3, 0.4, 2, 3, predict.MethodLorenzo1, true)
		a.Accumulate(4, 0.5, 1, 2, predict.MethodLorenzo1, true)
	}
	a.Accumulate(3, math.NaN(), 3, 5, predict.MethodZero, false) // lost recovery
}

// TestReportHotBandPinned pins the exact statistic values for the hot-band
// fixture. These are bit-for-bit expectations: the accumulators are plain
// sums and the statistics pure functions of them, so a snapshot+journal
// replay that re-runs the same recoveries must land on these identical
// floats. If this test ever needs a tolerance, determinism broke.
func TestReportHotBandPinned(t *testing.T) {
	a := New(8, 0)
	feedHotBand(a)
	rep := a.Report()

	if !rep.Defined {
		t.Fatalf("statistics undefined on clustered fixture")
	}
	if rep.Stripes != 8 || rep.Recoveries != 29 {
		t.Fatalf("stripes=%d recoveries=%d, want 8/29", rep.Stripes, rep.Recoveries)
	}
	// Clustered field: positive Moran, Geary below its expectation of 1.
	if rep.MoranI <= 0 {
		t.Errorf("Moran's I = %v, want > 0 for clustered field", rep.MoranI)
	}
	if rep.GearyC >= 1 {
		t.Errorf("Geary's C = %v, want < 1 for clustered field", rep.GearyC)
	}
	// Pinned bit-exact values (computed once from the formulae; stable by
	// construction — fixed iteration order, no clocks, no maps).
	pinF(t, "MoranI", rep.MoranI, 0.2574228524273842)
	pinF(t, "GearyC", rep.GearyC, 0.7365842148695146)
	pinF(t, "GStar[3]", rep.Local[3].GStar, 1.887486952875595)
	pinF(t, "GStar[4]", rep.Local[4].GStar, 1.887486952875595)
	pinF(t, "GStar[0]", rep.Local[0].GStar, -0.8441098266547548)

	if got := rep.HotStripes; !reflect.DeepEqual(got, []int{3, 4}) {
		t.Errorf("hot stripes = %v, want [3 4]", got)
	}
	for _, s := range []int{3, 4} {
		if rep.Local[s].Heat != "hot" {
			t.Errorf("stripe %d heat = %q, want hot", s, rep.Local[s].Heat)
		}
		if h := a.Heat(s); h != HeatHot {
			t.Errorf("Heat(%d) = %v, want hot", s, h)
		}
	}
	if rep.Local[0].Heat != "neutral" {
		t.Errorf("stripe 0 heat = %q, want neutral", rep.Local[0].Heat)
	}
	if rep.Local[3].BestMethod != predict.MethodLorenzo1.String() {
		t.Errorf("stripe 3 best method = %q, want %q",
			rep.Local[3].BestMethod, predict.MethodLorenzo1)
	}
	if m, ok := a.BestMethod(3); !ok || m != predict.MethodLorenzo1 {
		t.Errorf("BestMethod(3) = %v,%v, want Lorenzo1,true", m, ok)
	}
	if rep.Local[3].VerifyFails != 15 { // 6*2 + 3 from the lost recovery
		t.Errorf("stripe 3 verify fails = %d, want 15", rep.Local[3].VerifyFails)
	}
}

func pinF(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s = %v (bits %#x), pinned %v (bits %#x)",
			name, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestReportReplayBitStable replays the fixture into a second Analytics and
// requires the full reports to be deeply identical — the restart-replay
// determinism contract.
func TestReportReplayBitStable(t *testing.T) {
	a, b := New(8, 0), New(8, 0)
	feedHotBand(a)
	feedHotBand(b)
	if ra, rb := a.Report(), b.Report(); !reflect.DeepEqual(ra, rb) {
		t.Fatalf("replayed report differs:\n  a=%+v\n  b=%+v", ra, rb)
	}
}

// TestReportUniformUndefined: identical intensities everywhere leave the
// statistics undefined (zero variance) — everything neutral, Geary at its
// no-structure expectation.
func TestReportUniformUndefined(t *testing.T) {
	a := New(6, 0)
	for s := 0; s < 6; s++ {
		a.Accumulate(s, 0.25, 1, 1, predict.MethodAverage, true)
	}
	rep := a.Report()
	if rep.Defined {
		t.Fatalf("uniform field reported Defined")
	}
	if rep.MoranI != 0 || rep.GearyC != 1 {
		t.Errorf("MoranI=%v GearyC=%v, want 0 and 1", rep.MoranI, rep.GearyC)
	}
	if len(rep.HotStripes) != 0 {
		t.Errorf("uniform field has hot stripes %v", rep.HotStripes)
	}
	if h := a.Heat(2); h != HeatNeutral {
		t.Errorf("Heat on uniform field = %v, want neutral", h)
	}
}

// TestReportAlternatingDispersed: a perfectly alternating field is the
// anti-clustered extreme — Moran negative, Geary above 1.
func TestReportAlternatingDispersed(t *testing.T) {
	a := New(8, 0)
	for s := 0; s < 8; s++ {
		if s%2 == 0 {
			a.Accumulate(s, 0.8, 2, 3, predict.MethodLinear, true)
		} else {
			a.Accumulate(s, 0.001, 0, 0, predict.MethodAverage, true)
		}
	}
	rep := a.Report()
	if !rep.Defined {
		t.Fatalf("statistics undefined")
	}
	if rep.MoranI >= 0 {
		t.Errorf("Moran's I = %v, want < 0 for alternating field", rep.MoranI)
	}
	if rep.GearyC <= 1 {
		t.Errorf("Geary's C = %v, want > 1 for alternating field", rep.GearyC)
	}
}

// TestGStarMatchesReport: the cache-policy fast path (gStar/Heat) must agree
// with the full report's per-stripe values.
func TestGStarMatchesReport(t *testing.T) {
	a := New(8, 0)
	feedHotBand(a)
	rep := a.Report()
	for s := 0; s < 8; s++ {
		z, ok := a.gStar(s)
		if !ok {
			t.Fatalf("GStar(%d) undefined", s)
		}
		// Same sums, but accumulated in a different association order —
		// allow half-ulp-scale drift, nothing more.
		if math.Abs(z-rep.Local[s].GStar) > 1e-12 {
			t.Errorf("GStar(%d) = %v, report says %v", s, z, rep.Local[s].GStar)
		}
	}
}

// TestAccumulateEdgeCases: out-of-range stripes clamp, nil receiver is a
// no-op, failures never pollute residual/method stats.
func TestAccumulateEdgeCases(t *testing.T) {
	var nilA *Analytics
	nilA.Accumulate(0, 0.1, 0, 0, predict.MethodZero, true) // must not panic

	a := New(4, 0)
	a.Accumulate(-5, 0.1, 0, 1, predict.MethodZero, true) // clamps to 0
	a.Accumulate(99, 0.1, 0, 1, predict.MethodZero, true) // clamps to 3
	a.Accumulate(1, 0.7, 2, 4, predict.MethodLinear, false)
	rep := a.Report()
	if rep.Local[0].Recoveries != 1 || rep.Local[3].Recoveries != 1 {
		t.Errorf("clamped stripes: %+v", rep.Local)
	}
	st := rep.Local[1]
	if st.Recoveries != 1 || st.Successes != 0 || st.MeanResidual != 0 {
		t.Errorf("failed recovery polluted stats: %+v", st)
	}
	if st.BestMethod != "" {
		t.Errorf("failed recovery recorded a best method %q", st.BestMethod)
	}
	if st.VerifyFails != 2 || st.EscalationSum != 4 {
		t.Errorf("failure counts not recorded: %+v", st)
	}
}

// TestAccumulateAllocFree: the accumulate path rides every recovery, so it
// must not allocate (the same bar the PR 4 kernels meet).
func TestAccumulateAllocFree(t *testing.T) {
	a := New(16, 0)
	n := testing.AllocsPerRun(1000, func() {
		a.Accumulate(7, 0.05, 1, 2, predict.MethodLorenzo1, true)
	})
	if n != 0 {
		t.Fatalf("Accumulate allocates %v per call, want 0", n)
	}
}

func BenchmarkSpatialAccumulate(b *testing.B) {
	a := New(64, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Accumulate(i&63, 0.05, 1, 2, predict.MethodLorenzo1, true)
	}
}
