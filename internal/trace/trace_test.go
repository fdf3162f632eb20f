package trace

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestMintedIDsAreUniqueAndWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := New().ID()
		if len(id) != 32 || !isHex(id) {
			t.Fatalf("minted ID %q: want 32 lowercase hex chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate minted ID %q", id)
		}
		seen[id] = true
	}
}

func TestWithID(t *testing.T) {
	const id = "0123456789abcdef0123456789abcdef"
	if got := WithID(id).ID(); got != id {
		t.Fatalf("WithID(%q).ID() = %q", id, got)
	}
	if got := WithID("").ID(); len(got) != 32 {
		t.Fatalf("WithID(\"\") should mint a fresh ID, got %q", got)
	}
}

func TestParseTraceparent(t *testing.T) {
	const id = "4bf92f3577b34da6a3ce929d0e0e4736"
	valid := "00-" + id + "-00f067aa0ba902b7-01"
	cases := []struct {
		in     string
		wantID string
		wantOK bool
	}{
		{valid, id, true},
		{"cc-" + id + "-00f067aa0ba902b7-01", id, true}, // future version byte
		{"", "", false},
		{"00-" + id, "", false}, // truncated
		{"00-" + strings.Repeat("0", 32) + "-00f067aa0ba902b7-01", "", false}, // all-zero id
		{"00-" + strings.ToUpper(id) + "-00f067aa0ba902b7-01", "", false},     // uppercase hex
		{"00x" + id + "-00f067aa0ba902b7-01", "", false},                      // bad separator
		{"zz-" + id + "-00f067aa0ba902b7-01", "", false},                      // bad version hex
		{"00-" + id + "-00f067aa0bz902b7-01", "", false},                      // bad parent hex
	}
	for _, tc := range cases {
		gotID, gotOK := ParseTraceparent(tc.in)
		if gotID != tc.wantID || gotOK != tc.wantOK {
			t.Errorf("ParseTraceparent(%q) = (%q, %v), want (%q, %v)",
				tc.in, gotID, gotOK, tc.wantID, tc.wantOK)
		}
	}
}

func TestObserveRecordsSpans(t *testing.T) {
	tr := New()
	start := time.Now()
	time.Sleep(time.Millisecond)
	tr.Observe(StageQueueWait, start)
	tr.ObserveDur(StageStripeWait, start, 5*time.Millisecond)

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Stage != StageQueueWait || spans[0].Dur < time.Millisecond {
		t.Errorf("span 0 = %+v, want queue_wait >= 1ms", spans[0])
	}
	if spans[1].Stage != StageStripeWait || spans[1].Dur != 5*time.Millisecond {
		t.Errorf("span 1 = %+v, want stripe_wait of exactly 5ms", spans[1])
	}
}

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	tr.Observe(StageQueueWait, time.Now())
	tr.ObserveDur(StageTune, time.Now(), time.Millisecond)
	tr.SetTarget("a", "t", 3)
	tr.SetOutcome(true, "x")
	tr.SetReplayed()
	if tr.ID() != "" || tr.Spans() != nil || tr.Total() != 0 {
		t.Fatal("nil trace accessors must return zero values")
	}
	var s Summary
	if got := tr.Summary(); got.ID != s.ID || len(got.Spans) != 0 {
		t.Fatalf("nil Summary() = %+v", got)
	}
	NewCollector(0).Finish(tr) // must not panic
}

func TestCollectorFinishIsIdempotent(t *testing.T) {
	c := NewCollector(4)
	tr := New()
	tr.Observe(StageTune, time.Now())
	c.Finish(tr)
	c.Finish(tr) // double finish: engine + service both release ownership
	if got := c.Finished(); got != 1 {
		t.Fatalf("Finished() = %d after double Finish, want 1", got)
	}
	if got := len(c.Top()); got != 1 {
		t.Fatalf("len(Top()) = %d, want 1", got)
	}
	// Spans after finish are dropped.
	tr.Observe(StageRestore, time.Now())
	if got := len(tr.Spans()); got != 1 {
		t.Fatalf("span recorded after finish: %d spans", got)
	}
}

func TestCollectorKeepsSlowestN(t *testing.T) {
	c := NewCollector(3)
	// Traces with known totals: finish() stamps time.Since(born), so shift
	// born backwards to fake durations.
	for i, ms := range []int{10, 50, 20, 40, 30} {
		tr := New()
		tr.born = tr.born.Add(-time.Duration(ms) * time.Millisecond)
		tr.SetTarget(fmt.Sprintf("a%d", i), "", i)
		c.Finish(tr)
	}
	top := c.Top()
	if len(top) != 3 {
		t.Fatalf("len(Top()) = %d, want 3", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].TotalSeconds > top[i-1].TotalSeconds {
			t.Fatalf("Top() not sorted slowest-first: %v", top)
		}
	}
	// Slowest three of {10,50,20,40,30} are 50,40,30ms.
	if top[0].TotalSeconds < 0.045 || top[2].TotalSeconds > 0.035 {
		t.Fatalf("ring kept wrong traces: %v, %v, %v",
			top[0].TotalSeconds, top[1].TotalSeconds, top[2].TotalSeconds)
	}
	if got := c.Finished(); got != 5 {
		t.Fatalf("Finished() = %d, want 5", got)
	}
}

func TestWriteMetricsExportsHistograms(t *testing.T) {
	c := NewCollector(0)
	tr := New()
	tr.ObserveDur(StagePredictPrimary, time.Now(), 3*time.Microsecond)
	tr.ObserveDur(StageVerifyPrimary, time.Now(), 30*time.Microsecond)
	c.Finish(tr)

	var sb strings.Builder
	if err := c.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE spatialdue_stage_duration_seconds histogram",
		`spatialdue_stage_duration_seconds_bucket{stage="predict/primary",le="5e-06"} 1`,
		`spatialdue_stage_duration_seconds_bucket{stage="predict/primary",le="+Inf"} 1`,
		`spatialdue_stage_duration_seconds_count{stage="verify/primary"} 1`,
		"# TYPE spatialdue_recovery_duration_seconds histogram",
		`spatialdue_recovery_duration_seconds_count 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	// Cumulative buckets: a 3µs observation must appear in every bucket at
	// or above 5µs.
	if !strings.Contains(out, `spatialdue_stage_duration_seconds_bucket{stage="predict/primary",le="10"} 1`) {
		t.Error("3µs observation missing from the top cumulative bucket")
	}
	if strings.Contains(out, `spatialdue_stage_duration_seconds_bucket{stage="predict/primary",le="1e-06"} 1`) {
		t.Error("3µs observation counted in the 1µs bucket")
	}
}

// BenchmarkTraceSpan measures the per-span recording cost — the tracing
// tax each instrumented pipeline stage pays.
func BenchmarkTraceSpan(b *testing.B) {
	tr := New()
	start := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Observe(StagePredictPrimary, start)
		if i%1024 == 0 {
			// Reset so the span slice doesn't grow unboundedly.
			tr = New()
		}
	}
}

// BenchmarkCollectorFinish measures trace finalization (histogram fold +
// slowest-N ring offer).
func BenchmarkCollectorFinish(b *testing.B) {
	c := NewCollector(0)
	start := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := New()
		tr.Observe(StageStripeWait, start)
		tr.Observe(StagePredictPrimary, start)
		tr.Observe(StageVerifyPrimary, start)
		c.Finish(tr)
	}
}
