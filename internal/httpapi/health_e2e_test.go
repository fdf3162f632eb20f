package httpapi_test

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"spatialdue/internal/core"
	"spatialdue/internal/httpapi"
	"spatialdue/internal/httpapi/client"
)

// TestPredictiveHealthOverHTTP drives the full predictive-health loop over
// the wire: a CE storm ingested through POST /v1/events walks a bank to
// critical, GET /v1/health reports the tier walk and the proactive row
// migration, and a subsequent DUE on the offlined row is served bit-exactly
// from the migration shadow (outcome stage "offlined") instead of running
// the prediction ladder.
func TestPredictiveHealthOverHTTP(t *testing.T) {
	const rows, cols = 64, 64
	vals := smoothField(rows, cols)

	eng := core.NewEngine(core.Options{Seed: 7})
	_, base, shutdown := startServer(t, eng, httpapi.ServerConfig{
		Predictor: true,
	})
	defer func() {
		if err := shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	ctx := context.Background()
	cl := client.New(client.Config{BaseURL: base})
	info, err := cl.Register(ctx, httpapi.RegisterRequest{
		Name: "grid", Dims: []int{rows, cols}, DType: "float64",
		Policy: httpapi.PolicyInfo{Any: true},
	})
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	if err := cl.Upload(ctx, "grid", vals); err != nil {
		t.Fatalf("upload: %v", err)
	}

	// A healthy server still serves the report (empty, enabled, topology).
	rep, err := cl.Health(ctx)
	if err != nil {
		t.Fatalf("health: %v", err)
	}
	if !rep.Enabled || rep.Topology == nil {
		t.Fatalf("health before traffic = %+v, want enabled with topology", rep)
	}
	rowBytes := uint64(rep.Topology.RowBytes)

	// One full DRAM row inside the allocation: the row containing the
	// element 1 KiB past the base is always covered (the span ends at most
	// RowBytes past that element, well inside the 32 KiB field).
	addr := info.Base + 8192
	lo := addr / rowBytes * rowBytes
	firstOff := int(lo-info.Base) / 8

	// The CE storm: clustered on one row, six distinct bit positions.
	for i := 0; i < 40; i++ {
		bit := []int{1, 5, 9, 17, 23, 42}[i%6]
		res, err := cl.RaiseCE(ctx, lo+uint64((i%16)*8), bit)
		if err != nil {
			t.Fatalf("raise CE %d: %v", i, err)
		}
		if res.Status != httpapi.StatusAccepted {
			t.Fatalf("CE %d status = %q, want accepted", i, res.Status)
		}
	}

	rep, err = cl.Health(ctx)
	if err != nil {
		t.Fatalf("health after storm: %v", err)
	}
	if rep.Observations != 40 {
		t.Errorf("observations = %d, want 40", rep.Observations)
	}
	var storm *httpapi.HealthBank
	for i := range rep.Banks {
		if rep.Banks[i].Tier == "critical" {
			storm = &rep.Banks[i]
		}
	}
	if storm == nil {
		t.Fatalf("no bank reached critical: %+v", rep.Banks)
	}
	if storm.DistinctBits != 6 {
		t.Errorf("distinct bits = %d, want 6", storm.DistinctBits)
	}
	if len(rep.OfflinedRows) == 0 {
		t.Fatal("no proactive row migration reported")
	}
	offl := rep.OfflinedRows[0]
	if offl.Elements != 128 {
		t.Errorf("migrated %d elements, want 128", offl.Elements)
	}
	if len(offl.Allocs) != 1 || offl.Allocs[0] != "grid" {
		t.Errorf("offlined row allocs = %v, want [grid]", offl.Allocs)
	}
	if rep.Actions["scrub"] == 0 || rep.Actions["ckpt_shrink"] == 0 || rep.Actions["page_offlined"] == 0 {
		t.Errorf("action counts missing tiers: %v", rep.Actions)
	}
	if rep.CheckpointIntervalSeconds <= 0 || rep.CheckpointIntervalSeconds >= math.Sqrt(2*60*86400) {
		t.Errorf("checkpoint interval %v not shrunk below baseline", rep.CheckpointIntervalSeconds)
	}

	// A DUE lands on the offlined row: the recovery must be served from the
	// migration shadow, bit-exactly, at stage "offlined".
	res, err := cl.Ingest(ctx, httpapi.EventRequest{Addr: lo + 8})
	if err != nil {
		t.Fatalf("ingest DUE: %v", err)
	}
	if res.Status != httpapi.StatusAccepted {
		t.Fatalf("DUE status = %q, want accepted", res.Status)
	}
	deadline := time.Now().Add(5 * time.Second)
	var restored *httpapi.OutcomeRecord
	for restored == nil {
		page, err := cl.Outcomes(ctx, 0, "", 0)
		if err != nil {
			t.Fatalf("outcomes: %v", err)
		}
		for i := range page.Outcomes {
			if page.Outcomes[i].Stage == "offlined" {
				restored = &page.Outcomes[i]
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no offlined-stage outcome appeared: %+v", page.Outcomes)
		}
		if restored == nil {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if !restored.OK || restored.Alloc != "grid" {
		t.Fatalf("shadow-restore outcome = %+v", restored)
	}
	dueOff := firstOff + 1
	if restored.Offset != dueOff {
		t.Errorf("restored offset = %d, want %d", restored.Offset, dueOff)
	}
	if math.Float64bits(restored.New) != math.Float64bits(vals[dueOff]) {
		t.Errorf("restored value %v not bit-exact to original %v", restored.New, vals[dueOff])
	}
	el, err := cl.Element(ctx, "grid", dueOff)
	if err != nil {
		t.Fatalf("element: %v", err)
	}
	if el.Quarantined || el.ValueBits != math.Float64bits(vals[dueOff]) {
		t.Errorf("element after restore = %+v, want unquarantined original bits", el)
	}

	// The proactive migration itself is visible in the outcome feed.
	page, err := cl.Outcomes(ctx, 0, "", 0)
	if err != nil {
		t.Fatalf("outcomes: %v", err)
	}
	sawMigration := false
	for _, o := range page.Outcomes {
		if o.Stage == "page_offlined" && o.Alloc == "grid" {
			sawMigration = true
		}
	}
	if !sawMigration {
		t.Error("no page_offlined record in the outcome feed")
	}

	// Metrics expose the tier.
	raw, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, want := range []string{
		"spatialdue_predictor_risk{bank=",
		`spatialdue_predictor_actions_total{action="page_offlined"}`,
		"spatialdue_service_shadow_restored_total 1",
	} {
		if !strings.Contains(raw, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestHealthDisabledReportsDisabled: without the predictor the endpoint
// stays mounted and answers {"enabled": false}.
func TestHealthDisabledReportsDisabled(t *testing.T) {
	eng := core.NewEngine(core.Options{Seed: 1})
	_, base, shutdown := startServer(t, eng, httpapi.ServerConfig{})
	defer func() {
		if err := shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	rep, err := client.New(client.Config{BaseURL: base}).Health(context.Background())
	if err != nil {
		t.Fatalf("health: %v", err)
	}
	if rep.Enabled || len(rep.Banks) != 0 {
		t.Errorf("disabled health = %+v, want enabled=false", rep)
	}
}
