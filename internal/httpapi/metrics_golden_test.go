package httpapi_test

import (
	"context"
	"io"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"spatialdue/internal/core"
	"spatialdue/internal/golden"
	"spatialdue/internal/httpapi"
	"spatialdue/internal/httpapi/client"
	"spatialdue/internal/metrics"
	"spatialdue/internal/registry"
	"spatialdue/internal/service"
)

// metricsGoldenPath holds the full /metrics page of metricsScenario, with
// wall-clock values masked. It is the catalogue of families: a family added,
// renamed or reformatted shows up as a diff here.
const metricsGoldenPath = "testdata/metrics_golden.txt"

// stubCluster is a fixed cluster view: every tenant is served here, the
// partner is down two records behind, and one dead owner's shard is
// promoted.
type stubCluster struct{}

func (stubCluster) Route(string) (string, bool) { return "", true }
func (stubCluster) Status() httpapi.ClusterStatus {
	return httpapi.ClusterStatus{Node: "a", Partner: "b", Degraded: true, PartnerDown: true,
		PromotedFor: []string{"c"}, ReplicationLag: 2}
}
func (stubCluster) AllocRegistered(*registry.Allocation) {}
func (stubCluster) AllocUnregistered(string, string)     {}
func (stubCluster) FieldUploaded(*registry.Allocation)   {}

// metricsScenario drives one deterministic loopback run and returns the
// server (still running until the test ends) and its /metrics page. One
// worker takes every event, and each event's outcome is awaited before the
// next is sent, so every counter is a function of the scenario alone:
//   - "field" (RECOVER_ANY in range) recovers four bit flips;
//   - "stuck" has a range no prediction can meet, so two failures trip its
//     breaker (threshold 2, cooldown far beyond the test);
//   - one event for an unregistered address is rejected;
//   - six corrected errors feed the predictor;
//   - the journal is on, so its stages appear in the stage histogram.
func metricsScenario(t *testing.T) (*httpapi.Server, string) {
	t.Helper()
	const rows, cols = 16, 16
	eng := core.NewEngine(core.Options{Seed: 21})
	srv, base, shutdown := startServer(t, eng, httpapi.ServerConfig{
		EnableInject:   true,
		RedeliverEvery: -1,
		Cluster:        stubCluster{},
		Predictor:      true,
		Service: service.Config{
			Workers: 1, QueueDepth: 8, Seed: 1,
			BreakerThreshold: 2, BreakerCooldown: time.Hour,
			JournalPath: filepath.Join(t.TempDir(), "journal"),
		},
	})
	t.Cleanup(func() {
		if err := shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})

	ctx := context.Background()
	c := client.New(client.Config{BaseURL: base, Tenant: "golden"})
	for _, reg := range []httpapi.RegisterRequest{
		{Name: "field", Dims: []int{rows, cols}, DType: "float32",
			Policy: httpapi.PolicyInfo{Any: true, Range: &httpapi.RangeInfo{Lo: 50, Hi: 150}}},
		{Name: "stuck", Dims: []int{rows, cols}, DType: "float32",
			Policy: httpapi.PolicyInfo{Method: "Average", Range: &httpapi.RangeInfo{Lo: 1000, Hi: 2000}}},
	} {
		if _, err := c.Register(ctx, reg); err != nil {
			t.Fatalf("register %s: %v", reg.Name, err)
		}
		if err := c.Upload(ctx, reg.Name, smoothField(rows, cols)); err != nil {
			t.Fatalf("upload %s: %v", reg.Name, err)
		}
	}

	var cursor uint64
	due := func(alloc string, off int) uint64 {
		bit := 30
		inj, err := c.Inject(ctx, alloc, httpapi.InjectRequest{Offset: &off, Bit: &bit})
		if err != nil {
			t.Fatalf("inject %s[%d]: %v", alloc, off, err)
		}
		if res, err := c.Ingest(ctx, httpapi.EventRequest{Addr: inj.Addr, Bit: inj.Bit}); err != nil || res.Status != httpapi.StatusAccepted {
			t.Fatalf("ingest %s[%d]: %+v, %v", alloc, off, res, err)
		}
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
			page, err := c.Outcomes(ctx, cursor, alloc, 0)
			if err != nil {
				t.Fatalf("outcomes: %v", err)
			}
			cursor = page.Next
			for _, rec := range page.Outcomes {
				if rec.Offset == off {
					return inj.Addr
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("no outcome for %s[%d]", alloc, off)
		return 0
	}
	var addr uint64
	for _, off := range []int{17, 90, 133, 230} {
		addr = due("field", off)
	}
	due("stuck", 40)
	due("stuck", 200)
	if _, err := c.Ingest(ctx, httpapi.EventRequest{Addr: 0xdeadbeef}); err == nil {
		t.Fatal("ingest of an unregistered address succeeded")
	}
	for i, bit := range []int{1, 5, 9, 1, 5, 9} {
		if _, err := c.RaiseCE(ctx, addr+uint64(8*i), bit); err != nil {
			t.Fatalf("raise CE %d: %v", i, err)
		}
	}

	page, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	return srv, page
}

// wallClock reports whether a series' value is elapsed time, which no run
// reproduces: the duration histograms' buckets and sums, and stripe wait.
func wallClock(series string) bool {
	for _, p := range []string{
		"spatialdue_stripe_wait_seconds",
		"spatialdue_stage_duration_seconds_bucket", "spatialdue_stage_duration_seconds_sum",
		"spatialdue_recovery_duration_seconds_bucket", "spatialdue_recovery_duration_seconds_sum",
	} {
		if strings.HasPrefix(series, p+" ") || strings.HasPrefix(series, p+"{") {
			return true
		}
	}
	return false
}

// maskWallClock replaces every wall-clock sample value with "<wall>".
func maskWallClock(page string) string {
	lines := strings.Split(page, "\n")
	for i, ln := range lines {
		if wallClock(ln) {
			lines[i] = ln[:strings.LastIndexByte(ln, ' ')] + " <wall>"
		}
	}
	return strings.Join(lines, "\n")
}

// TestMetricsGolden pins the whole /metrics page of one deterministic
// scenario: every family, its HELP and TYPE lines, label sets, bucket
// bounds and every value that is not wall-clock time.
func TestMetricsGolden(t *testing.T) {
	_, page := metricsScenario(t)
	golden.Compare(t, metricsGoldenPath, []byte(maskWallClock(page)))
}

// TestMetricsCatalogue checks the golden scenario's page against the
// format's rules: each family has one HELP line, then one TYPE line, before
// its samples; families are contiguous and unique; every sample parses. It
// also pins the series bench/http.go reads off /metrics.
func TestMetricsCatalogue(t *testing.T) {
	_, page := metricsScenario(t)
	samples, err := metrics.Parse(strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var family, typ string
	sampleLines := 0
	lines := strings.Split(strings.TrimSuffix(page, "\n"), "\n")
	for i := 0; i < len(lines); i++ {
		if help, ok := strings.CutPrefix(lines[i], "# HELP "); ok {
			family, _, _ = strings.Cut(help, " ")
			if seen[family] {
				t.Errorf("line %d: family %s appears twice", i+1, family)
			}
			seen[family] = true
			if i++; i == len(lines) || !strings.HasPrefix(lines[i], "# TYPE "+family+" ") {
				t.Fatalf("line %d: HELP for %s is not followed by its TYPE", i, family)
			}
			typ = strings.TrimPrefix(lines[i], "# TYPE "+family+" ")
			if typ != "counter" && typ != "gauge" && typ != "histogram" {
				t.Errorf("line %d: family %s has TYPE %q", i+1, family, typ)
			}
			continue
		}
		if strings.HasPrefix(lines[i], "#") {
			t.Errorf("line %d: stray comment %q", i+1, lines[i])
			continue
		}
		sampleLines++
		name := lines[i][:strings.IndexAny(lines[i], "{ ")]
		want := []string{family}
		if typ == "histogram" {
			want = []string{family + "_bucket", family + "_sum", family + "_count"}
		}
		if !slices.Contains(want, name) {
			t.Errorf("line %d: sample of %s inside family %q", i+1, name, family)
		}
	}
	if sampleLines != len(samples) {
		t.Errorf("%d sample lines, %d distinct series", sampleLines, len(samples))
	}
	for _, key := range []string{
		"spatialdue_http_events_accepted_total",
		"spatialdue_http_events_latched_total",
		"spatialdue_mca_bank_overflows_total",
		`spatialdue_stage_duration_seconds_sum{stage="queue_wait"}`,
		`spatialdue_stage_duration_seconds_count{stage="queue_wait"}`,
	} {
		if _, ok := samples[key]; !ok {
			t.Errorf("page has no series %s", key)
		}
	}
}

// failNth fails its nth write (counting from 0) and accepts every other:
// a writer that drops an error and writes on cannot hide it behind a later
// failure.
type failNth struct{ n, calls int }

func (f *failNth) Write(p []byte) (int, error) {
	f.calls++
	if f.calls == f.n+1 {
		return 0, io.ErrShortWrite
	}
	return len(p), nil
}

// TestMetricsWriteErrors fails one write of each layer's WriteMetrics on the
// golden scenario's state, for every write it makes: each must report the
// failure. Every byte of the page belongs to exactly one write, so this is
// the same as cutting the sink off at every byte.
func TestMetricsWriteErrors(t *testing.T) {
	srv, _ := metricsScenario(t)
	for _, w := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"httpapi", srv.WriteMetrics},
		{"core", srv.Engine().WriteMetrics},
		{"service", srv.Service().WriteMetrics},
		{"predictor", srv.Health().WriteMetrics},
		{"trace", srv.Engine().Tracer().WriteMetrics},
	} {
		all := &failNth{n: -1}
		if err := w.write(all); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for n := 0; n < all.calls; n++ {
			if err := w.write(&failNth{n: n}); err == nil {
				t.Fatalf("%s: WriteMetrics returned nil with write %d of %d failed", w.name, n, all.calls)
			}
		}
	}
}
