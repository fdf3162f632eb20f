package spatialdue_test

import (
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"spatialdue"
	"spatialdue/internal/bitflip"
	"spatialdue/internal/metrics"
	"spatialdue/internal/sdrbench"
)

func smoothGrid(t *testing.T, ny, nx int) *spatialdue.Array {
	t.Helper()
	a, err := spatialdue.NewArray(ny, nx)
	if err != nil {
		t.Fatal(err)
	}
	a.FillFunc(func(idx []int) float64 {
		return 25 + 10*math.Sin(float64(idx[0])/6)*math.Cos(float64(idx[1])/5)
	})
	return a
}

func TestQuickstartFlow(t *testing.T) {
	grid := smoothGrid(t, 64, 64)
	eng := spatialdue.NewEngine(spatialdue.Options{Seed: 7})
	alloc := eng.Protect("temperature", grid, spatialdue.Float32,
		spatialdue.RecoverWith(spatialdue.MethodLorenzo1))

	off := grid.Offset(30, 31)
	orig := grid.AtOffset(off)
	grid.SetOffset(off, -orig)

	out, err := eng.RecoverAddress(alloc.AddrOf(off))
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(out.New-orig) / math.Abs(orig); rel > 0.01 {
		t.Errorf("recovery relative error %v > 1%%", rel)
	}
	if grid.AtOffset(off) != out.New {
		t.Error("recovery not written in place")
	}
}

func TestRecoverAnyPolicy(t *testing.T) {
	grid := smoothGrid(t, 48, 48)
	eng := spatialdue.NewEngine(spatialdue.Options{Seed: 8})
	alloc := eng.Protect("g", grid, spatialdue.Float32, spatialdue.RecoverAny())
	off := grid.Offset(20, 20)
	orig := grid.AtOffset(off)
	grid.SetOffset(off, math.Inf(1))
	out, err := eng.RecoverAddress(alloc.AddrOf(off))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Tuned {
		t.Error("RECOVER_ANY not tuned")
	}
	if rel := math.Abs(out.New-orig) / math.Abs(orig); rel > 0.05 {
		t.Errorf("tuned recovery error %v", rel)
	}
}

func TestUnregisteredAddressFallsBack(t *testing.T) {
	eng := spatialdue.NewEngine(spatialdue.Options{})
	if _, err := eng.RecoverAddress(0x1234); !errors.Is(err, spatialdue.ErrCheckpointRestartRequired) {
		t.Errorf("error = %v", err)
	}
}

func TestPredictConvenience(t *testing.T) {
	grid := smoothGrid(t, 32, 32)
	want := grid.At(16, 16)
	got, err := spatialdue.Predict(grid, spatialdue.MethodAverage, 1, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want)/math.Abs(want) > 0.05 {
		t.Errorf("Predict = %v, want ~%v", got, want)
	}
}

func TestAutotuneConvenience(t *testing.T) {
	grid := smoothGrid(t, 32, 32)
	m, err := spatialdue.Autotune(grid, 1, 3, 0.01, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, hm := range spatialdue.Methods() {
		if hm == m {
			found = true
		}
	}
	if !found {
		t.Errorf("Autotune returned non-headline method %v", m)
	}
}

func TestMethodsAndParse(t *testing.T) {
	ms := spatialdue.Methods()
	if len(ms) != 10 {
		t.Fatalf("Methods() has %d entries", len(ms))
	}
	m, err := spatialdue.ParseMethod("Lorenzo 1-Layer")
	if err != nil || m != spatialdue.MethodLorenzo1 {
		t.Errorf("ParseMethod = %v, %v", m, err)
	}
}

func TestMCAIntegration(t *testing.T) {
	grid := smoothGrid(t, 32, 32)
	eng := spatialdue.NewEngine(spatialdue.Options{Seed: 3})
	alloc := eng.Protect("g", grid, spatialdue.Float32, spatialdue.RecoverAny())
	machine := spatialdue.NewMCA(4)
	eng.AttachMCA(machine)

	off := grid.Offset(10, 10)
	orig := grid.AtOffset(off)
	grid.SetOffset(off, bitflip.Flip(orig, bitflip.Float32, 29))
	machine.Plant(alloc.AddrOf(off), 29)
	if found, err := machine.Scrub(0, ^uint64(0)); found != 1 || err != nil {
		t.Fatalf("Scrub = %d, %v", found, err)
	}
	if math.Abs(grid.AtOffset(off)-orig)/math.Abs(orig) > 0.05 {
		t.Errorf("post-scrub value %v, true %v", grid.AtOffset(off), orig)
	}
}

func TestDetectorsExposed(t *testing.T) {
	grid := smoothGrid(t, 32, 32)
	sd := spatialdue.NewSpatialDetector(10)
	if got := sd.Scan(grid); len(got) != 0 {
		t.Errorf("clean scan flagged %d", len(got))
	}
	grid.SetOffset(100, 1e12)
	if got := sd.Scan(grid); len(got) != 1 || got[0] != 100 {
		t.Errorf("scan = %v", got)
	}

	td := spatialdue.NewTemporalDetector(5)
	td.Observe(grid)
}

func TestCheckpointWorldExposed(t *testing.T) {
	w, err := spatialdue.NewCheckpointWorld(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	g0, g1 := smoothGrid(t, 16, 16), smoothGrid(t, 16, 16)
	if err := w.Rank(0).Protect(0, "g", g0, spatialdue.Float32, spatialdue.CheckpointRecoverAny()); err != nil {
		t.Fatal(err)
	}
	if err := w.Rank(1).Protect(0, "g", g1, spatialdue.Float32,
		spatialdue.CheckpointRecoverWith(spatialdue.MethodLorenzo1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Checkpoint(1, spatialdue.CheckpointL2); err != nil {
		t.Fatal(err)
	}
	want := g1.At(8, 8)
	g1.Fill(0)
	lvl, err := w.Restart()
	if err != nil {
		t.Fatal(err)
	}
	if lvl != spatialdue.CheckpointL1 {
		t.Errorf("restart level = %v", lvl)
	}
	if g1.At(8, 8) != want {
		t.Error("restart did not restore the grid")
	}
	// Full pipeline: corrupt, detect, forward-recover through SDCCheck.
	eng := spatialdue.NewEngine(spatialdue.Options{Seed: 1})
	off := g0.Offset(8, 8)
	orig := g0.AtOffset(off)
	g0.SetOffset(off, 1e18)
	report, err := w.SDCCheck(spatialdue.NewSpatialDetector(10), eng.FTIRepairer())
	if err != nil {
		t.Fatal(err)
	}
	if report.Repaired != 1 || report.RolledBack {
		t.Errorf("SDCCheck report = %+v", report)
	}
	if math.Abs(g0.AtOffset(off)-orig)/math.Abs(orig) > 0.05 {
		t.Errorf("forward recovery left %v, true %v", g0.AtOffset(off), orig)
	}
}

func TestFromData(t *testing.T) {
	a, err := spatialdue.FromData([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.At(1, 2) != 6 {
		t.Error("FromData wrong")
	}
	if _, err := spatialdue.FromData([]float64{1}, 2, 3); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestDatasetHelpersForDownstreamUse(t *testing.T) {
	// The internal sdrbench generators back the examples; spot-check they
	// interoperate with the public engine.
	ds := sdrbench.Generate(sdrbench.Miranda, "pressure", sdrbench.ScaleTiny)
	eng := spatialdue.NewEngine(spatialdue.Options{Seed: 2})
	alloc := eng.Protect(ds.Name, ds.Array, ds.DType, spatialdue.RecoverAny())
	off := ds.Array.Offset(4, 6, 6)
	orig := ds.Array.AtOffset(off)
	ds.Array.SetOffset(off, orig*1e8)
	out, err := eng.RecoverAddress(alloc.AddrOf(off))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.New-orig)/math.Abs(orig) > 0.10 {
		t.Errorf("recovered %v, true %v", out.New, orig)
	}
}

func TestMetricsHandler(t *testing.T) {
	grid := smoothGrid(t, 16, 16)
	eng := spatialdue.NewEngine(spatialdue.Options{Seed: 4})
	alloc := eng.Protect("g", grid, spatialdue.Float32, spatialdue.RecoverAny())
	off := grid.Offset(8, 8)
	grid.SetOffset(off, math.NaN())
	if _, err := eng.RecoverAddress(alloc.AddrOf(off)); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(spatialdue.MetricsHandler(eng))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "spatialdue_recovered_total 1") {
		t.Errorf("metrics body missing counter:\n%s", body)
	}
}

// TestMetricsLabelEscaping protects an allocation whose name only the
// library (not the HTTP layer's name check) lets through: a tab, a control
// byte and a quote. The page must still parse, and give the name back.
func TestMetricsLabelEscaping(t *testing.T) {
	const name = "t\tab\x01\"q"
	grid := smoothGrid(t, 16, 16)
	eng := spatialdue.NewEngine(spatialdue.Options{Seed: 4})
	alloc := eng.Protect(name, grid, spatialdue.Float32, spatialdue.RecoverAny())
	off := grid.Offset(8, 8)
	grid.SetOffset(off, math.NaN())
	if _, err := eng.RecoverAddress(alloc.AddrOf(off)); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	spatialdue.MetricsHandler(eng).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	samples, err := metrics.Parse(rec.Body)
	if err != nil {
		t.Fatalf("parse /metrics: %v", err)
	}
	if got := metrics.LabelValues(samples, "spatialdue_spatial_moran_i", "alloc"); len(got) != 1 || got[0] != name {
		t.Fatalf("alloc label values = %q, want [%q]", got, name)
	}
}
