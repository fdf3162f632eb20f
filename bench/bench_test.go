package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestMain lets the smoke subtests of all seven workloads run side by side:
// they mostly wait out their timed windows, and the default parallelism
// (GOMAXPROCS) would queue them in pairs on a 2-core box.
func TestMain(m *testing.M) {
	_ = flag.Set("test.parallel", "8")
	os.Exit(m.Run())
}

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

// --- percentile and window maths --------------------------------------------

func TestPercentile(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, tc := range []struct{ p, want float64 }{
		{0, 10}, {0.25, 20}, {0.5, 30}, {0.95, 48}, {1, 50}, {-1, 10}, {2, 50},
	} {
		approx(t, "percentile", percentile(s, tc.p), tc.want, 1e-12)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing should be NaN")
	}
	approx(t, "median even", median([]float64{4, 1, 3, 2}), 2.5, 1e-12)
	approx(t, "median odd", median([]float64{9, 1, 5}), 5, 1e-12)
}

func TestSummarizeDropsEmptyWindows(t *testing.T) {
	s := summarize([]float64{3, math.NaN(), 1, math.Inf(1), 2})
	if s.N != 3 || s.Min != 1 || s.Max != 3 || s.Median != 2 {
		t.Errorf("summarize = %+v", s)
	}
	if e := summarize(nil); e.N != 0 || !math.IsNaN(e.Median) {
		t.Errorf("empty summarize = %+v", e)
	}
}

// The driver computes the spread with Python's statistics.quantiles(n=4);
// these expected values come from running exactly that.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	vals := []float64{12, 15, 11, 19, 14, 13, 18, 16, 17, 10}
	// quantiles -> [11.75, 14.5, 17.25]; median 14.5
	approx(t, "spread of ten", quartileSpread(vals), (17.25-11.75)/14.5, 1e-12)
	// quantiles([1, 2]) -> [0.75, 1.5, 2.25]
	approx(t, "spread of two", quartileSpread([]float64{1, 2}), 1.5/1.5, 1e-12)
	// quantiles([5, 1, 3]) -> [1.0, 3.0, 5.0]
	approx(t, "spread of three", quartileSpread([]float64{5, 1, 3}), 4.0/3.0, 1e-12)
	if quartileSpread([]float64{7}) != 0 {
		t.Error("one value has no spread")
	}
	// The comparator's estimator: with five runs one outlier does not count.
	approx(t, "inter-quartile spread", interQuartileSpread([]float64{3, 100, 1, 4, 2}), (4.0-2.0)/3.0, 1e-12)
	if interQuartileSpread([]float64{7}) != 0 {
		t.Error("one run has no spread")
	}
}

func TestSampleLogRanges(t *testing.T) {
	var s sampleLog
	n := 2*sampleChunk + 17
	for i := 0; i < n; i++ {
		s.add(float64(i))
	}
	if s.n != n {
		t.Fatalf("n = %d", s.n)
	}
	got := s.appendRange(nil, sampleChunk-2, sampleChunk+3)
	want := []float64{float64(sampleChunk - 2), float64(sampleChunk - 1), float64(sampleChunk), float64(sampleChunk + 1), float64(sampleChunk + 2)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("range across a chunk boundary = %v, want %v", got, want)
	}
	if all := s.appendRange(nil, 0, n+100); len(all) != n || all[n-1] != float64(n-1) {
		t.Errorf("clamped full range has %d samples", len(all))
	}
}

// A hand-built timed phase: two clients, known samples per window.
func TestWindowSeries(t *testing.T) {
	mk := func(perWindow [timedWindows][]float64, warm []float64) *clientLog {
		lg := &clientLog{}
		for _, v := range warm {
			lg.lat.add(v)
		}
		lg.preWarm = lg.lat.n
		for w, vals := range perWindow {
			for _, v := range vals {
				lg.lat.add(v)
			}
			lg.winEnd[w] = lg.lat.n
			lg.done[w] = len(vals)
			lg.tried[w] = len(vals)
		}
		return lg
	}
	a := mk([timedWindows][]float64{{10, 30}, {50}, {}, {70, 90, 110}, {20}}, []float64{999, 999})
	b := mk([timedWindows][]float64{{20}, {60, 40}, {}, {80}, {}}, nil)
	b.tried[4] = 3 // three attempts that all failed in the last window
	r := timedResult{logs: []*clientLog{a, b}}
	for w := range r.windows {
		r.windows[w] = usageDelta{wall: 2 * time.Second, cpu: 6 * time.Millisecond, mallocs: 300, bytes: 6000}
	}
	s := r.series()
	if got := r.windowLatencies(0); !reflect.DeepEqual(got, []float64{10, 20, 30}) {
		t.Errorf("window 0 latencies = %v (warm-up samples must be excluded)", got)
	}
	approx(t, "window 0 p50", s.p50[0], 20, 1e-12)
	approx(t, "window 0 rate", s.perS[0], 1.5, 1e-12)
	approx(t, "window 0 cpu", s.cpuUS[0], 2000, 1e-9)
	approx(t, "window 0 allocs", s.allocs[0], 100, 1e-12)
	approx(t, "window 3 p95", s.p95[3], percentile([]float64{70, 80, 90, 110}, 0.95), 1e-12)
	if !math.IsNaN(s.perS[2]) || !math.IsNaN(s.p50[2]) {
		t.Errorf("an empty window must read NaN, got rate %v p50 %v", s.perS[2], s.p50[2])
	}
	if s.done != 11 || s.tried != 14 {
		t.Errorf("done/tried = %d/%d, want 11/14", s.done, s.tried)
	}
	if !reflect.DeepEqual(s.samples, []int{3, 3, 0, 4, 1}) {
		t.Errorf("samples per window = %v", s.samples)
	}
}

func TestReduceBestWindowAndMedian(t *testing.T) {
	windows := []float64{5, 9, 7, math.NaN(), 6}
	if got := reduce(metricDef{Better: "higher", BestWindow: true}, windows); got != 9 {
		t.Errorf("best window, higher is better = %v, want 9", got)
	}
	if got := reduce(metricDef{Better: "lower", BestWindow: true}, windows); got != 5 {
		t.Errorf("best window, lower is better = %v, want 5", got)
	}
	if got := reduce(metricDef{Better: "lower"}, windows); got != 6.5 {
		t.Errorf("median reduction = %v, want 6.5", got)
	}
}

// --- failed / attempted accounting ------------------------------------------

// fakeInstance is a scripted workload: its quality pass and operations fail
// exactly where the test says.
type fakeInstance struct {
	recs      []recoveryRecord
	ref       []float64
	failEvery int // every n-th operation fails (0: none)
	invariant []error
}

func (f *fakeInstance) quality() ([]recoveryRecord, error) { return f.recs, nil }
func (f *fakeInstance) reference() ([]float64, error)      { return f.ref, nil }
func (f *fakeInstance) clients() int                       { return 2 }
func (f *fakeInstance) op(_, i int, rec *clientLog) (int, int) {
	time.Sleep(50 * time.Microsecond)
	if f.failEvery > 0 && i%f.failEvery == 0 {
		return 0, 1
	}
	rec.add(50 * time.Microsecond)
	return 1, 1
}
func (f *fakeInstance) finish() []error              { return f.invariant }
func (f *fakeInstance) counters() map[string]float64 { return nil }
func (f *fakeInstance) ladder() ladderSpec           { return ladderSpec{} }
func (f *fakeInstance) close()                       {}

func fakeWorkload(inst instance) workloadDef {
	return workloadDef{Name: "fake", Why: "test", setup: func(*runCtx) (instance, error) { return inst, nil }}
}

func TestFailedAttemptedAccounting(t *testing.T) {
	recs := []recoveryRecord{
		{want: 100, got: 100.5, stage: "primary", ok: true},  // within 1%
		{want: 100, got: 105, stage: "tune", ok: true},       // within 10%
		{want: 100, got: 150, stage: "restore", ok: true},    // off, and not a local recovery
		{want: 100, got: 100, stage: "primary", ok: true},    // oracle mismatch below
		{want: 100, got: 0, stage: "exhausted", ok: false},   // reported failure
		{want: 100, got: 99.5, stage: "alternate", ok: true}, // within 1%
	}
	ref := []float64{100.5, 105, 150, 100.0000001, 0, 99.5}
	q, err := scoreQuality(recs, ref)
	if err != nil {
		t.Fatal(err)
	}
	if q.n != 6 || q.mismatches != 1 || q.notOK != 1 {
		t.Errorf("quality score = %+v", q)
	}
	approx(t, "within1", q.within1, 100*3.0/6, 1e-9)
	approx(t, "within10", q.within10, 100*4.0/6, 1e-9)
	approx(t, "local", q.loc, 100*4.0/6, 1e-9)
	if _, err := scoreQuality(recs, ref[:3]); err == nil {
		t.Error("an oracle that replayed fewer recoveries must be an error")
	}

	inst := &fakeInstance{recs: recs, ref: ref, failEvery: 4, invariant: []error{os.ErrInvalid}}
	res, err := runEndToEnd(fakeWorkload(inst), &runCtx{seed: 1, seconds: 0.25, clients: 2, smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Error("a run with failures must not be correct")
	}
	// 1 failed quality recovery + 1 oracle mismatch + 1 violated invariant
	// + every failed operation; operations are all attempted.
	opsTried := res.Attempted - len(recs)
	opsFailed := res.Failed - 3
	if opsTried <= 0 || opsFailed <= 0 {
		t.Fatalf("attempted %d failed %d", res.Attempted, res.Failed)
	}
	// Every 4th operation of each client fails: a quarter, give or take the
	// operations in flight at the edges.
	if share := float64(opsFailed) / float64(opsTried); share < 0.2 || share > 0.3 {
		t.Errorf("failed share of operations = %.3f, want ~0.25", share)
	}
	want := 100 * (1 - float64(res.Failed)/float64(res.Attempted))
	approx(t, "success_pct", res.Metrics["success_pct"].Value, want, 1e-9)

	clean := &fakeInstance{recs: recs[:2], ref: ref[:2]}
	res, err = runEndToEnd(fakeWorkload(clean), &runCtx{seed: 1, seconds: 0.25, clients: 2, smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Metrics["success_pct"].Value != 100 {
		t.Errorf("clean run: correct=%v failed=%d success=%v", res.Correct, res.Failed, res.Metrics["success_pct"].Value)
	}
	for _, def := range endToEnd {
		mv, ok := res.Metrics[def.Name]
		if !ok || !isFinite(mv.Value) || mv.Unit != def.Unit {
			t.Errorf("end-to-end metric %s = %+v (present %v)", def.Name, mv, ok)
		}
	}
}

// --- event plan ---------------------------------------------------------------

func TestEventPlanDeterminism(t *testing.T) {
	plan := func(seed int64) (sites []int, bits []int, field []float64) {
		ctx := &runCtx{seed: seed, smoke: true}
		spec := synthSpec(ctx, "c0", libFixedPlan.policy)
		trials := scatteredTrials(seed, "c0", spec, wholeArray(spec.dims), []int{8, 8})
		for _, tr := range trials {
			sites = append(sites, tr.Offset)
			bits = append(bits, tr.Bit)
		}
		return sites, bits, spec.pristine
	}
	s1, b1, f1 := plan(7)
	s2, b2, f2 := plan(7)
	if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(b1, b2) || !reflect.DeepEqual(f1, f2) {
		t.Error("the same seed must give the same sites, bits and field")
	}
	s3, b3, f3 := plan(8)
	if reflect.DeepEqual(s1, s3) || reflect.DeepEqual(b1, b3) || reflect.DeepEqual(f1, f3) {
		t.Error("another seed must give other sites, bits and field")
	}
	if subSeed(1, "a") == subSeed(1, "b") || subSeed(1, "a") == subSeed(2, "a") {
		t.Error("sub-seeds must differ by label and by seed")
	}

	// Library plans: same property, through the real set-up path.
	a, err := setupLibElement(&runCtx{seed: 3, smoke: true}, libFixedPlan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := setupLibElement(&runCtx{seed: 3, smoke: true}, libFixedPlan)
	if err != nil {
		t.Fatal(err)
	}
	c, err := setupLibElement(&runCtx{seed: 4, smoke: true}, libFixedPlan)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.trials, b.trials) {
		t.Error("lib plan differs for one seed")
	}
	if reflect.DeepEqual(a.trials, c.trials) {
		t.Error("lib plan identical across seeds")
	}
}

func TestStratifiedSitesCoverEveryCellWithGaps(t *testing.T) {
	dims := []int{64, 96}
	b := box{lo: []int{16, 0}, hi: []int{48, 96}}
	grid, jitter := []int{4, 12}, []int{4, 4}
	sites := stratifiedSites(rand.New(rand.NewSource(11)), dims, b, grid, jitter)
	if len(sites) != 48 {
		t.Fatalf("%d sites, want 48", len(sites))
	}
	seen := map[[2]int]bool{}
	for _, off := range sites {
		r, c := off/96, off%96
		if r < 16 || r >= 48 {
			t.Errorf("site row %d outside the band", r)
		}
		cell := [2]int{(r - 16) / 8, c / 8}
		if seen[cell] {
			t.Errorf("two sites in cell %v", cell)
		}
		seen[cell] = true
		if (r-16)%8 >= 4 || c%8 >= 4 {
			t.Errorf("site (%d,%d) outside its cell's jitter window", r, c)
		}
	}
}

func TestStormBandsAreDisjoint(t *testing.T) {
	for _, side := range []int{fieldSide, smokeSide} {
		for clients := 1; clients <= 4; clients++ {
			prevHi := 0
			for c := 0; c < clients; c++ {
				b := stormBand(c, clients, side)
				// Bands must not share or neighbour a lock stripe (11 rows).
				if c > 0 && b.lo[0] < prevHi+11 {
					t.Errorf("side %d clients %d: band %d starts at %d, previous ends at %d", side, clients, c, b.lo[0], prevHi)
				}
				if b.hi[0] > side {
					t.Errorf("side %d clients %d: band %d ends at %d", side, clients, c, b.hi[0])
				}
				prevHi = b.hi[0]
			}
		}
	}
}

// --- catalogue and BENCHMARK.json ---------------------------------------------

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestCatalogueLimits(t *testing.T) {
	if err := validateCatalogue(workloads, endToEnd, perLayer); err != nil {
		t.Fatal(err)
	}
	bad := append([]metricDef(nil), endToEnd...)
	bad[1].Name = "has space"
	if validateCatalogue(workloads, bad, perLayer) == nil {
		t.Error("a metric name with a space must be refused")
	}
	bad = append([]metricDef(nil), endToEnd...)
	bad[2].Bound = 0.3
	if validateCatalogue(workloads, bad, perLayer) == nil {
		t.Error("a bound above 0.25 must be refused")
	}
	dup := append(append([]metricDef(nil), perLayer...), perLayer[0])
	if validateCatalogue(workloads, endToEnd, dup) == nil {
		t.Error("a name used twice must be refused")
	}
	many := make([]metricDef, 17)
	for i := range many {
		many[i] = metricDef{Name: "m" + string(rune('a'+i)), Unit: "s", Better: "lower", Bound: 0.1}
	}
	many[0].Name = "setup_s"
	if validateCatalogue(workloads, many, perLayer) == nil {
		t.Error("17 end-to-end metrics must be refused")
	}
	if validateCatalogue(workloads, endToEnd[1:], perLayer) == nil {
		t.Error("a catalogue without setup_s must be refused")
	}
}

func TestBenchmarkJSONInSync(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := raw[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	if len(raw) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly 6", len(raw))
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(bj.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", bj.Command, bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bj.RunSeconds)
	}
	// The driver's own budget: 4 + 22 per workload runs inside 3420 s.
	if runs := 4 + 22*len(bj.Workloads); float64(runs)*(float64(bj.RunSeconds)+8) > 3420 {
		t.Errorf("%d runs of %d s (+8 s set-up, quality pass and build cache) do not fit 3420 s", runs, bj.RunSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the catalogue", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v vs catalogue %s", i, bj.Workloads[i], w.Name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the catalogue", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		g := bj.EndToEnd[i]
		if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || g.Bound != m.Bound {
			t.Errorf("end-to-end %d: %+v vs catalogue %+v", i, g, m)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the catalogue", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		g := bj.PerLayer[i]
		if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
			t.Errorf("per-layer %d: %+v vs catalogue %s", i, g, m.Name)
		}
	}
}

func TestReadmeNamesEveryWorkloadAndMetric(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(data)
	for _, w := range workloads {
		if !strings.Contains(readme, "`"+w.Name+"`") {
			t.Errorf("README.md does not name workload %s", w.Name)
		}
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !strings.Contains(readme, "`"+m.Name+"`") {
			t.Errorf("README.md does not name metric %s", m.Name)
		}
	}
}

// --- comparator ---------------------------------------------------------------

func TestJudgeVerdicts(t *testing.T) {
	lower := metricDef{Name: "recover_p50_us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "recoveries_per_s", Better: "higher", Bound: 0.10}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c * 1.005, c * 0.995} }
	for _, tc := range []struct {
		name string
		a, b []float64
		def  metricDef
		want string
	}{
		{"same", tight(100), tight(101), lower, verdictOK},
		{"slower by 20%", tight(100), tight(120), lower, verdictRegression},
		{"faster by 20%", tight(100), tight(80), lower, verdictOK},
		{"throughput down 20%", tight(100), tight(80), higher, verdictRegression},
		{"throughput up 20%", tight(100), tight(120), higher, verdictOK},
		{"noisy and worse", []float64{80, 100, 120, 90, 115}, []float64{95, 118, 140, 105, 130}, lower, verdictUnresolved},
		{"noisy but every run better", []float64{80, 100, 120, 90, 115}, []float64{50, 60, 70, 79, 55}, lower, verdictOK},
		{"single runs within bound", []float64{100}, []float64{105}, lower, verdictOK},
		{"single runs beyond bound", []float64{100}, []float64{125}, lower, verdictRegression},
		{"nothing measured", tight(100), nil, lower, verdictUnresolved},
	} {
		if got, _, _ := judge(tc.a, tc.b, tc.def); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	approx(t, "worsening lower", worsening(100, 110, "lower"), 0.10, 1e-12)
	approx(t, "worsening higher", worsening(100, 110, "higher"), -0.10, 1e-12)
}

func TestCompareFiles(t *testing.T) {
	mk := func(scale float64, correct bool) resultsFile {
		rf := resultsFile{Header: header{Seed: 1, Seconds: 10, Repeat: 3}, Workloads: map[string]workloadReport{}}
		for _, w := range workloads {
			rep := workloadReport{Correct: correct, EndToEnd: map[string]metricReport{}}
			for _, def := range endToEnd {
				v := 100.0
				if def.Name == "recover_p50_us" && w.Name == "http_single" {
					v *= scale
				}
				runs := []float64{v * 0.99, v, v * 1.01}
				rep.EndToEnd[def.Name] = metricReport{Unit: def.Unit, Median: v, Min: runs[0], Max: runs[2], Runs: runs}
			}
			rf.Workloads[w.Name] = rep
		}
		return rf
	}
	dir := t.TempDir()
	write := func(name string, rf resultsFile) string {
		p := filepath.Join(dir, name)
		data, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a.json", mk(1, true))
	var out bytes.Buffer
	if n, err := compareFiles(&out, base, write("same.json", mk(1.02, true))); err != nil || n != 0 {
		t.Errorf("A/A: %d regressions, err %v\n%s", n, err, out.String())
	}
	if rows := strings.Count(out.String(), "\n"); rows != 4+len(workloads)*len(endToEnd) {
		t.Errorf("%d output lines, want one per metric and workload plus 4", rows)
	}
	out.Reset()
	n, err := compareFiles(&out, base, write("slow.json", mk(1.3, true)))
	if err != nil || n != 1 {
		t.Errorf("one slowed metric: %d regressions, err %v", n, err)
	}
	if !strings.Contains(out.String(), "http_single   recover_p50_us") || !strings.Contains(out.String(), verdictRegression) {
		t.Errorf("the regression row is missing:\n%s", out.String())
	}
	if n, _ := compareFiles(&out, base, write("wrong.json", mk(1, false))); n != len(workloads)*len(endToEnd) {
		t.Errorf("incorrect B: %d regressions, want every row", n)
	}
	if _, err := compareFiles(&out, base, filepath.Join(dir, "missing.json")); err == nil {
		t.Error("a missing file must be an error")
	}
}

// --- spans ----------------------------------------------------------------------

func TestSpanLog(t *testing.T) {
	l := newSpanLog()
	l.spans = []span{
		{ID: 1, Event: 9, Name: "recovery", Start: 0, End: 100_000},
		{ID: 2, Parent: 1, Event: 9, Name: "poll", Start: 30_000, End: 70_000},
		{ID: 3, Parent: 1, Event: 9, Name: "poll", Start: 90_000, End: 120_000},
	}
	if d := l.durationsUS("poll"); !reflect.DeepEqual(d, []float64{40, 30}) {
		t.Errorf("poll durations = %v", d)
	}
	var nilLog *spanLog
	sp := nilLog.begin("x", 1, 0)
	sp.end()
	if nilLog.count() != 0 || sp.id() != 0 {
		t.Error("a nil log must record nothing")
	}

	other := newSpanLog()
	a := other.begin("a", 1, 0)
	b := other.begin("b", 1, a.id())
	b.end()
	a.end()
	before := l.count()
	l.nextID.Store(3)
	l.absorb(other)
	if l.count() != before+2 {
		t.Fatalf("absorb: %d spans", l.count())
	}
	ids := map[uint64]bool{}
	var child, parent span
	for _, s := range l.spans {
		if ids[s.ID] {
			t.Errorf("span id %d used twice after absorb", s.ID)
		}
		ids[s.ID] = true
		if s.Name == "a" {
			parent = s
		}
		if s.Name == "b" {
			child = s
		}
	}
	if child.Parent != parent.ID || parent.ID == 0 {
		t.Errorf("absorb lost the parent link: child %+v parent %+v", child, parent)
	}
}

// --- smoke: every workload, every metric --------------------------------------

func TestSmokeEveryWorkloadEveryMetric(t *testing.T) {
	root := t.TempDir()
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			// The workloads spend most of the smoke run waiting out their
			// windows; running them side by side keeps the suite short.
			t.Parallel()
			newCtx := func() *runCtx {
				scratch, err := newScratch(filepath.Join(root, w.Name))
				if err != nil {
					t.Fatal(err)
				}
				return &runCtx{seed: 1, seconds: smokeSeconds, clients: 2, scratch: scratch, smoke: true}
			}
			res, err := runEndToEnd(w, newCtx())
			if err != nil {
				t.Fatalf("end-to-end run: %v", err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d notes=%v", res.Correct, res.Attempted, res.Failed, res.Notes)
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%d end-to-end metrics emitted, catalogue has %d", len(res.Metrics), len(endToEnd))
			}
			for _, def := range endToEnd {
				mv, ok := res.Metrics[def.Name]
				if !ok || !isFinite(mv.Value) || mv.Value == 0 || mv.Unit != def.Unit {
					t.Errorf("%s = %+v (present %v): want present, finite, non-zero, in %s", def.Name, mv, ok, def.Unit)
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("result line: %v", err)
			}

			ctx := newCtx()
			ctx.spans = newSpanLog()
			tres, err := runTraced(w, ctx)
			if err != nil {
				t.Fatalf("traced run: %v", err)
			}
			if !tres.Correct {
				t.Errorf("traced run incorrect: failed=%d notes=%v", tres.Failed, tres.Notes)
			}
			if len(tres.Metrics) != len(perLayer) {
				t.Errorf("%d per-layer metrics emitted, catalogue has %d", len(tres.Metrics), len(perLayer))
			}
			for _, def := range perLayer {
				mv, ok := tres.Metrics[def.Name]
				if !ok || !isFinite(mv.Value) || mv.Unit != def.Unit {
					t.Errorf("%s = %+v (present %v): want present, finite, in %s", def.Name, mv, ok, def.Unit)
				}
			}
			if ctx.spans.count() == 0 {
				t.Error("the traced run recorded no spans")
			}
			out := filepath.Join(ctx.scratch, "spans.json")
			if err := ctx.spans.writeFile(out); err != nil {
				t.Fatal(err)
			}
			var dump struct {
				Spans []span `json:"spans"`
			}
			data, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, &dump); err != nil || len(dump.Spans) != ctx.spans.count() {
				t.Errorf("span file: %v, %d spans of %d", err, len(dump.Spans), ctx.spans.count())
			}
		})
	}
}
