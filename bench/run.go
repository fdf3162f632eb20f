package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// workloads is the benchmark's workload list. Names are the contract.
var workloads = []workloadDef{
	{Name: "lib_fixed",
		Why:  "core engine overhead does ~99% of the work (kernel ~1%); service, HTTP, journal and cluster do none",
		Runs: "in-process, 1 goroutine: real single-bit flips at scattered sites of 2-D CESM/FLDS (ScaleSmall), policy RecoverWith(Lorenzo1), Engine.RecoverAddress",
		setup: func(ctx *runCtx) (instance, error) {
			return setupLibElement(ctx, libFixedPlan)
		}},
	{Name: "lib_any",
		Why:  "autotune and predict kernels do ~99% of the work; engine overhead <1%, so a core optimisation predicts no change here",
		Runs: "same loop on 3-D ISABEL/Pf48, policy RECOVER_ANY, no tune cache",
		setup: func(ctx *runCtx) (instance, error) {
			return setupLibElement(ctx, libAnyPlan)
		}},
	{Name: "lib_rowwipe",
		Why:   "16-cell row wipes reach the escalation ladder, quarantine masking and degraded stencils the other library workloads never touch",
		Runs:  "in-process 16-cell cache-line wipes through Engine.RecoverBurst, fti L1 checkpoint attached so the restore rung exists; throughput counted in cells",
		setup: func(ctx *runCtx) (instance, error) { return setupLibRowWipe(ctx) }},
	{Name: "http_single",
		Why:   "per-event HTTP/JSON, mca, service and journal tax does ~85% of the work; batching, tuning and stripe contention are bypassed",
		Runs:  "1 node; each client its own tenant + 1024x1024 float32 field, fixed Lorenzo1, one POST /v1/events per DUE, outcome read from GET /v1/outcomes",
		setup: func(ctx *runCtx) (instance, error) { return setupHTTPSingle(ctx) }},
	{Name: "http_storm",
		Why:   "same layers used differently: NDJSON framing, bank latching, batch coalescing, stripe locks and tune-cache hits dominate; per-event HTTP is bypassed",
		Runs:  "1 node; clients share one tenant + one RECOVER_ANY field and storm disjoint 32-row bands through POST /v1/events/stream, 64-line batches, one in flight per client",
		setup: func(ctx *runCtx) (instance, error) { return setupHTTPStorm(ctx) }},
	{Name: "cluster_pair",
		Why:   "http_single's traffic on two nodes with partner replication and 307 forwarding; its difference to http_single is the replication tax",
		Runs:  "two in-process cluster.Nodes (journal + partner replication on); even clients enter at their tenant's owner, odd clients at the non-owner (307 forward)",
		setup: func(ctx *runCtx) (instance, error) { return setupClusterPair(ctx) }},
	{Name: "field_mixed",
		Why:   "writes beside reads: uploads take every stripe lock, re-snapshot shared stats and drop the tune cache that http_storm only ever hits",
		Runs:  "1 node, mmap field store, one tenant + one 1024x1024 RECOVER_ANY field: client 0 alternates full-field Upload/Download (8 MiB), the others report single DUEs on the same field",
		setup: func(ctx *runCtx) (instance, error) { return setupFieldMixed(ctx) }},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metricValue is one emitted metric, in the driver's wire shape.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is what one invocation reports. The last line of standard
// output carries exactly Correct/Attempted/Failed/Metrics; the rest goes to
// the -detail file for the report and the comparator.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// Windows holds, for metrics reduced from several samples (the timed
	// windows, the set-up repetitions), the samples behind the value.
	Windows map[string][]float64 `json:"-"`
	Notes   []string             `json:"-"`
}

// reduce turns a metric's samples into its reported value.
//
// Timing metrics take the best window: on a shared machine interference
// only ever slows a window down, so the least-disturbed window is the most
// repeatable estimate of what the code costs — across ten runs on the
// reference box the best window moved 3-6% where the median window moved
// 10-15% (README "Run-to-run spread"). A real regression slows every
// window, the best one included. Counts (allocations, bytes) do not depend
// on the machine's mood and take the median, as does setup_s.
func reduce(def metricDef, samples []float64) float64 {
	s := summarize(samples)
	if !def.BestWindow {
		return s.Median
	}
	if def.Better == "higher" {
		return s.Max
	}
	return s.Min
}

// setUp performs the workload's set-up repeatedly and keeps the last
// instance; the durations feed setup_s (their median). At least setupReps
// times, and while set-ups are cheap — the library workloads take 13 ms —
// up to setupRepsMax times within setupBudget, because a median of five
// 13 ms samples moves by a third when one of them catches a page fault.
func setUp(w workloadDef, ctx *runCtx) (instance, []float64, error) {
	var times []float64
	var inst instance
	start := time.Now()
	for rep := 0; ; rep++ {
		if rep >= setupRepsMax || (rep >= setupReps && time.Since(start) > setupBudget) || (ctx.smoke && rep >= 1) {
			break
		}
		if inst != nil {
			inst.close()
			inst = nil
			// Collect the discarded instance before building the next, so
			// peak_rss_mb reflects one instance and not how many repetitions
			// the collector happened to leave lying around.
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		inst, err = w.setup(ctx)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", rep+1, err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return inst, times, nil
}

// runEndToEnd is the --trace 0 run: set-up, quality pass against the
// oracle, warm-up, five timed windows, post-run invariants.
func runEndToEnd(w workloadDef, ctx *runCtx) (*runResult, error) {
	inst, setupTimes, err := setUp(w, ctx)
	if err != nil {
		return nil, err
	}
	defer inst.close()

	res := &runResult{Metrics: map[string]metricValue{}, Windows: map[string][]float64{}}
	recs, err := inst.quality()
	if err != nil {
		return nil, fmt.Errorf("quality pass: %w", err)
	}
	ref, err := inst.reference()
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	q, err := scoreQuality(recs, ref)
	if err != nil {
		return nil, err
	}
	if q.mismatches > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("oracle: %d of %d quality-pass reconstructions differ from the reference engine", q.mismatches, q.n))
	}
	if q.notOK > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("quality pass: %d of %d recoveries failed", q.notOK, q.n))
	}

	timed := runTimed(inst, ctx.seconds, nil)
	ser := timed.series()
	invariants := inst.finish()
	for _, e := range invariants {
		res.Notes = append(res.Notes, "invariant: "+e.Error())
	}

	res.Attempted = q.n + ser.tried
	res.Failed = q.notOK + q.mismatches + (ser.tried - ser.done) + len(invariants)
	for _, lg := range timed.logs {
		res.Attempted += lg.attempts + lg.otherFailed
		res.Failed += lg.failures + lg.otherFailed
	}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	res.Correct = res.Failed == 0

	put := func(name string, samples []float64) {
		def := e2eDef(name)
		res.Windows[name] = finiteOnly(samples)
		res.Metrics[name] = metricValue{Value: reduce(def, samples), Unit: def.Unit}
	}
	put("setup_s", setupTimes)
	put("recoveries_per_s", ser.perS)
	put("recover_p50_us", ser.p50)
	put("recover_p95_us", ser.p95)
	put("cpu_us_per_recovery", ser.cpuUS)
	put("allocs_per_recovery", ser.allocs)
	put("bytes_per_recovery", ser.bytes)
	put("peak_rss_mb", []float64{peakRSSMiB()})
	put("within1_pct", []float64{q.within1})
	put("within10_pct", []float64{q.within10})
	put("local_recovery_pct", []float64{q.loc})
	put("success_pct", []float64{100 * (1 - float64(res.Failed)/float64(res.Attempted))})
	res.Notes = append(res.Notes, fmt.Sprintf("latency samples per window: %v; quality pass: %d recoveries", ser.samples, q.n))

	for name, mv := range res.Metrics {
		if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
			return res, fmt.Errorf("metric %s is not finite: no recovery completed in any window", name)
		}
	}
	return res, nil
}

// e2eDef looks an end-to-end metric up in the catalogue.
func e2eDef(name string) metricDef {
	for _, m := range endToEnd {
		if m.Name == name {
			return m
		}
	}
	panic("bench: no end-to-end metric " + name)
}

// finiteOnly drops NaN/Inf samples (a window in which nothing completed).
func finiteOnly(samples []float64) []float64 {
	out := make([]float64, 0, len(samples))
	for _, v := range samples {
		if isFinite(v) {
			out = append(out, v)
		}
	}
	return out
}

// newScratch creates the run's private temp dir under root.
func newScratch(root string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "run-")
}

// runScratch creates a private temp dir under scratchRoot and returns it with
// the function that removes it — and the root too, once the last run using
// it is gone.
func runScratch() (dir string, cleanup func(), err error) {
	dir, err = newScratch(scratchRoot)
	if err != nil {
		return "", nil, err
	}
	return dir, func() {
		_ = os.RemoveAll(dir)
		_ = os.Remove(scratchRoot)
	}, nil
}
