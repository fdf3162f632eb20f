package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"spatialdue/internal/autotune"
	"spatialdue/internal/core"
	"spatialdue/internal/faultinject"
	"spatialdue/internal/fti"
	"spatialdue/internal/httpapi"
	"spatialdue/internal/journal"
	"spatialdue/internal/mca"
	"spatialdue/internal/ndarray"
	"spatialdue/internal/ndarray/mmapstore"
	"spatialdue/internal/predict"
	"spatialdue/internal/registry"
	"spatialdue/internal/service"
	"spatialdue/internal/spatial"
	"spatialdue/internal/trace"
)

// The traced run (--trace 1) produces the per-layer numbers. It has three
// parts, all measured from outside the layers, through their public
// functions and counters:
//
//  1. the workload itself, first untraced and then with a span around
//     every call the bench makes (their ratio is bench.trace_overhead_pct);
//  2. the ladder: the workload's first N planned events replayed at every
//     depth of the stack — kernel alone, NewEnv+kernel, tuner, engine,
//     service without and with journal, HTTP, two-node cluster — each on a
//     fresh copy of the workload's field, so a layer's self time is its
//     depth minus the next-deeper one;
//  3. micro-probes of the calls each recovery pays once (registry lookup,
//     quarantine mark, trace cycle, journal append, ...).

// ladderKind says which ladder figure is comparable to the workload's own
// recover_p50_us (bench.tax_explained_pct).
type ladderKind int

const (
	ladderEngine ladderKind = iota // library element workloads: engine depth
	ladderBurst                    // lib_rowwipe: one RecoverBurst call
	ladderHTTP                     // single-event HTTP workloads: HTTP depth at N clients
	ladderStorm                    // http_storm: one 64-line batch, per event
	ladderPair                     // cluster_pair: owner and forwarded entries pooled
)

// ladderSpec is what a workload hands the ladder: its field, the element
// offsets of its planned events, and how to regenerate its dataset.
type ladderSpec struct {
	field    fieldSpec
	offsets  []int
	kind     ladderKind
	generate func() // regenerates the workload's dataset (sdrbench.generate_ms)
	// storm (ladderStorm only) is every client's share of the event plan:
	// the clients of a storm share one field and must stay in their bands.
	storm [][]int
}

// probeBudget shrinks a probe's time budget under -smoke.
func (c *runCtx) probeBudget(d time.Duration) time.Duration {
	if c.smoke {
		return d / 10
	}
	return d
}

// timeBudget bounds a probe loop: run fn until the budget is spent (at least
// minIters times) and return the per-iteration durations in nanoseconds.
func (c *runCtx) timeBudget(budget time.Duration, minIters int, fn func(i int)) []float64 {
	var out []float64
	deadline := time.Now().Add(c.probeBudget(budget))
	for i := 0; i < minIters || time.Now().Before(deadline); i++ {
		t0 := time.Now()
		fn(i)
		out = append(out, float64(time.Since(t0)))
		if i > 1<<22 {
			break
		}
	}
	return out
}

// perCallNS times fn in blocks of block calls (one clock pair per block, so
// nanosecond-scale calls are not drowned by the clock) for the budget, and
// returns the median per-call nanoseconds across blocks.
func (c *runCtx) perCallNS(budget time.Duration, block int, fn func(i int)) float64 {
	var per []float64
	deadline := time.Now().Add(c.probeBudget(budget))
	i := 0
	for len(per) < 3 || time.Now().Before(deadline) {
		t0 := time.Now()
		for k := 0; k < block; k++ {
			fn(i)
			i++
		}
		per = append(per, float64(time.Since(t0))/float64(block))
		if len(per) > 1<<16 {
			break
		}
	}
	return median(per)
}

// allocsOf runs fn n times and returns mallocs and bytes per call.
func allocsOf(n int, fn func(i int)) (allocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// engineOn builds a fresh array + engine + allocation for the spec.
func engineOn(spec fieldSpec) (*ndarray.Array, *core.Engine, *registry.Allocation, error) {
	arr, err := spec.newArray()
	if err != nil {
		return nil, nil, nil, err
	}
	eng := core.NewEngine(spec.opts)
	return arr, eng, eng.Protect(spec.alloc, arr, spec.dtype, spec.policy), nil
}

// ladderOut is everything the ladder measured, keyed by per-layer metric.
type ladderOut struct {
	metrics map[string]float64
	// comparable is the ladder figure to hold against the workload's own
	// recover_p50_us, in microseconds.
	comparable float64
	// httpTail is the sorted HTTP-depth latency sample at the workload's
	// client count: the tail a library workload would see behind the server.
	httpTail []float64
}

// ladderEvents sizes the ladder: how many of the workload's events fit the
// budget when some ten laps are run over them, judged by the engine's cost on
// a few. The cheapest of the few counts — the first recovery on a fresh
// engine also pays the lazy build of the array-wide statistics.
func ladderEvents(ls ladderSpec, ctx *runCtx, budget time.Duration) (int, error) {
	n := len(ls.offsets)
	if ctx.smoke && n > 8 {
		return 8, nil
	}
	_, eng, alloc, err := engineOn(ls.field)
	if err != nil {
		return 0, err
	}
	per := time.Duration(math.MaxInt64)
	for _, off := range ls.offsets[:min(4, n)] {
		t0 := time.Now()
		if _, err := eng.RecoverAddress(alloc.AddrOf(off)); err != nil {
			return 0, fmt.Errorf("ladder sizing: %w", err)
		}
		per = min(per, time.Since(t0))
	}
	fit := int(budget / (10 * (per + 200*time.Microsecond)))
	return min(n, max(16, min(fit, 512))), nil
}

// runLadder replays the workload's first events at every depth.
func runLadder(ls ladderSpec, ctx *runCtx, budget time.Duration, spans *spanLog) (*ladderOut, error) {
	out := &ladderOut{metrics: map[string]float64{}}
	m := out.metrics
	spec := ls.field
	dir, err := os.MkdirTemp(ctx.scratch, "ladder-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	n, err := ladderEvents(ls, ctx, budget)
	if err != nil {
		return nil, err
	}
	offs := ls.offsets[:n]

	// --- depth 0/1/2: kernel, NewEnv, tuner (internal/predict, autotune) ---
	arr, eng, alloc, err := engineOn(spec)
	if err != nil {
		return nil, err
	}
	shared := predict.NewSharedStats(arr)
	idxs := make([][]int, n)
	methods := make([]predict.Method, n)
	cfg := spec.opts.Tune
	if cfg.K <= 0 {
		cfg.K = 3
	}
	if cfg.Tolerance <= 0 {
		cfg.Tolerance = 0.01
	}
	tuneEnv := predict.NewEnv(arr, spec.opts.Seed)
	tuneEnv.SetShared(shared)
	var selectNS []float64
	probes := 0.0
	for i, off := range offs {
		idxs[i] = arr.Coords(off)
		methods[i] = spec.policy.Method
		sp := spans.begin("autotune.select", uint64(i), 0)
		t0 := time.Now()
		res, err := autotune.Select(tuneEnv, idxs[i], cfg)
		selectNS = append(selectNS, float64(time.Since(t0)))
		sp.end()
		if err != nil {
			continue
		}
		for _, sc := range res.Scores {
			probes += float64(sc.Probes)
		}
		if spec.policy.Any {
			methods[i] = res.Best
		}
	}
	m["autotune.select_ns"] = median(selectNS)
	m["autotune.probes_per_select"] = probes / float64(n)

	cache := autotune.NewCache(0)
	for i := range offs {
		_, _, _ = cache.Select(tuneEnv, idxs[i], cfg) // fill
	}
	m["autotune.cache_select_ns"] = ctx.perCallNS(20*time.Millisecond, 64, func(i int) {
		_, _, _ = cache.Select(tuneEnv, idxs[i%n], cfg)
	})

	kernelEnv := predict.NewEnv(arr, spec.opts.Seed)
	kernelEnv.SetShared(shared)
	predictors := make([]predict.Predictor, n)
	for i := range predictors {
		predictors[i] = predict.New(methods[i])
	}
	ksp := spans.begin("predict.kernel[pass]", 0, 0)
	m["predict.kernel_ns"] = ctx.perCallNS(20*time.Millisecond, 4*n, func(i int) {
		_, _ = predictors[i%n].Predict(kernelEnv, idxs[i%n])
	})
	ksp.end()
	never := func(int) bool { return false }
	newEnv := func(i int) {
		env := predict.NewEnv(arr, spec.opts.Seed^int64(i))
		env.SetMaskFunc(never)
		env.SetShared(shared)
		_, _ = predictors[i%n].Predict(env, idxs[i%n])
	}
	esp := spans.begin("predict.env_new[pass]", 0, 0)
	envPlusKernel := ctx.perCallNS(30*time.Millisecond, n, newEnv)
	esp.end()
	m["predict.env_new_ns"] = envPlusKernel - m["predict.kernel_ns"]
	m["predict.env_new_allocs"], m["predict.env_new_bytes"] = allocsOf(n, func(i int) {
		env := predict.NewEnv(arr, spec.opts.Seed^int64(i))
		env.SetMaskFunc(never)
		env.SetShared(shared)
	})

	// --- depth 3: engine (internal/core) ---
	// Every depth from here down runs the lap twice and records the second:
	// the first lap pays what a long-running system has long paid (lazy
	// statistics, pool and map growth, cold connections), and leaves every
	// site holding the value it will keep.
	var engineUS []float64
	for lap := 0; lap < 2; lap++ {
		for i, off := range offs {
			var sp openSpan
			if lap == 1 {
				sp = spans.begin("core.recover", uint64(i), 0)
			}
			t0 := time.Now()
			_, err := eng.RecoverAddress(alloc.AddrOf(off))
			d := time.Since(t0)
			sp.end()
			if err != nil {
				return nil, fmt.Errorf("ladder engine depth: offset %d: %w", off, err)
			}
			if lap == 1 {
				engineUS = append(engineUS, float64(d)/1e3)
			}
		}
	}
	m["core.recover_ns"] = 1e3 * median(engineUS)
	m["core.recover_allocs"], m["core.recover_bytes"] = allocsOf(n, func(i int) {
		_, _ = eng.RecoverAddress(alloc.AddrOf(offs[i]))
	})
	tune := 0.0
	if spec.policy.Any {
		tune = m["autotune.select_ns"]
		if spec.opts.TuneCacheBlock > 0 {
			tune = m["autotune.cache_select_ns"]
		}
	}
	m["core.recover_self_ns"] = m["core.recover_ns"] - envPlusKernel - tune
	out.comparable = median(engineUS)

	// Engine-side probes that want an engine with history.
	rsp := ctx.timeBudget(10*time.Millisecond, 3, func(int) { _ = eng.SpatialReport(arr) })
	m["spatial.report_us"] = median(rsp) / 1e3
	m["core.quarantine_mark_ns"] = ctx.perCallNS(10*time.Millisecond, 64, func(i int) {
		eng.MarkCorrupt(alloc, offs[i%n])
		eng.ClearCorrupt(alloc, offs[i%n])
	})
	fu := ctx.timeBudget(20*time.Millisecond, 3, func(int) { eng.FieldUpdated(arr) })
	m["core.field_updated_ms"] = median(fu) / 1e6
	m["registry.lookup_ns"] = ctx.perCallNS(10*time.Millisecond, 256, func(i int) {
		_, _, _ = eng.Table().Lookup(alloc.AddrOf(offs[i%n]))
	})
	m["registry.verify_descriptor_ns"] = ctx.perCallNS(10*time.Millisecond, 16, func(int) {
		_ = eng.Table().VerifyDescriptor(alloc)
	})
	// RecoverBatch of 16 pre-quarantined members, as the service calls it.
	batch := offs
	if len(batch) > 16 {
		batch = batch[:16]
	}
	bt := ctx.timeBudget(20*time.Millisecond, 3, func(int) {
		for _, off := range batch {
			eng.MarkCorrupt(alloc, off)
		}
		_ = eng.RecoverBatch(context.Background(), alloc, batch)
	})
	m["core.batch16_member_ns"] = median(bt) / float64(len(batch))
	// One cache-line wipe through RecoverBurst.
	burstUS, err := probeBurst(spec, offs, dir)
	if err != nil {
		return nil, err
	}
	m["core.burst_cell_ns"] = 1e3 * burstUS / rowWipeSpan
	if ls.kind == ladderBurst {
		out.comparable = burstUS
	}

	// --- depth 4/5: service without and with journal (internal/service) ---
	svcUS, _, err := serviceDepth(spec, offs, "", spans, "service.submit")
	if err != nil {
		return nil, err
	}
	jpath := filepath.Join(dir, "svc-journal.jsonl")
	svcJournalUS, jbytes, err := serviceDepth(spec, offs, jpath, spans, "service.submit_journaled")
	if err != nil {
		return nil, err
	}
	m["service.submit_to_outcome_us"] = median(svcUS)
	m["service.self_us"] = median(svcUS) - median(engineUS)
	m["service.journal_tax_us"] = median(svcJournalUS) - median(svcUS)
	m["journal.bytes_per_recovery"] = jbytes / float64(2*n) // two laps

	// --- depth 6: HTTP (internal/httpapi + client) ---
	trials := make([]faultinject.Trial, n)
	for i, off := range offs {
		trials[i] = faultinject.Trial{Offset: off}
	}
	httpOut, err := httpDepth(ls, trials, ctx, dir, spans)
	if err != nil {
		return nil, err
	}
	for k, v := range httpOut.metrics {
		m[k] = v
	}
	out.httpTail = sortedCopy(httpOut.allClientsUS)
	m["httpapi.recover_us"] = median(httpOut.oneClientUS)
	m["httpapi.self_us"] = median(httpOut.oneClientUS) - median(svcJournalUS)
	switch ls.kind {
	case ladderHTTP:
		out.comparable = median(httpOut.allClientsUS)
	case ladderStorm:
		out.comparable = median(httpOut.stormEventUS)
	}

	// --- depth 7: two-node cluster (internal/cluster) ---
	pairOut, err := pairDepth(ls, trials, ctx, dir, spans)
	if err != nil {
		return nil, err
	}
	for k, v := range pairOut.metrics {
		m[k] = v
	}
	m["cluster.recover_us"] = median(pairOut.ownerUS)
	m["cluster.repl_tax_us"] = median(pairOut.ownerUS) - median(httpOut.oneClientUS)
	m["cluster.forward_rtt_us"] = median(pairOut.forwardUS) - median(pairOut.ownerUS)
	if ls.kind == ladderPair {
		out.comparable = median(pairOut.concurrentUS)
	}
	return out, nil
}

// probeBurst times RecoverBurst on aligned 16-cell wipes at the ladder's
// sites, with an L1 checkpoint attached, and returns the median call in
// microseconds. It also measures the checkpoint library (fti.*) on the way.
func probeBurst(spec fieldSpec, offs []int, dir string) (float64, error) {
	arr, eng, alloc, err := buildRowWipeEngine(spec, filepath.Join(dir, "burst-fti"))
	if err != nil {
		return 0, err
	}
	var us []float64
	for i, off := range offs {
		if i >= 32 {
			break
		}
		start := off - off%rowWipeSpan
		if start+rowWipeSpan > arr.Len() {
			continue
		}
		cells := make([]int, rowWipeSpan)
		for k := range cells {
			cells[k] = start + k
		}
		keep := append([]float64(nil), arr.Data()[start:start+rowWipeSpan]...)
		for _, c := range cells {
			arr.SetOffset(c, math.NaN())
		}
		t0 := time.Now()
		_, err := eng.RecoverBurst(alloc, cells)
		us = append(us, float64(time.Since(t0))/1e3)
		copy(arr.Data()[start:], keep)
		if err != nil {
			return 0, fmt.Errorf("burst probe at %d: %w", start, err)
		}
	}
	return median(us), nil
}

// serviceDepth submits every offset to a fresh service (journaled when
// journalPath is set) one at a time and returns submit-to-outcome
// microseconds per event and the journal's size in bytes.
func serviceDepth(spec fieldSpec, offs []int, journalPath string, spans *spanLog, spanName string) ([]float64, float64, error) {
	_, eng, alloc, err := engineOn(spec)
	if err != nil {
		return nil, 0, err
	}
	outcomes := make(chan service.Result, 1)
	svc, err := service.New(eng, service.Config{
		Workers: 4, QueueDepth: 64, BatchMax: 16, Deadline: 2 * time.Second,
		JournalPath: journalPath, Seed: spec.opts.Seed,
		OnOutcome: func(r service.Result) { outcomes <- r },
	})
	if err != nil {
		return nil, 0, err
	}
	svc.Start()
	var us []float64
	for lap := 0; lap < 2; lap++ { // second lap recorded, as at the engine depth
		for i, off := range offs {
			var sp openSpan
			if lap == 1 {
				sp = spans.begin(spanName, uint64(i), 0)
			}
			t0 := time.Now()
			if err := svc.SubmitAddress(alloc.AddrOf(off)); err != nil {
				_ = svc.Close()
				return nil, 0, fmt.Errorf("service depth: submit %d: %w", off, err)
			}
			r := <-outcomes
			d := time.Since(t0)
			sp.end()
			if r.Err != nil {
				_ = svc.Close()
				return nil, 0, fmt.Errorf("service depth: offset %d: %w", off, r.Err)
			}
			if lap == 1 {
				us = append(us, float64(d)/1e3)
			}
		}
	}
	if err := svc.Close(); err != nil {
		return nil, 0, err
	}
	size := 0.0
	if journalPath != "" {
		if st, err := os.Stat(journalPath); err == nil {
			size = float64(st.Size())
		}
	}
	return us, size, nil
}

// microProbes measures the calls a recovery pays once, outside any engine.
func microProbes(ls ladderSpec, ctx *runCtx) (map[string]float64, error) {
	m := map[string]float64{}
	dir, err := os.MkdirTemp(ctx.scratch, "probes-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// internal/spatial
	an := spatial.New(64, 0)
	m["spatial.accumulate_ns"] = ctx.perCallNS(10*time.Millisecond, 1024, func(i int) {
		an.Accumulate(i&63, 0.001, 0, 0, predict.MethodLorenzo1, true)
	})
	// internal/trace: the cycle the engine runs per recovery.
	col := trace.NewCollector(0)
	m["trace.span_cycle_ns"] = ctx.perCallNS(10*time.Millisecond, 256, func(int) {
		tr := trace.GetPooled()
		clk := tr.Born()
		clk = tr.ObserveSince(trace.StageStripeWait, clk)
		clk = tr.ObserveSince(trace.StageProvisional, clk)
		clk = tr.ObserveSince(trace.StagePredictPrimary, clk)
		tr.ObserveSince(trace.StageVerifyPrimary, clk)
		col.Finish(tr)
		trace.Recycle(tr)
	})
	// internal/mca
	machine := mca.New(8)
	machine.Handle(func(mca.Event) error { return nil })
	m["mca.raise_ns"] = ctx.perCallNS(10*time.Millisecond, 256, func(i int) {
		_ = machine.RaiseMemoryDUE(uint64(0x1000+8*i), i&31)
	})
	// internal/journal
	for _, j := range []struct {
		name  string
		sync  bool
		iters int
	}{{"journal.append_pair_us", false, 500}, {"journal.append_pair_fsync_us", true, 10}} {
		jr, _, err := journal.OpenRecovery(filepath.Join(dir, j.name+".jsonl"), j.sync)
		if err != nil {
			return nil, err
		}
		iters := j.iters
		if ctx.smoke {
			iters = 3
		}
		ns := ctx.timeBudget(0, iters, func(i int) {
			id, err := jr.Begin("tenant", "field", uint64(0x1000+4*i), i, 1.5)
			if err == nil {
				_ = jr.FinishValue(id, true, "method=Lorenzo 1-Layer stage=primary", math.Float64bits(1.25))
			}
		})
		_ = jr.Close()
		m[j.name] = median(ns) / 1e3
	}
	// internal/ndarray/mmapstore: an 8 MiB field file.
	elements := ctx.fieldSide() * ctx.fieldSide()
	var openNS, sealNS []float64
	for rep := 0; rep < 3; rep++ {
		path := filepath.Join(dir, fmt.Sprintf("probe-%d.field", rep))
		t0 := time.Now()
		st, err := mmapstore.OpenOrCreate(path, elements)
		if err != nil {
			return nil, err
		}
		vals := st.Slice()
		for i := 0; i < len(vals); i += 512 { // one store per 4 KiB page
			vals[i] = float64(i)
		}
		openNS = append(openNS, float64(time.Since(t0)))
		t0 = time.Now()
		if err := st.Seal(); err != nil {
			return nil, err
		}
		sealNS = append(sealNS, float64(time.Since(t0)))
		if err := st.Remove(); err != nil {
			return nil, err
		}
	}
	m["mmapstore.open_ms"] = median(openNS) / 1e6
	m["mmapstore.seal_ms"] = median(sealNS) / 1e6

	// internal/fti on the workload's field.
	arr, err := ls.field.newArray()
	if err != nil {
		return nil, err
	}
	world, err := fti.NewWorld(filepath.Join(dir, "fti"), 1)
	if err != nil {
		return nil, err
	}
	if err := world.Rank(0).Protect(0, ls.field.alloc, arr, ls.field.dtype, fti.RecoveryPolicy{Method: predict.MethodLorenzo1}); err != nil {
		return nil, err
	}
	var ckNS []float64
	for id := 1; id <= 3; id++ {
		t0 := time.Now()
		if err := world.Checkpoint(id, fti.L1); err != nil {
			return nil, err
		}
		ckNS = append(ckNS, float64(time.Since(t0)))
	}
	m["fti.checkpoint_l1_ms"] = median(ckNS) / 1e6
	rs := ctx.timeBudget(10*time.Millisecond, 3, func(i int) {
		_, _ = world.RestoreElement(0, arr, ls.offsets[i%len(ls.offsets)])
	})
	m["fti.restore_element_us"] = median(rs) / 1e3

	// dataset generation
	if ls.generate != nil {
		g := ctx.timeBudget(0, 2, func(int) { ls.generate() })
		m["sdrbench.generate_ms"] = median(g) / 1e6
	}
	return m, nil
}

// runTraced is the --trace 1 run.
func runTraced(w workloadDef, ctx *runCtx) (*runResult, error) {
	inst, err := w.setup(ctx)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	closed := false
	defer func() {
		if !closed {
			inst.close()
		}
	}()
	res := &runResult{Metrics: map[string]metricValue{}, Windows: map[string][]float64{}}

	// The quality plan runs first, as in the end-to-end run, so the traced
	// workload sees the same system state (a warm tune cache on http_storm).
	recs, err := inst.quality()
	if err != nil {
		return nil, fmt.Errorf("quality pass: %w", err)
	}
	for _, r := range recs {
		res.Attempted++
		if !r.ok {
			res.Failed++
		}
	}

	// Part 1: the workload, untraced then traced.
	part := ctx.seconds * 0.25
	plainRun := runTimed(inst, part, nil)
	tracedRun := runTimed(inst, part, ctx.spans)
	plain, tser := plainRun.series(), tracedRun.series()
	res.Attempted += plain.tried + tser.tried
	res.Failed += (plain.tried - plain.done) + (tser.tried - tser.done)
	if plain.done == 0 || tser.done == 0 {
		return res, fmt.Errorf("no recovery completed in the traced workload run (%d untraced, %d traced)", plain.done, tser.done)
	}
	m := map[string]float64{}
	// Whole-phase rates, not window medians: the two phases are short, and
	// a slow workload leaves some of their windows empty.
	rate := func(done int, d usageDelta) float64 { return float64(done) / d.wall.Seconds() }
	m["bench.trace_overhead_pct"] = 100 * (rate(plain.done, plainRun.total)/rate(tser.done, tracedRun.total) - 1)
	tailOf := tracedRun.allLatencies() // replaced by the ladder's HTTP depth for library workloads
	m["runtime.gc_cycles"] = float64(tracedRun.total.gcs)
	m["runtime.gc_pause_ms"] = float64(tracedRun.total.gcPause) / 1e6
	workloadP50 := percentile(tailOf, 0.5)

	counters := inst.counters()
	invariants := inst.finish()
	for _, e := range invariants {
		res.Notes = append(res.Notes, "invariant: "+e.Error())
	}
	res.Failed += len(invariants)
	ls := inst.ladder()
	workloadSpans := ctx.spans
	inst.close()
	closed = true

	// Part 2: the ladder, on its own span log so the workload's spans of
	// the same name (httpapi.ingest, ...) stay separable.
	ladderSpans := newSpanLog()
	lo, err := runLadder(ls, ctx, time.Duration(ctx.seconds*0.3*float64(time.Second)), ladderSpans)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	for k, v := range lo.metrics {
		m[k] = v
	}
	if ls.kind == ladderEngine || ls.kind == ladderBurst {
		tailOf = lo.httpTail
	}
	m["httpapi.recover_p99_us"] = percentile(tailOf, 0.99)
	m["httpapi.recover_p999_us"] = percentile(tailOf, 0.999)
	// Part 3: micro-probes.
	probes, err := microProbes(ls, ctx)
	if err != nil {
		return nil, fmt.Errorf("micro-probes: %w", err)
	}
	for k, v := range probes {
		m[k] = v
	}
	// The workload's own counters win over the ladder's where both exist:
	// they describe the layer under the workload's load.
	for k, v := range counters {
		m[k] = v
	}

	// Where the workload itself talks HTTP, its own spans (taken under its
	// own load) replace the ladder's idle-server figures.
	if d := sortedCopy(workloadSpans.durationsUS("httpapi.ingest")); len(d) > 0 {
		m["httpapi.ingest_p50_us"] = percentile(d, 0.5)
		m["httpapi.ingest_p99_us"] = percentile(d, 0.99)
	}
	if d := workloadSpans.durationsUS("httpapi.outcomes_poll"); len(d) > 0 {
		m["httpapi.outcomes_poll_us"] = median(d)
	}
	if d := workloadSpans.durationsUS("httpapi.ingest_batch"); len(d) > 0 {
		m["httpapi.stream_line_us"] = median(d) / stormBatch
	}
	if up := tracedRun.sides("upload_ms"); len(up) > 0 {
		mib := float64(ctx.fieldSide()*ctx.fieldSide()*8) / (1 << 20)
		down := tracedRun.sides("download_ms")
		m["httpapi.upload_ms"] = median(up)
		m["httpapi.upload_mb_per_s"] = mib / (median(up) / 1e3)
		if len(down) > 0 {
			m["httpapi.download_ms"] = median(down)
			m["httpapi.download_mb_per_s"] = mib / (median(down) / 1e3)
		}
	}
	m["httpapi.wire_bytes_per_event"] = wireBytesPerEvent(ls, ls.kind == ladderStorm)
	m["bench.spans"] = float64(workloadSpans.count() + ladderSpans.count())
	m["bench.workload_p50_us"] = workloadP50
	m["bench.ladder_p50_us"] = lo.comparable
	if workloadP50 > 0 {
		m["bench.tax_explained_pct"] = 100 * lo.comparable / workloadP50
	}
	// Hand the ladder's spans to the run's log so -trace-out holds both.
	ctx.spans.absorb(ladderSpans)

	for _, def := range perLayer {
		v, ok := m[def.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("per-layer metric %s was not measured", def.Name)
		}
		res.Metrics[def.Name] = metricValue{Value: v, Unit: def.Unit}
	}
	var extra []string
	for k := range m {
		if _, ok := res.Metrics[k]; !ok {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		return res, fmt.Errorf("measured but not in the catalogue: %v", extra)
	}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// wireBytesPerEvent is the request-body size of one reported DUE on the
// workload's ingest path: a JSON object per POST /v1/events, or a JSON line
// (object plus newline) per NDJSON member.
func wireBytesPerEvent(ls ladderSpec, ndjson bool) float64 {
	total := 0
	for i := range ls.offsets {
		off := ls.offsets[i]
		b, err := json.Marshal(httpapi.EventRequest{Alloc: ls.field.alloc, Offset: &off, Bit: i & 31})
		if err != nil {
			return 0
		}
		total += len(b)
		if ndjson {
			total++
		}
	}
	return float64(total) / float64(len(ls.offsets))
}
