package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/core"
	"spatialdue/internal/faultinject"
	"spatialdue/internal/fti"
	"spatialdue/internal/ndarray"
	"spatialdue/internal/predict"
	"spatialdue/internal/registry"
	"spatialdue/internal/sdrbench"
)

// fieldSpec describes one protected field and the engine configuration the
// system under test runs it with. The same spec builds the system under
// test, the reference engine of the oracle, and every depth of the traced
// ladder, so all three see identical bytes.
type fieldSpec struct {
	alloc  string
	dims   []int
	dtype  bitflip.DType
	policy registry.Policy
	opts   core.Options
	// pristine is the field before any fault. Read-only: everything that
	// mutates works on a copy (newArray).
	pristine []float64
}

// newArray materializes a fresh heap copy of the field.
func (s fieldSpec) newArray() (*ndarray.Array, error) {
	return ndarray.FromData(append([]float64(nil), s.pristine...), s.dims...)
}

func relErr(want, got float64) float64 { return bitflip.RelErr(want, got) }

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// datasetSpec wraps a generated SDRBench stand-in as a fieldSpec.
func datasetSpec(ds *sdrbench.Dataset, policy registry.Policy, opts core.Options) fieldSpec {
	return fieldSpec{
		alloc: ds.Name, dims: ds.Array.Dims(), dtype: ds.DType, policy: policy, opts: opts,
		pristine: ds.Array.Data(),
	}
}

// referenceElements is the oracle for single-element workloads: a fresh
// in-process engine recovers the same elements of the same field in the
// same order. flip selects the library protocol (real bit flip before,
// pristine value restored after each recovery); the networked workloads
// report DUEs by offset and leave the reconstruction in place, and so does
// the reference when flip is false.
func referenceElements(spec fieldSpec, trials []faultinject.Trial, flip bool) ([]float64, error) {
	arr, err := spec.newArray()
	if err != nil {
		return nil, err
	}
	eng := core.NewEngine(spec.opts)
	alloc := eng.Protect(spec.alloc, arr, spec.dtype, spec.policy)
	out := make([]float64, len(trials))
	for i, t := range trials {
		if flip {
			faultinject.Apply(arr, t)
		}
		o, err := eng.RecoverElement(alloc, t.Offset)
		if err != nil {
			return nil, fmt.Errorf("reference engine: offset %d: %w", t.Offset, err)
		}
		out[i] = o.New
		if flip {
			faultinject.Revert(arr, t)
		}
	}
	return out, nil
}

// --- lib_fixed / lib_any ---------------------------------------------------

// libElement is the in-process single-element workload: one goroutine
// flips a real bit in the protected array, calls Engine.RecoverAddress the
// way an MCE handler would, and puts the pristine value back so the field
// never drifts.
type libElement struct {
	spec   fieldSpec
	arr    *ndarray.Array
	eng    *core.Engine
	alloc  *registry.Allocation
	trials []faultinject.Trial
	plan   libPlan
}

// libPlan names a dataset and how densely to sample it.
type libPlan struct {
	app          sdrbench.App
	name         string
	policy       registry.Policy
	grid, jitter []int // stratification of the site set
	smokeGrid    []int
}

func setupLibElement(ctx *runCtx, p libPlan) (*libElement, error) {
	ds := sdrbench.Generate(p.app, p.name, sdrbench.ScaleSmall)
	spec := datasetSpec(ds, p.policy, core.Options{Seed: ctx.seed})
	arr, err := spec.newArray()
	if err != nil {
		return nil, err
	}
	eng := core.NewEngine(spec.opts)
	alloc := eng.Protect(spec.alloc, arr, spec.dtype, spec.policy)
	grid := p.grid
	if ctx.smoke {
		grid = p.smokeGrid
	}
	rng := rand.New(rand.NewSource(subSeed(ctx.seed, "sites/"+p.name)))
	sites := stratifiedSites(rng, spec.dims, wholeArray(spec.dims), grid, p.jitter)
	trials := planFlips(rng, arr, spec.dtype, sites)
	return &libElement{spec: spec, arr: arr, eng: eng, alloc: alloc, trials: trials, plan: p}, nil
}

func (l *libElement) clients() int { return 1 }

// recoverOne is the measured call: flip, recover by address, restore.
func (l *libElement) recoverOne(t faultinject.Trial) (core.Outcome, time.Duration, error) {
	faultinject.Apply(l.arr, t)
	addr := l.alloc.AddrOf(t.Offset)
	t0 := time.Now()
	out, err := l.eng.RecoverAddress(addr)
	d := time.Since(t0)
	if err == nil && (l.arr.AtOffset(t.Offset) != out.New || !isFinite(out.New) || out.Offset != t.Offset) {
		err = fmt.Errorf("offset %d: recovery reported %v but the array holds %v", t.Offset, out.New, l.arr.AtOffset(t.Offset))
	}
	faultinject.Revert(l.arr, t)
	return out, d, err
}

func (l *libElement) quality() ([]recoveryRecord, error) {
	recs := make([]recoveryRecord, 0, len(l.trials))
	for _, t := range l.trials {
		out, _, err := l.recoverOne(t)
		recs = append(recs, recoveryRecord{
			offset: t.Offset, want: t.Orig, got: out.New,
			stage: out.Stage.String(), method: out.Method.String(), ok: err == nil,
		})
	}
	return recs, nil
}

func (l *libElement) reference() ([]float64, error) {
	return referenceElements(l.spec, l.trials, true)
}

func (l *libElement) op(_, i int, rec *clientLog) (int, int) {
	t := l.trials[i%len(l.trials)]
	sp := rec.begin("core.recover_address", uint64(i), 0)
	_, d, err := l.recoverOne(t)
	rec.end(sp)
	if err != nil {
		return 0, 1
	}
	rec.add(d)
	return 1, 1
}

func (l *libElement) finish() []error {
	var errs []error
	if n := l.eng.QuarantineCount(); n != 0 {
		errs = append(errs, fmt.Errorf("%d cells left quarantined", n))
	}
	return errs
}

func (l *libElement) counters() map[string]float64 { return engineCounters(l.eng) }

func (l *libElement) ladder() ladderSpec {
	return ladderSpec{field: l.spec, offsets: offsetsOf(l.trials), kind: ladderEngine,
		generate: func() { sdrbench.Generate(l.plan.app, l.plan.name, sdrbench.ScaleSmall) }}
}

func (l *libElement) close() {}

// --- lib_rowwipe -----------------------------------------------------------

// rowWipeSpan is one cache line of float32 elements.
const rowWipeSpan = 16

// libRowWipe drives Engine.RecoverBurst with cache-line-shaped wipes, with
// an L1 checkpoint attached so the escalation ladder has its restore rung.
type libRowWipe struct {
	spec  fieldSpec
	arr   *ndarray.Array
	eng   *core.Engine
	alloc *registry.Allocation
	wipes []faultinject.StructuredTrial
	dir   string
}

// buildRowWipeEngine assembles engine + checkpoint world over a fresh copy
// of the field; the instance and its oracle are built the same way.
func buildRowWipeEngine(spec fieldSpec, dir string) (*ndarray.Array, *core.Engine, *registry.Allocation, error) {
	arr, err := spec.newArray()
	if err != nil {
		return nil, nil, nil, err
	}
	eng := core.NewEngine(spec.opts)
	alloc := eng.Protect(spec.alloc, arr, spec.dtype, spec.policy)
	world, err := fti.NewWorld(dir, 1)
	if err != nil {
		return nil, nil, nil, err
	}
	pol := fti.RecoveryPolicy{Any: spec.policy.Any, Method: spec.policy.Method}
	if err := world.Rank(0).Protect(0, spec.alloc, arr, spec.dtype, pol); err != nil {
		return nil, nil, nil, err
	}
	if err := world.Checkpoint(1, fti.L1); err != nil {
		return nil, nil, nil, err
	}
	eng.AttachCheckpoints(world, 0)
	return arr, eng, alloc, nil
}

func setupLibRowWipe(ctx *runCtx) (*libRowWipe, error) {
	ds := sdrbench.Generate(sdrbench.CESM, "FLDS", sdrbench.ScaleSmall)
	spec := datasetSpec(ds, registry.RecoverWith(predict.MethodLorenzo1), core.Options{Seed: ctx.seed})
	dir, err := os.MkdirTemp(ctx.scratch, "rowwipe-")
	if err != nil {
		return nil, err
	}
	arr, eng, alloc, err := buildRowWipeEngine(spec, filepath.Join(dir, "fti"))
	if err != nil {
		return nil, err
	}
	// Every aligned slot of the field is wiped once per lap (1012 wipes,
	// about 0.6 s): like lib_fixed, the quality pass grades the same cells
	// for every seed.
	n := arr.Len() / rowWipeSpan
	if ctx.smoke {
		n = 16
	}
	rng := rand.New(rand.NewSource(subSeed(ctx.seed, "wipes")))
	wipes := planRowWipes(rng, arr, spec.dtype, n, rowWipeSpan)
	return &libRowWipe{spec: spec, arr: arr, eng: eng, alloc: alloc, wipes: wipes, dir: dir}, nil
}

func (l *libRowWipe) clients() int { return 1 }

// wipeOnce applies one wipe to arr, recovers it through eng, and restores
// the pristine cells. It returns the burst outcome and the call duration.
func wipeOnce(arr *ndarray.Array, eng *core.Engine, alloc *registry.Allocation, w faultinject.StructuredTrial) (core.BurstOutcome, time.Duration, error) {
	faultinject.ApplyStructured(arr, w)
	offs := w.Offsets()
	t0 := time.Now()
	out, err := eng.RecoverBurst(alloc, offs)
	d := time.Since(t0)
	faultinject.RevertStructured(arr, w)
	return out, d, err
}

func (l *libRowWipe) quality() ([]recoveryRecord, error) {
	var recs []recoveryRecord
	for _, w := range l.wipes {
		out, _, err := wipeOnce(l.arr, l.eng, l.alloc, w)
		// The engine's audit trail names the ladder rung that produced each
		// cell of the burst it just finished (the newest entries).
		stages := map[int]string{}
		audit := l.eng.Audit()
		for k := len(audit) - 1; k >= 0 && len(stages) < len(w.Cells); k-- {
			if e := audit[k]; e.OK {
				if _, seen := stages[e.Offset]; !seen {
					stages[e.Offset] = e.Stage.String()
				}
			}
		}
		for k, c := range w.Cells {
			st, ok := stages[c.Offset]
			r := recoveryRecord{offset: c.Offset, want: c.Orig, stage: st, method: out.Method.String(), ok: ok}
			if k < len(out.New) {
				r.got = out.New[k]
			}
			if err != nil && !ok {
				r.ok = false
			}
			recs = append(recs, r)
		}
	}
	return recs, nil
}

func (l *libRowWipe) reference() ([]float64, error) {
	dir, err := os.MkdirTemp(l.dir, "oracle-")
	if err != nil {
		return nil, err
	}
	arr, eng, alloc, err := buildRowWipeEngine(l.spec, dir)
	if err != nil {
		return nil, err
	}
	var vals []float64
	for _, w := range l.wipes {
		out, _, _ := wipeOnce(arr, eng, alloc, w)
		vals = append(vals, out.New...)
	}
	return vals, nil
}

func (l *libRowWipe) op(_, i int, rec *clientLog) (int, int) {
	w := l.wipes[i%len(l.wipes)]
	sp := rec.begin("core.recover_burst", uint64(i), 0)
	out, d, err := wipeOnce(l.arr, l.eng, l.alloc, w)
	rec.end(sp)
	n := len(w.Cells)
	if err != nil {
		return 0, n
	}
	for _, v := range out.New {
		if !isFinite(v) {
			return 0, n
		}
	}
	// One latency sample per burst call; throughput is counted in cells.
	rec.add(d)
	return n, n
}

func (l *libRowWipe) finish() []error {
	var errs []error
	if n := l.eng.QuarantineCount(); n != 0 {
		errs = append(errs, fmt.Errorf("%d cells left quarantined", n))
	}
	return errs
}

func (l *libRowWipe) counters() map[string]float64 { return engineCounters(l.eng) }

func (l *libRowWipe) ladder() ladderSpec {
	offs := make([]int, len(l.wipes))
	for i, w := range l.wipes {
		offs[i] = w.Cells[0].Offset
	}
	return ladderSpec{field: l.spec, offsets: offs, kind: ladderBurst,
		generate: func() { sdrbench.Generate(sdrbench.CESM, "FLDS", sdrbench.ScaleSmall) }}
}

func (l *libRowWipe) close() { _ = os.RemoveAll(l.dir) }

// libFixedPlan: every one of the 90x180 field's 16200 cells is a site, in
// seed-shuffled order. At 15 us a recovery the full lap costs a quarter of a
// second, and it makes the quality pass exact: every seed grades the same
// cells, only order and flipped bits differ.
var libFixedPlan = libPlan{
	app: sdrbench.CESM, name: "FLDS", policy: registry.RecoverWith(predict.MethodLorenzo1),
	grid: []int{90, 180}, jitter: []int{0, 0}, smokeGrid: []int{6, 8},
}

// libAnyPlan: 400 sites, one per 5x5x5 cell of the 20x50x50 field.
var libAnyPlan = libPlan{
	app: sdrbench.Isabel, name: "Pf48", policy: registry.RecoverAny(),
	grid: []int{4, 10, 10}, jitter: []int{0, 0, 0}, smokeGrid: []int{2, 3, 3},
}
