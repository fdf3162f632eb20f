package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"spatialdue/internal/autotune"
	"spatialdue/internal/bitflip"
	"spatialdue/internal/detect"
	"spatialdue/internal/fti"
	"spatialdue/internal/golden"
	"spatialdue/internal/ndarray"
	"spatialdue/internal/predict"
	"spatialdue/internal/registry"
	"spatialdue/internal/trace"
)

// pipelineGoldenPath is the record TestPipelineGolden compares against. It
// was generated before the recovery paths were collapsed onto one climb, so
// it pins the four old paths' observable behaviour bit for bit; only
// regenerate it (-update-golden) for a change that is meant to move array
// bits, outcomes, error strings, audit entries, seeds or span sets.
const pipelineGoldenPath = "testdata/pipeline_golden.json"

func bitsOf(v float64) string { return strconv.FormatUint(math.Float64bits(v), 16) }

type goldenOutcome struct {
	Alloc  string `json:"alloc,omitempty"`
	Offset int    `json:"offset"`
	Method int    `json:"method"`
	Tuned  bool   `json:"tuned,omitempty"`
	Stage  string `json:"stage,omitempty"`
	Old    string `json:"old,omitempty"`
	New    string `json:"new,omitempty"`
	Err    string `json:"err,omitempty"`
}

type goldenBurst struct {
	Method    int      `json:"method"`
	Tuned     bool     `json:"tuned"`
	Sweeps    int      `json:"sweeps"`
	Escalated int      `json:"escalated"`
	Old       []string `json:"old"`
	New       []string `json:"new"`
	Err       string   `json:"err,omitempty"`
}

type goldenAudit struct {
	Alloc  string `json:"alloc"`
	Offset int    `json:"offset"`
	Method int    `json:"method"`
	Tuned  bool   `json:"tuned,omitempty"`
	Stage  int    `json:"stage"`
	Old    string `json:"old"`
	New    string `json:"new"`
	OK     bool   `json:"ok"`
	Err    string `json:"err,omitempty"`
}

// goldenStep is one entry-point call: what it returned and the audit entries
// it appended (in ring order; sorted by offset for multi-cluster batches,
// whose clusters finish in scheduling order).
type goldenStep struct {
	Name     string          `json:"name"`
	Outcomes []goldenOutcome `json:"outcomes,omitempty"`
	Burst    *goldenBurst    `json:"burst,omitempty"`
	Spans    [][]string      `json:"spans,omitempty"` // caller-supplied traces' span stages
	Audit    []goldenAudit   `json:"audit"`
}

type goldenStripe struct {
	Stripe        int    `json:"stripe"`
	Recoveries    int64  `json:"recoveries"`
	Successes     int64  `json:"successes"`
	VerifyFails   int64  `json:"verify_fails"`
	EscalationSum int64  `json:"escalation_sum"`
	MeanResidual  string `json:"mean_residual"`
	Intensity     string `json:"intensity"`
	GStar         string `json:"g_star"`
	Heat          string `json:"heat"`
	BestMethod    string `json:"best_method,omitempty"`
}

type goldenSpatial struct {
	Stripes    int            `json:"stripes"`
	Recoveries int64          `json:"recoveries"`
	MoranI     string         `json:"moran_i"`
	GearyC     string         `json:"geary_c"`
	Defined    bool           `json:"defined"`
	HotZ       string         `json:"hot_z"`
	Hot        []int          `json:"hot,omitempty"`
	Local      []goldenStripe `json:"local"`
}

type goldenArray struct {
	SHA256  string            `json:"sha256"` // over every cell's Float64bits, big endian
	Touched map[string]string `json:"touched"`
}

type goldenRecord struct {
	Steps                   []goldenStep             `json:"steps"`
	MethodCountsBeforeBurst map[string]int64         `json:"method_counts_before_burst"`
	Stats                   Stats                    `json:"stats"`
	Escalations             map[string]int64         `json:"escalations"`
	TuneCache               autotune.CacheStats      `json:"tune_cache"`
	BatchCalls              int64                    `json:"batch_calls"`
	BatchMembers            int64                    `json:"batch_members"`
	StripeAcquisitions      int64                    `json:"stripe_acquisitions"`
	QuarantineCount         int                      `json:"quarantine_count"`
	Quarantined             map[string][]int         `json:"quarantined"`
	Spatial                 map[string]goldenSpatial `json:"spatial"`
	Arrays                  map[string]goldenArray   `json:"arrays"`
	Hook                    map[string][]string      `json:"hook"`
	TraceCounts             []string                 `json:"trace_counts"`
}

// pipelineScenario drives every engine entry point once, in a fixed order,
// under opts (plus a StageHook that records every stage entry and forces the
// two 1-D line allocations up the ladder).
type pipelineScenario struct {
	t      *testing.T
	eng    *Engine
	rec    goldenRecord
	arrays map[string]*ndarray.Array
	allocs map[string]*registry.Allocation
	seen   int // audit entries already attributed to a step

	mu   sync.Mutex // the hook runs on cluster goroutines
	hook map[string][]string
}

func goldenField(ny, nx int, phase float64) *ndarray.Array {
	a := ndarray.New(ny, nx)
	a.FillFunc(func(idx []int) float64 {
		return 30 + 5*math.Sin(float64(idx[0])/5+phase) + 3*math.Cos(float64(idx[1])/4)
	})
	return a
}

func goldenLine() *ndarray.Array {
	a := ndarray.New(3)
	a.SetOffset(0, 10)
	a.SetOffset(1, 20)
	a.SetOffset(2, 30)
	return a
}

func (s *pipelineScenario) protect(name, tenant string, a *ndarray.Array, p registry.Policy) *registry.Allocation {
	s.t.Helper()
	alloc, err := s.eng.ProtectTenant(tenant, name, a, bitflip.Float32, p)
	if err != nil {
		s.t.Fatal(err)
	}
	s.arrays[name], s.allocs[name] = a, alloc
	s.rec.Arrays[name] = goldenArray{Touched: map[string]string{}}
	return alloc
}

// corrupt overwrites the cells with v and remembers them as touched.
func (s *pipelineScenario) corrupt(name string, v float64, offs ...int) {
	for _, off := range offs {
		if off >= 0 && off < s.arrays[name].Len() {
			s.arrays[name].SetOffset(off, v)
			s.rec.Arrays[name].Touched[strconv.Itoa(off)] = ""
		}
	}
}

func (s *pipelineScenario) mark(name string, offs ...int) {
	for _, off := range offs {
		s.eng.MarkCorrupt(s.allocs[name], off)
	}
}

func outcomeOf(out Outcome, off int, err error) goldenOutcome {
	if err != nil {
		return goldenOutcome{Offset: off, Err: err.Error()}
	}
	g := goldenOutcome{Offset: out.Offset, Method: int(out.Method), Tuned: out.Tuned,
		Stage: out.Stage.String(), Old: bitsOf(out.Old), New: bitsOf(out.New)}
	if out.Allocation != nil {
		g.Alloc = out.Allocation.Name
	}
	return g
}

// step closes one entry-point call: it claims the audit entries appended
// since the previous step.
func (s *pipelineScenario) step(st goldenStep, concurrent bool) {
	log := s.eng.Audit()
	for _, e := range log[s.seen:] {
		st.Audit = append(st.Audit, goldenAudit{Alloc: e.Alloc, Offset: e.Offset, Method: int(e.Method),
			Tuned: e.Tuned, Stage: int(e.Stage), Old: bitsOf(e.Old), New: bitsOf(e.New), OK: e.OK, Err: e.Err})
	}
	s.seen = len(log)
	if concurrent {
		sort.SliceStable(st.Audit, func(i, j int) bool { return st.Audit[i].Offset < st.Audit[j].Offset })
	}
	s.rec.Steps = append(s.rec.Steps, st)
}

func (s *pipelineScenario) element(name, alloc string, off int) {
	out, err := s.eng.RecoverElement(s.allocs[alloc], off)
	s.step(goldenStep{Name: name, Outcomes: []goldenOutcome{outcomeOf(out, off, err)}}, false)
}

func (s *pipelineScenario) batch(name, alloc string, offs []int, traces []*trace.Trace) {
	st := goldenStep{Name: name}
	for _, r := range s.eng.RecoverBatch(context.Background(), s.allocs[alloc], offs, traces...) {
		st.Outcomes = append(st.Outcomes, outcomeOf(r.Outcome, r.Offset, r.Err))
	}
	for _, tr := range traces {
		var stages []string
		for _, sp := range tr.Spans() {
			stages = append(stages, sp.Stage)
		}
		st.Spans = append(st.Spans, stages)
	}
	s.step(st, true)
}

func (s *pipelineScenario) burst(name, alloc string, offs []int) {
	out, err := s.eng.RecoverBurst(s.allocs[alloc], offs)
	b := &goldenBurst{Method: int(out.Method), Tuned: out.Tuned, Sweeps: out.Sweeps, Escalated: out.Escalated}
	for i := range out.Old {
		b.Old = append(b.Old, bitsOf(out.Old[i]))
		b.New = append(b.New, bitsOf(out.New[i]))
	}
	if err != nil {
		b.Err = err.Error()
	}
	s.step(goldenStep{Name: name, Burst: b}, false)
}

func runPipelineScenario(t *testing.T, opts Options) goldenRecord {
	t.Helper()
	s := &pipelineScenario{t: t, arrays: map[string]*ndarray.Array{}, allocs: map[string]*registry.Allocation{},
		hook: map[string][]string{}}
	s.rec.Arrays = map[string]goldenArray{}

	// The hook records every stage entry per element (entries for one element
	// always come from serialized climbs, so their order is deterministic)
	// and, when a line allocation enters its primary rung, reports both
	// neighbours corrupt: nothing can predict the middle cell any more, so
	// the climb is forced to the restore rung (line, checkpointed) or to
	// exhaustion (lineb, not checkpointed).
	opts.StageHook = func(ev StageEvent) {
		cause := ""
		if ev.Err != nil {
			cause = ev.Err.Error()
		}
		key := ev.Alloc + "[" + strconv.Itoa(ev.Offset) + "]"
		s.mu.Lock()
		s.hook[key] = append(s.hook[key], ev.Stage.String()+" method="+strconv.Itoa(int(ev.Method))+" cause="+cause)
		s.mu.Unlock()
		if ev.Stage == StagePrimary && (ev.Alloc == "line" || ev.Alloc == "lineb") {
			s.mark(ev.Alloc, 0, 2)
		}
	}
	s.eng = NewEngine(opts)
	eng := s.eng

	fix := goldenField(48, 20, 0)
	fixA := s.protect("fix", "", fix, registry.RecoverWith(predict.MethodLorenzo1))
	anyF := goldenField(64, 24, 0.7)
	s.protect("any", "t1", anyF, registry.RecoverAny())
	rng := goldenField(32, 16, 1.3)
	s.protect("rng", "", rng, registry.RecoverWith(predict.MethodZero).WithRange(20, 40))
	mix := goldenField(32, 16, 0.2)
	s.protect("mix", "t1", mix, registry.RecoverWith(predict.MethodAverage).WithRange(20, 32.5))
	// A plateau field under a range that only admits its low half.
	step := ndarray.New(16, 16)
	step.FillFunc(func(idx []int) float64 {
		v := 10 + 0.1*float64(idx[0]) + 0.05*float64(idx[1])
		if idx[1] >= 8 {
			v += 40
		}
		return v
	})
	s.protect("step", "", step, registry.RecoverWith(predict.MethodAverage).WithRange(0, 30))
	// A 1-D ramp under a range that only admits its middle: cells above it
	// can never be repaired locally.
	ramp := ndarray.New(8)
	ramp.FillFunc(func(idx []int) float64 { return 10 * float64(idx[0]+1) })
	s.protect("ramp", "", ramp, registry.RecoverWith(predict.MethodAverage).WithRange(35, 45))
	line, lineb := goldenLine(), goldenLine()
	s.protect("line", "", line, registry.RecoverWith(predict.MethodAverage))
	s.protect("lineb", "", lineb, registry.RecoverWith(predict.MethodAverage))

	// Checkpoint world: line is restorable, lineb is not; fdAny and fdFix are
	// checkpoint-library datasets the engine only ever sees through
	// FTIRepairer.
	w, err := fti.NewWorld(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	fdAny, fdFix := goldenField(16, 16, 2.1), goldenField(16, 16, 2.9)
	s.arrays["fdAny"], s.arrays["fdFix"] = fdAny, fdFix
	s.rec.Arrays["fdAny"] = goldenArray{Touched: map[string]string{}}
	s.rec.Arrays["fdFix"] = goldenArray{Touched: map[string]string{}}
	for id, ds := range []struct {
		name string
		arr  *ndarray.Array
		pol  fti.RecoveryPolicy
	}{
		{"line", line, fti.RecoveryPolicy{}},
		{"fdAny", fdAny, fti.RecoveryPolicy{Any: true}},
		{"fdFix", fdFix, fti.RecoveryPolicy{Method: predict.MethodLagrange}},
	} {
		if err := w.Rank(0).Protect(id, ds.name, ds.arr, bitflip.Float32, ds.pol); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Checkpoint(1, fti.L1); err != nil {
		t.Fatal(err)
	}
	eng.AttachCheckpoints(w, 0)

	// --- RecoverAddress: a registered address and an unregistered one. ---
	off := fix.Offset(7, 5)
	s.corrupt("fix", math.NaN(), off)
	out, err := eng.RecoverAddress(fixA.AddrOf(off))
	s.step(goldenStep{Name: "address/fix", Outcomes: []goldenOutcome{outcomeOf(out, off, err)}}, false)
	out, err = eng.RecoverAddress(0x42)
	s.step(goldenStep{Name: "address/unregistered", Outcomes: []goldenOutcome{outcomeOf(out, -1, err)}}, false)

	// --- RecoverElement, fixed method: plain, pre-quarantined with a
	// quarantined face neighbour, first and last cell, out of range. ---
	s.corrupt("fix", math.Inf(1), fix.Offset(20, 9))
	s.element("element/fix", "fix", fix.Offset(20, 9))
	s.corrupt("fix", 1e30, fix.Offset(30, 3), fix.Offset(30, 4))
	s.mark("fix", fix.Offset(30, 3), fix.Offset(30, 4))
	s.element("element/fix/masked-neighbour", "fix", fix.Offset(30, 3))
	s.element("element/fix/masked-neighbour-2", "fix", fix.Offset(30, 4))
	s.corrupt("fix", math.NaN(), 0, fix.Len()-1)
	s.element("element/fix/first", "fix", 0)
	s.element("element/fix/last", "fix", fix.Len()-1)
	s.element("element/fix/out-of-range", "fix", fix.Len())
	s.element("element/fix/negative", "fix", -3)

	// --- RecoverBatch of one under a cancelable (never cancelled) context:
	// the climb runs behind the abandonment collector. ---
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	one := func(alloc *registry.Allocation, off int) (Outcome, error) {
		r := eng.RecoverBatch(ctx, alloc, []int{off})[0]
		return r.Outcome, r.Err
	}
	s.corrupt("fix", math.NaN(), fix.Offset(40, 10))
	out, err = one(fixA, fix.Offset(40, 10))
	s.step(goldenStep{Name: "elementctx/fix", Outcomes: []goldenOutcome{outcomeOf(out, fix.Offset(40, 10), err)}}, false)
	s.corrupt("any", math.NaN(), anyF.Offset(33, 7))
	out, err = one(s.allocs["any"], anyF.Offset(33, 7))
	s.step(goldenStep{Name: "elementctx/any", Outcomes: []goldenOutcome{outcomeOf(out, anyF.Offset(33, 7), err)}}, false)

	// --- RecoverElement, RECOVER_ANY: two in one stripe (a tune-cache hit
	// when caching is on), one far away, one beside a quarantined cell. ---
	for _, idx := range [][2]int{{10, 10}, {9, 12}, {50, 3}, {11, 11}} {
		s.corrupt("any", math.NaN(), anyF.Offset(idx[0], idx[1]))
		if idx == [2]int{11, 11} {
			s.corrupt("any", -1e20, anyF.Offset(11, 12))
			s.mark("any", anyF.Offset(11, 12))
		}
		s.element("element/any", "any", anyF.Offset(idx[0], idx[1]))
	}
	s.element("element/any/quarantined-neighbour", "any", anyF.Offset(11, 12))

	// --- Fixed Zero outside the registered range: climbs to the tune rung. ---
	s.corrupt("rng", math.NaN(), rng.Offset(16, 8))
	s.element("element/rng/escalates", "rng", rng.Offset(16, 8))

	// --- StageHook-forced climbs: to restore, and to exhaustion. ---
	s.corrupt("line", math.NaN(), 1)
	s.element("element/line/restore", "line", 1)
	s.corrupt("lineb", 999, 1)
	s.element("element/lineb/exhausted", "lineb", 1)

	// --- RecoverBatch: four stripe clusters, two out-of-range members, all
	// valid members pre-quarantined (the service intake pattern), half the
	// traces caller-supplied. ---
	storm := []int{
		anyF.Offset(5, 7), anyF.Offset(5, 8), // adjacent pair, stripe 0
		-1,
		anyF.Offset(10, 3), anyF.Offset(11, 3), anyF.Offset(12, 3), // run across a stripe boundary
		anyF.Offset(36, 12), anyF.Offset(37, 12), anyF.Offset(36, 13), // mid-field block
		anyF.Len(),
		anyF.Offset(60, 20), // far cluster
		anyF.Offset(6, 7),   // back in the first cluster
	}
	s.corrupt("any", math.NaN(), storm...)
	for _, off := range storm {
		if off >= 0 && off < anyF.Len() {
			s.mark("any", off)
		}
	}
	traces := make([]*trace.Trace, len(storm))
	for i := 0; i < len(traces); i += 2 {
		traces[i] = trace.New()
	}
	s.batch("batch/any/storm", "any", storm, traces)

	// A second storm, not pre-quarantined, after a partial field update has
	// invalidated the first cluster's tune-cache regions.
	eng.FieldUpdatedStripes(anyF, []int{0})
	storm2 := []int{anyF.Offset(4, 4), anyF.Offset(4, 5), anyF.Offset(28, 20), anyF.Offset(29, 20), anyF.Offset(58, 1)}
	s.corrupt("any", math.Inf(-1), storm2...)
	s.batch("batch/any/after-update", "any", storm2, nil)

	// Batch members whose fixed method fails the range: each climbs the
	// ladder inside its cluster.
	rstorm := []int{rng.Offset(4, 4), rng.Offset(4, 5), rng.Offset(5, 4), rng.Offset(25, 10)}
	s.corrupt("rng", math.NaN(), rstorm...)
	s.mark("rng", rstorm...)
	s.batch("batch/rng/escalates", "rng", rstorm, nil)

	// A batch of one, and an empty batch.
	s.corrupt("fix", math.NaN(), fix.Offset(24, 2))
	s.batch("batch/fix/one", "fix", []int{fix.Offset(24, 2)}, nil)
	s.batch("batch/fix/empty", "fix", nil, nil)

	// A full field update (every cached decision dropped, statistics
	// re-snapshotted), then one more tuned recovery.
	eng.FieldUpdated(anyF)
	s.corrupt("any", math.NaN(), anyF.Offset(10, 11))
	s.element("element/any/after-field-update", "any", anyF.Offset(10, 11))

	// --- FTIRepairer through the checkpoint library's SDC check, and
	// directly (an offset the dataset does not have). ---
	s.corrupt("fdAny", 1e15, fdAny.Offset(8, 8))
	s.corrupt("fdFix", math.NaN(), fdFix.Offset(3, 12), fdFix.Offset(12, 3))
	rep, err := w.SDCCheck(&detect.RangeDetector{Lo: 0, Hi: 1000}, eng.FTIRepairer())
	if err != nil {
		t.Fatal(err)
	}
	st := goldenStep{Name: "fti/sdccheck"}
	for _, f := range rep.Findings {
		g := goldenOutcome{Alloc: strconv.Itoa(f.DatasetID), Offset: f.Offset, Old: bitsOf(f.Old), New: bitsOf(f.New)}
		if f.Err != nil {
			g.Err = f.Err.Error()
		}
		st.Outcomes = append(st.Outcomes, g)
	}
	if rep.RolledBack {
		t.Fatalf("SDC check rolled back: %+v", rep)
	}
	s.step(st, false)
	ds, err := w.Rank(0).Dataset(1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.FTIRepairer()(ds, fdAny.Len()+5)
	s.step(goldenStep{Name: "fti/out-of-range", Outcomes: []goldenOutcome{outcomeOf(Outcome{}, fdAny.Len()+5, err)}}, false)

	s.rec.MethodCountsBeforeBurst = map[string]int64{}
	for m, n := range eng.MethodCounts() {
		s.rec.MethodCountsBeforeBurst[strconv.Itoa(int(m))] = n
	}

	// --- RecoverBurst: a 16-cell row wipe that sweep-verifies; an unsorted
	// burst with duplicates next to a quarantined cell, auto-tuned; a burst
	// whose every cell fails sweep verification and climbs the ladder; a
	// burst straddling the registered range's upper bound, where the cells
	// above it escalate and exhaust; and the refusals. ---
	wipe := make([]int, 16)
	for i := range wipe {
		wipe[i] = fix.Offset(12, 2) + i
	}
	s.corrupt("fix", math.NaN(), wipe...)
	s.burst("burst/fix/rowwipe", "fix", wipe)

	s.corrupt("any", 1e30, anyF.Offset(44, 9))
	s.mark("any", anyF.Offset(44, 9))
	block := []int{anyF.Offset(45, 9), anyF.Offset(44, 10), anyF.Offset(45, 10), anyF.Offset(45, 9), anyF.Offset(44, 8)}
	s.corrupt("any", math.Inf(1), block...)
	s.burst("burst/any/block", "any", block)
	s.element("element/any/after-burst", "any", anyF.Offset(44, 9))

	esc := []int{rng.Offset(16, 10), rng.Offset(16, 11), rng.Offset(16, 12)}
	s.corrupt("rng", math.NaN(), esc...)
	s.burst("burst/rng/all-escalate", "rng", esc)

	var straddle []int
	for j := 2; j < 12; j++ {
		straddle = append(straddle, mix.Offset(3, j))
	}
	s.corrupt("mix", math.NaN(), straddle...)
	s.burst("burst/mix/straddle", "mix", straddle)

	var partial []int
	for j := 2; j < 14; j++ {
		partial = append(partial, step.Offset(8, j))
	}
	s.corrupt("step", math.NaN(), partial...)
	s.burst("burst/step/partial", "step", partial)

	s.corrupt("ramp", math.NaN(), 3, 5, 6)
	s.burst("burst/ramp/unrecoverable", "ramp", []int{5, 3, 6})

	s.burst("burst/fix/empty", "fix", nil)
	s.burst("burst/fix/out-of-range", "fix", []int{3, fix.Len()})

	// --- Teardown of one allocation: its record and quarantine entries go. ---
	s.mark("rng", rng.Offset(1, 1))
	if err := eng.Unprotect(s.allocs["rng"]); err != nil {
		t.Fatal(err)
	}

	// --- Final state. ---
	s.rec.Stats = eng.Stats()
	s.rec.Escalations = map[string]int64{}
	for stage, n := range eng.Escalations() {
		s.rec.Escalations[stage.String()] = n
	}
	s.rec.TuneCache = eng.TuneCacheCounters()
	s.rec.BatchCalls, s.rec.BatchMembers, _ = eng.BatchStats()
	_, s.rec.StripeAcquisitions = eng.StripeWait()
	s.rec.QuarantineCount = eng.QuarantineCount()
	s.rec.Quarantined = map[string][]int{}
	s.rec.Spatial = map[string]goldenSpatial{}
	for name, alloc := range s.allocs {
		s.rec.Quarantined[name] = eng.Quarantined(alloc)
	}
	for name, a := range s.arrays {
		if name == "rng" {
			continue // unprotected above: asking would recreate its record
		}
		r := eng.SpatialReport(a)
		g := goldenSpatial{Stripes: r.Stripes, Recoveries: r.Recoveries, MoranI: bitsOf(r.MoranI),
			GearyC: bitsOf(r.GearyC), Defined: r.Defined, HotZ: bitsOf(r.HotZ), Hot: r.HotStripes}
		for _, l := range r.Local {
			g.Local = append(g.Local, goldenStripe{Stripe: l.Stripe, Recoveries: l.Recoveries, Successes: l.Successes,
				VerifyFails: l.VerifyFails, EscalationSum: l.EscalationSum, MeanResidual: bitsOf(l.MeanResidual),
				Intensity: bitsOf(l.Intensity), GStar: bitsOf(l.GStar), Heat: l.Heat, BestMethod: l.BestMethod})
		}
		s.rec.Spatial[name] = g
	}
	for name, a := range s.arrays {
		h := sha256.New()
		var cell [8]byte
		for _, v := range a.Data() {
			b := math.Float64bits(v)
			for i := range cell {
				cell[i] = byte(b >> (56 - 8*i))
			}
			h.Write(cell[:])
		}
		g := s.rec.Arrays[name]
		g.SHA256 = hex.EncodeToString(h.Sum(nil))
		for k := range g.Touched {
			off, _ := strconv.Atoi(k)
			g.Touched[k] = bitsOf(a.AtOffset(off))
		}
		s.rec.Arrays[name] = g
	}
	s.rec.Hook = s.hook

	// Span counts per stage over every engine-owned trace (durations are
	// wall time; the counts are not).
	var m bytes.Buffer
	if err := eng.Tracer().WriteMetrics(&m); err != nil {
		t.Fatal(err)
	}
	for _, ln := range strings.Split(m.String(), "\n") {
		if strings.Contains(ln, "_count") {
			s.rec.TraceCounts = append(s.rec.TraceCounts, ln)
		}
	}
	if s.seen >= auditCap {
		t.Fatalf("scenario wrote %d audit entries; the ring holds %d", s.seen, auditCap)
	}
	return s.rec
}

// pipelineGoldenConfigs are the option sets the scenario runs under: the
// paper's re-tune-every-time engine and the stripe-granular tune cache.
var pipelineGoldenConfigs = []struct {
	name string
	opts Options
}{
	{"block0", Options{Seed: 17}},
	{"block8", Options{Seed: 17, TuneCacheBlock: 8}},
}

// TestPipelineGolden replays one seeded scenario through every entry point
// (RecoverAddress, RecoverElement, RecoverBatch of one under a cancelable
// context, RecoverBatch with and without traces,
// RecoverBurst, FTIRepairer, StageHook-forced climbs to restore and
// exhaustion) and
// compares everything observable — values as bits, outcomes, error strings,
// audit entries, counters, spatial sums, quarantine, span sets — against the
// record generated at the commit before the paths were unified.
func TestPipelineGolden(t *testing.T) {
	got := map[string]goldenRecord{}
	for _, cfg := range pipelineGoldenConfigs {
		got[cfg.name] = runPipelineScenario(t, cfg.opts)
	}
	buf, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	golden.Compare(t, pipelineGoldenPath, append(buf, '\n'))
}
