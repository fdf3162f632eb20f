package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/fti"
	"spatialdue/internal/predict"
	"spatialdue/internal/registry"
	"spatialdue/internal/trace"
)

// TestUnprotectDropsPerArrayState is the state-leak regression: before
// Unprotect existed, the per-array map grew one entry per registered array
// forever.
func TestUnprotectDropsPerArrayState(t *testing.T) {
	// TuneCacheBlock on, so the tuning-cache map is exercised too.
	eng := NewEngine(Options{Seed: 5, TuneCacheBlock: 8})
	a := smoothArray(20, 20)
	alloc := eng.Protect("leaky", a, bitflip.Float32, registry.RecoverAny())

	// Run one recovery so every part of the per-array record is in use.
	off := a.Offset(4, 4)
	a.SetOffset(off, math.Inf(1))
	if _, err := eng.RecoverElement(alloc, off); err != nil {
		t.Fatal(err)
	}
	eng.MarkCorrupt(alloc, a.Offset(9, 9)) // leave a quarantine entry behind too
	if st := eng.liveState(a); st == nil || st.shared == nil || st.cache == nil {
		t.Fatal("per-array state not populated before Unprotect")
	}

	if err := eng.Unprotect(alloc); err != nil {
		t.Fatal(err)
	}

	if eng.liveState(a) != nil {
		t.Error("per-array state leaked: the record survived Unprotect")
	}
	if eng.QuarantineCount() != 0 {
		t.Errorf("quarantine entries leaked: %d", eng.QuarantineCount())
	}
	if _, ok := eng.Table().ByTenantName(alloc.Tenant, "leaky"); ok {
		t.Error("allocation still registered after Unprotect")
	}
}

// TestUnprotectRefusesWhileRecoveriesInFlight: a held stripe means a
// recovery is using the array, so teardown must be refused, not raced.
func TestUnprotectRefusesWhileRecoveriesInFlight(t *testing.T) {
	eng := NewEngine(Options{Seed: 6})
	a := smoothArray(20, 20)
	alloc := eng.Protect("busy", a, bitflip.Float32, registry.RecoverAny())

	ss := eng.stateFor(a)
	lo, hi := ss.rangeFor(a.Offset(10, 10))
	if err := ss.acquireRange(context.Background(), lo, hi); err != nil {
		t.Fatal(err)
	}
	if err := eng.Unprotect(alloc); !errors.Is(err, ErrRecoveriesInFlight) {
		t.Fatalf("Unprotect with held stripe: err = %v, want ErrRecoveriesInFlight", err)
	}
	ss.release(lo, hi)
	if err := eng.Unprotect(alloc); err != nil {
		t.Fatalf("Unprotect after release: %v", err)
	}
}

// TestUnprotectUnderConcurrentRecoveries drives recoveries while
// repeatedly attempting teardown; run under -race this proves Unprotect's
// stripe drain and map deletion don't race the recovery path.
func TestUnprotectUnderConcurrentRecoveries(t *testing.T) {
	eng := NewEngine(Options{Seed: 7})
	a := smoothArray(32, 32)
	alloc := eng.Protect("contended", a, bitflip.Float32, registry.RecoverAny())

	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				off := a.Offset(2+(i%28), 2+(w*7)%28)
				a.SetOffset(off, math.NaN())
				_, _ = eng.RecoverElement(alloc, off)
			}
		}(w)
	}
	// Teardown attempts race the recoveries; busy refusals are expected.
	for i := 0; i < 50; i++ {
		if err := eng.Unprotect(alloc); err != nil && !errors.Is(err, ErrRecoveriesInFlight) {
			t.Errorf("Unprotect: unexpected error %v", err)
		}
	}
	wg.Wait()
	if err := eng.Unprotect(alloc); err != nil {
		t.Fatalf("final Unprotect: %v", err)
	}
	if eng.liveState(a) != nil {
		t.Error("stripe set survived final Unprotect")
	}
}

// TestRecoveryAfterUnprotectRefused: nothing re-creates the record of an
// unprotected allocation (its memory may be gone), so every entry point
// refuses instead of snapshotting and repairing the orphaned array.
func TestRecoveryAfterUnprotectRefused(t *testing.T) {
	eng := NewEngine(Options{Seed: 7})
	a := smoothArray(32, 32)
	alloc := eng.Protect("gone", a, bitflip.Float32, registry.RecoverAny())
	if err := eng.Unprotect(alloc); err != nil {
		t.Fatal(err)
	}
	off := a.Offset(9, 9)
	a.SetOffset(off, 1e30)
	refused := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrCheckpointRestartRequired) || !errors.Is(err, registry.ErrNotRegistered) {
			t.Errorf("%s after Unprotect: err = %v, want checkpoint-restart wrapping not-registered", what, err)
		}
	}
	_, err := eng.RecoverElement(alloc, off)
	refused("RecoverElement", err)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = eng.RecoverElementCtx(ctx, alloc, off)
	refused("RecoverElementCtx", err)
	for _, r := range eng.RecoverBatch(context.Background(), alloc, []int{off, off + 1}) {
		refused("RecoverBatch", r.Err)
	}
	_, err = eng.RecoverBurst(alloc, []int{off})
	refused("RecoverBurst", err)
	eng.MarkCorrupt(alloc, off)
	if a.AtOffset(off) != 1e30 || eng.QuarantineCount() != 0 || eng.liveState(a) != nil {
		t.Errorf("refused recoveries left a trace: value %v, %d quarantined, record %v",
			a.AtOffset(off), eng.QuarantineCount(), eng.liveState(a))
	}
	if st := eng.Stats(); st.Recovered != 0 || st.Fallbacks != 4 { // element, elementctx, two batch members
		t.Errorf("stats = %+v, want 4 fallbacks", st)
	}
}

// TestAcquireRechecksLiveRecord is the item-0(d) mechanism in isolation: a
// waiter that gets its stripes only after the record was retired lets go of
// them and moves to the record that replaced it, or reports that there is
// none.
func TestAcquireRechecksLiveRecord(t *testing.T) {
	eng := NewEngine(Options{Seed: 7})
	a := smoothArray(32, 32)
	ctx := context.Background()
	for _, replaced := range []bool{false, true} {
		old := eng.stateFor(a)
		if err := old.acquireRange(ctx, 0, 1); err != nil {
			t.Fatal(err)
		}
		got := make(chan *arrayState)
		go func() {
			st, _ := eng.acquire(ctx, a, old, 0, 1)
			got <- st
		}()
		// Retire the record while the waiter is (or is about to be) queued
		// behind the held stripes, as Unprotect does once it has them all.
		eng.mu.Lock()
		delete(eng.arrays, a)
		eng.mu.Unlock()
		var fresh *arrayState
		if replaced {
			fresh = eng.stateFor(a)
		}
		old.release(0, 1)
		if st := <-got; st != fresh {
			t.Fatalf("replaced=%v: waiter ended up on %p, want %p", replaced, st, fresh)
		}
		if !old.tryAcquireAll() {
			t.Fatalf("replaced=%v: waiter kept stripes of the retired record", replaced)
		}
		if fresh != nil {
			if fresh.tryAcquireAll() {
				t.Fatal("waiter does not hold the stripes of the record it moved to")
			}
			fresh.release(0, 1)
		}
	}
}

// TestMethodCountersMonotonic is the counter-semantics regression:
// spatialdue_recoveries_by_method was recomputed from the bounded audit
// ring, so past 1024 recoveries the "counter" could decrease. The lifetime
// counters must keep every recovery.
func TestMethodCountersMonotonic(t *testing.T) {
	eng := NewEngine(Options{Seed: 8})
	a := smoothArray(64, 64)
	alloc := eng.Protect("ringwrap", a, bitflip.Float32, registry.RecoverAny())

	const n = auditCap + 200 // force the audit ring to wrap
	prev := int64(0)
	for i := 0; i < n; i++ {
		off := 65 + i%(a.Len()-130)
		orig := a.AtOffset(off)
		a.SetOffset(off, math.Inf(1))
		if _, err := eng.RecoverElement(alloc, off); err != nil {
			a.SetOffset(off, orig)
			continue
		}
		if i%257 == 0 {
			var sum int64
			for _, c := range eng.MethodCounts() {
				sum += c
			}
			if sum < prev {
				t.Fatalf("method counters decreased: %d -> %d at recovery %d", prev, sum, i)
			}
			prev = sum
		}
	}
	// Every path that bumps Recovered must bump a method counter too: a
	// burst whose cells sweep-verify, a burst whose cells escalate (Zero
	// violates the range for each), and a checkpoint-library repair.
	burst := []int{a.Offset(30, 10), a.Offset(30, 11), a.Offset(30, 12)}
	for _, off := range burst {
		a.SetOffset(off, math.NaN())
	}
	if _, err := eng.RecoverBurst(alloc, burst); err != nil {
		t.Fatal(err)
	}
	ranged := eng.Protect("ranged", smoothArray(64, 64), bitflip.Float32,
		registry.RecoverWith(predict.MethodZero).WithRange(20, 40))
	for _, off := range burst[:2] {
		ranged.Array.SetOffset(off, math.NaN())
	}
	if out, err := eng.RecoverBurst(ranged, burst[:2]); err != nil || out.Escalated != 2 {
		t.Fatalf("escalating burst: %+v, %v", out, err)
	}
	ds := &fti.Dataset{Name: "ckpt", Array: smoothArray(16, 16), DType: bitflip.Float32,
		Policy: fti.RecoveryPolicy{Method: predict.MethodAverage}}
	ds.Array.SetOffset(40, math.NaN())
	if _, err := eng.FTIRepairer()(ds, 40); err != nil {
		t.Fatal(err)
	}

	var sum int64
	for _, c := range eng.MethodCounts() {
		sum += c
	}
	if got := int64(eng.Stats().Recovered); sum != got {
		t.Fatalf("lifetime method counters sum to %d, engine recovered %d", sum, got)
	}
	if sum <= int64(auditCap)+6 {
		t.Fatalf("test did not exercise ring wrap: only %d successes", sum)
	}

	var sb strings.Builder
	if err := eng.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "spatialdue_recoveries_by_method") {
		t.Error("by-method counter missing from metrics export")
	}
}

// TestTraceSpansCoverLadder: a directly driven recovery must leave a trace
// in the engine collector whose spans cover the ladder work (stripe wait +
// at least one predict/verify pair) and sum to at most the total.
func TestTraceSpansCoverLadder(t *testing.T) {
	eng := NewEngine(Options{Seed: 9})
	a := smoothArray(20, 20)
	alloc := eng.Protect("traced", a, bitflip.Float32, registry.RecoverAny())

	off := a.Offset(7, 7)
	a.SetOffset(off, math.Inf(1))
	if _, err := eng.RecoverElement(alloc, off); err != nil {
		t.Fatal(err)
	}

	top := eng.Tracer().Top()
	if len(top) != 1 {
		t.Fatalf("collector retained %d traces, want 1", len(top))
	}
	sum := top[0]
	if sum.Alloc != "traced" || sum.Offset != off || !sum.OK {
		t.Fatalf("trace summary = %+v", sum)
	}
	stages := map[string]float64{}
	spanSum := 0.0
	for _, sp := range sum.Spans {
		stages[sp.Stage] += sp.DurSeconds
		spanSum += sp.DurSeconds
	}
	if _, ok := stages[trace.StageStripeWait]; !ok {
		t.Errorf("missing %s span; got %v", trace.StageStripeWait, stages)
	}
	hasPredict := false
	for st := range stages {
		if strings.HasPrefix(st, "predict/") {
			hasPredict = true
		}
	}
	if !hasPredict {
		t.Errorf("no predict span recorded; got %v", stages)
	}
	if spanSum > sum.TotalSeconds*1.05 {
		t.Errorf("spans sum to %.9fs, exceeding total %.9fs", spanSum, sum.TotalSeconds)
	}
}

// TestBatchMembersShareStripeWaitSpan: one cluster acquisition is stamped
// into every member's trace with the identical duration.
func TestBatchMembersShareStripeWaitSpan(t *testing.T) {
	eng := NewEngine(Options{Seed: 10})
	a := smoothArray(32, 32)
	alloc := eng.Protect("batch", a, bitflip.Float32, registry.RecoverAny())

	offs := []int{a.Offset(5, 5), a.Offset(5, 6), a.Offset(5, 7)}
	trs := make([]*trace.Trace, len(offs))
	for i := range trs {
		trs[i] = trace.New()
	}
	for _, off := range offs {
		a.SetOffset(off, math.Inf(1))
	}
	for _, r := range eng.RecoverBatch(context.Background(), alloc, offs, trs...) {
		if r.Err != nil {
			t.Fatalf("batch member %d: %v", r.Offset, r.Err)
		}
	}

	var waits []float64
	for i, tr := range trs {
		found := false
		for _, sp := range tr.Spans() {
			if sp.Stage == trace.StageStripeWait {
				waits = append(waits, sp.Dur.Seconds())
				found = true
			}
		}
		if !found {
			t.Fatalf("member %d has no stripe-wait span", i)
		}
	}
	for i := 1; i < len(waits); i++ {
		if waits[i] != waits[0] {
			t.Errorf("stripe-wait durations differ across batch members: %v", waits)
		}
	}
	// Caller-supplied traces are left unfinished for the service to close.
	if trs[0].Total() != 0 {
		t.Error("caller-supplied batch trace was finished by the engine")
	}
}
