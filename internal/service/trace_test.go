package service

import (
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/core"
	"spatialdue/internal/faultinject"
	"spatialdue/internal/journal"
	"spatialdue/internal/predict"
	"spatialdue/internal/registry"
	"spatialdue/internal/trace"
)

// TestJournalFailureUnquarantines is the quarantine-leak regression: a
// journal Begin error rejects the submission, so the element must not stay
// quarantined with nothing scheduled to repair it.
func TestJournalFailureUnquarantines(t *testing.T) {
	defer faultinject.DisarmErrors()
	eng := core.NewEngine(core.Options{Seed: 31})
	a := smoothArray(16, 16)
	alloc := eng.Protect("grid", a, bitflip.Float32, registry.RecoverWith(predict.MethodLorenzo1))
	svc, err := New(eng, Config{
		Workers: 1, JournalPath: filepath.Join(t.TempDir(), "rec.jsonl"), Seed: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	defer svc.Close()

	off := a.Offset(8, 8)
	orig := a.AtOffset(off)
	a.SetOffset(off, math.NaN())

	faultinject.ArmError("journal/append")
	if err := svc.Submit(alloc, off); err == nil || !strings.Contains(err.Error(), "journal intent") {
		t.Fatalf("submit with failing journal: err = %v, want journal intent error", err)
	}
	if n := eng.QuarantineCount(); n != 0 {
		t.Fatalf("rejected submission left %d elements quarantined", n)
	}

	// The cell is still corrupt and must remain recoverable: a later
	// (journal-healthy) submission repairs it.
	if err := svc.Submit(alloc, off); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "recovery after journal recovery", func() bool {
		return svc.Stats().Recovered == 1
	})
	if got := a.AtOffset(off); bitflip.RelErr(orig, got) > 0.05 {
		t.Errorf("element recovered to %v, true %v", got, orig)
	}
}

// TestJournalFailureKeepsPriorQuarantine: when the element was already
// quarantined by an earlier submission (a redelivered report), a rejected
// duplicate must NOT clear the quarantine the original still owns.
func TestJournalFailureKeepsPriorQuarantine(t *testing.T) {
	defer faultinject.DisarmErrors()
	eng := core.NewEngine(core.Options{Seed: 33})
	a := smoothArray(16, 16)
	alloc := eng.Protect("grid", a, bitflip.Float32, registry.RecoverWith(predict.MethodLorenzo1))
	svc, err := New(eng, Config{
		Workers: 1, JournalPath: filepath.Join(t.TempDir(), "rec.jsonl"), Seed: 34,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Not started: the first submission parks in the queue, keeping its
	// quarantine claim alive while the duplicate is rejected.
	off := a.Offset(4, 4)
	a.SetOffset(off, math.NaN())
	if err := svc.Submit(alloc, off); err != nil {
		t.Fatal(err)
	}
	if n := eng.QuarantineCount(); n != 1 {
		t.Fatalf("first submission quarantined %d elements, want 1", n)
	}

	faultinject.ArmError("journal/append")
	if err := svc.Submit(alloc, off); err == nil {
		t.Fatal("duplicate submit with failing journal succeeded")
	}
	if n := eng.QuarantineCount(); n != 1 {
		t.Fatalf("rejected duplicate changed quarantine state: %d quarantined, want 1", n)
	}
	svc.Start()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStoppedRaceUnquarantinesAndClosesIntent exercises the second leak
// path: a Drain slips in between the journal intent write and the enqueue
// re-check. The rejected submission must restore quarantine state AND
// close out the dangling journal intent so a restart does not replay a
// recovery that was never admitted.
func TestStoppedRaceUnquarantinesAndClosesIntent(t *testing.T) {
	defer faultinject.ClearHooks()
	eng := core.NewEngine(core.Options{Seed: 35})
	a := smoothArray(16, 16)
	alloc := eng.Protect("grid", a, bitflip.Float32, registry.RecoverWith(predict.MethodLorenzo1))
	jpath := filepath.Join(t.TempDir(), "rec.jsonl")
	svc, err := New(eng, Config{Workers: 1, JournalPath: jpath, JournalSync: true, Seed: 36})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()

	// The hook fires on the submitting goroutine after jr.Begin, simulating
	// a concurrent Drain winning the race before the stopped re-check.
	faultinject.SetHook("service/pre-enqueue", func() {
		svc.mu.Lock()
		svc.stopped = true
		svc.mu.Unlock()
	})
	off := a.Offset(8, 8)
	a.SetOffset(off, math.NaN())
	if err := svc.Submit(alloc, off); err != ErrStopped {
		t.Fatalf("submit racing drain: err = %v, want ErrStopped", err)
	}
	if n := eng.QuarantineCount(); n != 0 {
		t.Fatalf("stopped-path rejection left %d elements quarantined", n)
	}
	faultinject.ClearHooks()

	// Undo the simulated drain flag and close for real, then prove the
	// intent was closed out: a reopened journal reports nothing dangling.
	svc.mu.Lock()
	svc.stopped = false
	svc.mu.Unlock()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	jr, dangling, err := journal.OpenRecovery(jpath, false)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	if len(dangling) != 0 {
		t.Fatalf("stopped-path rejection left %d dangling journal intents: %+v",
			len(dangling), dangling)
	}
}

// TestOutcomeCarriesCompleteSpanChain: every terminal outcome from the
// service pipeline must carry a trace whose spans cover admission
// (journal_begin), the queue, the stripe locks, and journal completion,
// and whose spans sum to no more than the end-to-end total.
func TestOutcomeCarriesCompleteSpanChain(t *testing.T) {
	eng := core.NewEngine(core.Options{Seed: 37})
	a := smoothArray(32, 32)
	alloc := eng.Protect("grid", a, bitflip.Float32, registry.RecoverAny())

	var mu sync.Mutex
	var results []Result
	svc, err := New(eng, Config{
		Workers: 2, QueueDepth: 8, Seed: 38,
		JournalPath: filepath.Join(t.TempDir(), "rec.jsonl"),
		OnOutcome:   func(r Result) { mu.Lock(); results = append(results, r); mu.Unlock() },
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()

	offs := []int{a.Offset(5, 5), a.Offset(12, 20), a.Offset(25, 7)}
	for _, off := range offs {
		a.SetOffset(off, math.NaN())
		if err := svc.Submit(alloc, off); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(results) != len(offs) {
		t.Fatalf("got %d outcomes, want %d", len(results), len(offs))
	}
	ids := map[string]bool{}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("outcome for %d failed: %v", r.Offset, r.Err)
		}
		if len(r.TraceID) != 32 {
			t.Fatalf("outcome trace ID %q malformed", r.TraceID)
		}
		ids[r.TraceID] = true
	}
	if len(ids) != len(offs) {
		t.Fatalf("trace IDs not unique across outcomes: %v", ids)
	}

	if got := eng.Tracer().Finished(); got != uint64(len(offs)) {
		t.Fatalf("collector finished %d traces, want %d", got, len(offs))
	}
	for _, sum := range eng.Tracer().Top() {
		if !ids[sum.ID] {
			t.Errorf("collected trace %s not reported in any outcome", sum.ID)
		}
		stages := map[string]bool{}
		spanSum := 0.0
		for _, sp := range sum.Spans {
			stages[sp.Stage] = true
			spanSum += sp.DurSeconds
		}
		for _, want := range []string{
			trace.StageJournalBegin, trace.StageQueueWait,
			trace.StageStripeWait, trace.StageJournalFinish,
		} {
			if !stages[want] {
				t.Errorf("trace %s missing %s span (has %v)", sum.ID, want, stages)
			}
		}
		if spanSum > sum.TotalSeconds*1.05 {
			t.Errorf("trace %s spans sum to %.9fs, exceeding total %.9fs",
				sum.ID, spanSum, sum.TotalSeconds)
		}
		if !sum.OK {
			t.Errorf("trace %s outcome not OK: %s", sum.ID, sum.Detail)
		}
	}
}

// TestStagedTraceClaimedBySubmit: a trace staged by address (the HTTP
// ingest path) must be adopted by the matching submission and reported in
// its outcome.
func TestStagedTraceClaimedBySubmit(t *testing.T) {
	eng := core.NewEngine(core.Options{Seed: 39})
	a := smoothArray(16, 16)
	alloc := eng.Protect("grid", a, bitflip.Float32, registry.RecoverWith(predict.MethodLorenzo1))

	var mu sync.Mutex
	var results []Result
	svc, err := New(eng, Config{
		Workers: 1, Seed: 40,
		OnOutcome: func(r Result) { mu.Lock(); results = append(results, r); mu.Unlock() },
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()

	const id = "4bf92f3577b34da6a3ce929d0e0e4736"
	off := a.Offset(6, 6)
	a.SetOffset(off, math.NaN())
	svc.StageTrace(alloc.AddrOf(off), trace.WithID(id), false)
	if err := svc.Submit(alloc, off); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(results) != 1 || results[0].TraceID != id {
		t.Fatalf("results = %+v, want one outcome carrying trace %s", results, id)
	}
	if svc.UnstageTrace(alloc.AddrOf(off)) != nil {
		t.Error("claimed trace still staged after submit")
	}
}
