package service

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/core"
	"spatialdue/internal/journal"
	"spatialdue/internal/mca"
	"spatialdue/internal/predict"
	"spatialdue/internal/registry"
	"spatialdue/internal/trace"
)

// parkHook parks every recovery at its first ladder stage until the test
// lets it go. arrived receives each parked offset; step releases one
// parked recovery, close(open) all of them, now and later.
type parkHook struct {
	mu      sync.Mutex
	started map[int]bool
	arrived chan int
	step    chan struct{}
	open    chan struct{}
}

func newParkHook() *parkHook {
	return &parkHook{started: map[int]bool{}, arrived: make(chan int, 64),
		step: make(chan struct{}), open: make(chan struct{})}
}

func (h *parkHook) hook(ev core.StageEvent) {
	h.mu.Lock()
	first := !h.started[ev.Offset]
	h.started[ev.Offset] = true
	h.mu.Unlock()
	if !first {
		return
	}
	h.arrived <- ev.Offset
	select {
	case <-h.step:
	case <-h.open:
	}
}

// runHereEnv is one service over a 200x16 grid with an attached MCA, its
// outcomes collected in order. Rows 40 apart lie in lock stripes far enough
// apart for their recoveries to run concurrently.
type runHereEnv struct {
	svc   *Service
	alloc *registry.Allocation
	m     *mca.Machine

	mu  sync.Mutex
	out []Result
}

func newRunHereEnv(t *testing.T, hook func(core.StageEvent), cfg Config) *runHereEnv {
	t.Helper()
	eng := core.NewEngine(core.Options{Seed: 41, StageHook: hook})
	a := smoothArray(200, 16)
	e := &runHereEnv{
		alloc: eng.Protect("grid", a, bitflip.Float32, registry.RecoverWith(predict.MethodLorenzo1)),
		m:     mca.New(8),
	}
	cfg.Seed = 42
	cfg.OnOutcome = func(r Result) { e.mu.Lock(); e.out = append(e.out, r); e.mu.Unlock() }
	svc, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.svc = svc
	svc.AttachMCA(e.m)
	return e
}

// deliver corrupts offset off of the grid and raises its DUE the way the
// HTTP front end does: its record carries an Ingest staged with window w,
// the staging ended when the raise returns. With w nil the staging ends
// before the raise, so the delivery runs where it is made.
func (e *runHereEnv) deliver(off int, w *Window) (*trace.Trace, error) {
	e.alloc.Array.SetOffset(off, math.NaN())
	here := w == nil
	if here {
		w = new(Window)
	}
	in := w.Stage("")
	if here {
		w.EndStaging()
	}
	err := e.m.TouchOrRaise(e.alloc.AddrOf(off), e.alloc.DType.Size(), 0, in)
	w.EndStaging()
	return in.Trace(), err
}

func (e *runHereEnv) outcomes() []Result {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Result(nil), e.out...)
}

// queueWaits counts tr's queue_wait spans.
func queueWaits(tr *trace.Trace) int {
	n := 0
	for _, sp := range tr.Spans() {
		if sp.Stage == trace.StageQueueWait {
			n++
		}
	}
	return n
}

// TestRunHereOutcomeBeforeReturn: a delivery without a window runs on the
// delivering goroutine, so its outcome, journal record and trace exist
// before the delivery returns, with exactly one queue_wait span. A delivery
// staged with a window returns with its recovery admitted but not run; the
// owner's RunWindow runs it, and the bank was free all along.
func TestRunHereOutcomeBeforeReturn(t *testing.T) {
	e := newRunHereEnv(t, nil, Config{Workers: 1,
		JournalPath: filepath.Join(t.TempDir(), "rec.jsonl")})

	off := e.alloc.Array.Offset(8, 8)
	tr, err := e.deliver(off, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := e.outcomes()
	if len(out) != 1 || out[0].Offset != off || out[0].Err != nil || out[0].TraceID != tr.ID() {
		t.Fatalf("outcomes at return = %+v, want one clean outcome for %d carrying trace %s", out, off, tr.ID())
	}
	if tr.Total() == 0 {
		t.Error("trace not finished when the delivery returned")
	}
	if n := queueWaits(tr); n != 1 {
		t.Errorf("queue_wait spans = %d, want exactly 1", n)
	}
	if st := e.svc.Stats(); st.Accepted != 1 || st.Recovered != 1 || st.Batched != 0 || e.svc.QueueLen() != 0 {
		t.Errorf("stats = %+v, queue %d; want 1 accepted and recovered, none batched or waiting", st, e.svc.QueueLen())
	}

	var w Window
	woff := e.alloc.Array.Offset(40, 8)
	wtr, err := e.deliver(woff, &w)
	if err != nil {
		t.Fatal(err)
	}
	if n, q := len(e.outcomes()), e.svc.QueueLen(); n != 1 || q != 1 || w.Len() != 1 {
		t.Fatalf("windowed delivery returned with %d outcomes, queue %d, window %d; want 1, 1, 1", n, q, w.Len())
	}
	if banks := e.m.LatchedBanks(); len(banks) != 0 {
		t.Errorf("banks %v still latched after the windowed delivery", banks)
	}
	e.svc.RunWindow(&w)
	out = e.outcomes()
	if len(out) != 2 || out[1].Offset != woff || out[1].Err != nil || out[1].TraceID != wtr.ID() {
		t.Fatalf("outcomes after RunWindow = %+v, want the window's recovery of %d", out, woff)
	}
	if n := queueWaits(wtr); n != 1 || w.Len() != 0 || e.svc.QueueLen() != 0 {
		t.Errorf("after RunWindow: %d queue_wait spans, window %d, queue %d; want 1, 0, 0", n, w.Len(), e.svc.QueueLen())
	}
	if err := e.svc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEndedStagingRunsOnClaimer: a delivery of a staged event after the
// stager ended the staging — the redelivery of an event that latched —
// runs on the delivering goroutine under the event's trace instead of
// joining the window, whose owner may have run it for the last time.
func TestEndedStagingRunsOnClaimer(t *testing.T) {
	e := newRunHereEnv(t, nil, Config{Workers: 1})
	off := e.alloc.Array.Offset(8, 8)
	e.alloc.Array.SetOffset(off, math.NaN())
	var w Window
	in := w.Stage("")
	tr := in.Trace()
	w.EndStaging()
	if err := e.m.TouchOrRaise(e.alloc.AddrOf(off), e.alloc.DType.Size(), 0, in); err != nil {
		t.Fatal(err)
	}
	if out := e.outcomes(); len(out) != 1 || out[0].Err != nil || out[0].TraceID != tr.ID() || w.Len() != 0 {
		t.Fatalf("after the claim: outcomes %+v, window %d; want the recovery run here with the staged trace, window empty", out, w.Len())
	}
	if err := e.svc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWindowRunsBatchMaxAtATime: a window's members run in runs of at most
// BatchMax, same-allocation members of a run coalesced into one batch, in
// submission order.
func TestWindowRunsBatchMaxAtATime(t *testing.T) {
	e := newRunHereEnv(t, nil, Config{Workers: 1, BatchMax: 2})
	var w Window
	var offs []int
	for _, row := range []int{10, 50, 90, 130, 170} {
		off := e.alloc.Array.Offset(row, 8)
		offs = append(offs, off)
		if _, err := e.deliver(off, &w); err != nil {
			t.Fatal(err)
		}
	}
	if w.Len() != len(offs) || len(e.outcomes()) != 0 {
		t.Fatalf("window %d, outcomes %d before RunWindow; want %d and 0", w.Len(), len(e.outcomes()), len(offs))
	}
	e.svc.RunWindow(&w)
	out := e.outcomes()
	if len(out) != len(offs) {
		t.Fatalf("%d outcomes, want %d", len(out), len(offs))
	}
	for i, r := range out {
		if r.Offset != offs[i] || r.Err != nil {
			t.Fatalf("outcome %d = %+v, want a clean recovery of %d", i, r, offs[i])
		}
	}
	// Runs of two, two and one: the singleton takes the sequential path.
	if st := e.svc.Stats(); st.Batched != 4 || st.Recovered != 5 {
		t.Errorf("stats = %+v, want 4 batched of 5 recovered", st)
	}
	if err := e.svc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRunHereSharesWorkerTokens: Workers bounds every recovery, whoever
// runs it. With both tokens held by parked recoveries, a direct submission
// and a window's run wait for a token, counted by QueueLen, and no more
// than two recoveries are ever in flight.
func TestRunHereSharesWorkerTokens(t *testing.T) {
	h := newParkHook()
	e := newRunHereEnv(t, h.hook, Config{Workers: 2, QueueDepth: 8, BatchMax: 1})

	var wg sync.WaitGroup
	async := func(f func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := f(); err != nil {
				t.Error(err)
			}
		}()
	}
	a := e.alloc.Array
	for _, row := range []int{10, 50} {
		off := a.Offset(row, 8)
		async(func() error { _, err := e.deliver(off, nil); return err })
	}
	<-h.arrived
	<-h.arrived

	// Both tokens are held: a direct submission waits, and so does a
	// window's run; its delivery itself returned at once.
	off := a.Offset(90, 8)
	a.SetOffset(off, math.NaN())
	async(func() error { return admit(e.svc, e.alloc, off) })
	var w Window
	for _, row := range []int{130, 170} {
		if _, err := e.deliver(a.Offset(row, 8), &w); err != nil {
			t.Fatal(err)
		}
	}
	async(func() error { e.svc.RunWindow(&w); return nil })
	waitFor(t, "three recoveries to wait for a token", func() bool { return e.svc.QueueLen() == 3 })
	if n := len(e.outcomes()); n != 0 {
		t.Fatalf("with both tokens parked: %d outcomes, want 0", n)
	}

	// Let the recoveries go one at a time: each one released frees the
	// token the next waiting recovery starts on, and no third recovery is
	// ever in flight.
	started := 2
	for i := 0; i < 5; i++ {
		h.step <- struct{}{}
		if started == 5 {
			continue
		}
		<-h.arrived
		started++
		if n := started + len(h.arrived) - len(e.outcomes()); n > 2 {
			t.Fatalf("%d recoveries in flight with Workers 2", n)
		}
	}
	wg.Wait()
	if err := e.svc.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(e.outcomes()); n != 5 {
		t.Fatalf("%d outcomes, want 5", n)
	}
}

// TestTokenReleaseRedeliversLatched: with no redelivery ticker, an event
// latched while the only token is held is recovered once the holder
// finishes, because every token release redelivers latched events.
func TestTokenReleaseRedeliversLatched(t *testing.T) {
	h := newParkHook()
	e := newRunHereEnv(t, h.hook, Config{Workers: 1, QueueDepth: 1})
	a := e.alloc.Array

	held := make(chan error, 1)
	go func() { _, err := e.deliver(a.Offset(10, 8), nil); held <- err }()
	<-h.arrived

	// The only token is held, and a window member takes the one admission
	// slot: the next delivery is refused and its record stays latched.
	var w Window
	if _, err := e.deliver(a.Offset(50, 8), &w); err != nil {
		t.Fatal(err)
	}
	latchedOff := a.Offset(90, 8)
	if _, err := e.deliver(latchedOff, nil); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("delivery past the bound = %v, want ErrOverloaded", err)
	}
	if banks := e.m.LatchedBanks(); len(banks) != 1 {
		t.Fatalf("latched banks = %v, want one", banks)
	}

	// Nothing but the holders finishing may deliver it now.
	close(h.open)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	e.svc.RunWindow(&w)
	waitFor(t, "the latched event to recover", func() bool {
		for _, r := range e.outcomes() {
			if r.Offset == latchedOff && r.Err == nil {
				return true
			}
		}
		return false
	})
	if banks := e.m.LatchedBanks(); len(banks) != 0 {
		t.Errorf("banks %v still latched", banks)
	}
	if err := e.svc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDrainWaitsForRunHere: Drain during a run-here recovery returns only
// after the recovery's outcome, and closes the journal after its outcome
// record.
func TestDrainWaitsForRunHere(t *testing.T) {
	h := newParkHook()
	jpath := filepath.Join(t.TempDir(), "rec.jsonl")
	e := newRunHereEnv(t, h.hook, Config{Workers: 1, JournalPath: jpath})

	off := e.alloc.Array.Offset(8, 8)
	delivered := make(chan error, 1)
	go func() {
		_, err := e.deliver(off, nil)
		delivered <- err
	}()
	<-h.arrived

	var order []string
	var omu sync.Mutex
	note := func(s string) { omu.Lock(); order = append(order, s); omu.Unlock() }
	drained := make(chan error, 1)
	go func() {
		err := e.svc.Drain(context.Background())
		note("drained")
		drained <- err
	}()
	waitFor(t, "drain to stop intake", func() bool {
		e.svc.mu.Lock()
		defer e.svc.mu.Unlock()
		return e.svc.stopped
	})
	note("released")
	close(h.open)
	if err := <-delivered; err != nil {
		t.Fatal(err)
	}
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "released" {
		t.Errorf("order = %v, want Drain to return after the recovery was released", order)
	}
	out := e.outcomes()
	if len(out) != 1 || out[0].Err != nil {
		t.Fatalf("outcomes = %+v, want one clean outcome", out)
	}
	assertConverged(t, jpath)
}

// TestDrainWaitsForUnrunWindow: a window member admitted before Drain
// still runs after intake stops, and Drain returns only once its owner has
// run it, with the journal closed after the outcome record.
func TestDrainWaitsForUnrunWindow(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "rec.jsonl")
	e := newRunHereEnv(t, nil, Config{Workers: 1, JournalPath: jpath})
	var w Window
	if _, err := e.deliver(e.alloc.Array.Offset(8, 8), &w); err != nil {
		t.Fatal(err)
	}

	// The outcomes that exist when Drain returns: the window's, if Drain
	// waited for it.
	drained := make(chan []Result, 1)
	go func() {
		if err := e.svc.Drain(context.Background()); err != nil {
			t.Error(err)
		}
		drained <- e.outcomes()
	}()
	waitFor(t, "drain to stop intake", func() bool {
		e.svc.mu.Lock()
		defer e.svc.mu.Unlock()
		return e.svc.stopped
	})
	if _, err := e.deliver(e.alloc.Array.Offset(40, 8), &w); !errors.Is(err, ErrStopped) {
		t.Fatalf("delivery during Drain = %v, want ErrStopped", err)
	}
	e.svc.RunWindow(&w)
	if out := <-drained; len(out) != 1 || out[0].Err != nil {
		t.Fatalf("outcomes when Drain returned = %+v, want the window's one clean recovery", out)
	}
	assertConverged(t, jpath)
}

// assertConverged fails the test if the journal at jpath holds dangling
// intents.
func assertConverged(t *testing.T, jpath string) {
	t.Helper()
	jr, dangling, err := journal.OpenRecovery(jpath, false)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	if len(dangling) != 0 {
		t.Errorf("journal holds %d dangling intents after Drain, want 0", len(dangling))
	}
}

// TestBatchMembersRetryAloneWithFullBudget: a run's batched first attempt
// counts against every member's retry budget. Two members of one stripe
// cluster batch; the batch is abandoned once (its first ladder stage stalls
// past the deadline), and each member retries alone and recovers on its
// second attempt.
func TestBatchMembersRetryAloneWithFullBudget(t *testing.T) {
	const deadline = 200 * time.Millisecond
	var stalled atomic.Bool
	e := newRunHereEnv(t, func(core.StageEvent) {
		if stalled.CompareAndSwap(false, true) {
			time.Sleep(deadline + deadline/2)
		}
	}, Config{Workers: 1, Deadline: deadline})
	var w Window
	offs := []int{e.alloc.Array.Offset(10, 8), e.alloc.Array.Offset(11, 8)}
	for _, off := range offs {
		if _, err := e.deliver(off, &w); err != nil {
			t.Fatal(err)
		}
	}
	e.svc.RunWindow(&w)
	out := e.outcomes()
	if len(out) != len(offs) {
		t.Fatalf("%d outcomes, want %d", len(out), len(offs))
	}
	for i, r := range out {
		if r.Offset != offs[i] || r.Err != nil || r.Attempts != 2 {
			t.Errorf("outcome %d = offset %d, err %v, %d attempts; want a clean recovery of %d on attempt 2",
				i, r.Offset, r.Err, r.Attempts, offs[i])
		}
	}
	if st := e.svc.Stats(); st.Retries != 2 || st.Batched != 2 || st.Recovered != 2 {
		t.Errorf("stats = %+v, want 2 retries, 2 batched, 2 recovered", st)
	}
	if err := e.svc.Close(); err != nil {
		t.Fatal(err)
	}
}
