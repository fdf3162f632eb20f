package service

import (
	"context"
	"math"
	"path/filepath"
	"sync"
	"testing"

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

// deliver raises a DUE at offset off of the grid the way the HTTP front end
// raises a single event: staged with the run-here mark, cleared when the
// raise returns.
func (e *runHereEnv) deliver(off int) (*trace.Trace, error) {
	e.alloc.Array.SetOffset(off, math.NaN())
	addr := e.alloc.AddrOf(off)
	tr := trace.New()
	e.svc.StageTrace(addr, tr, true)
	err := e.m.RaiseMemoryDUE(addr, 0)
	e.svc.EndRunHere(addr, tr)
	return tr, err
}

func (e *runHereEnv) outcomes() []Result {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Result(nil), e.out...)
}

// TestRunHereOutcomeBeforeReturn: a marked delivery on an idle service has
// its outcome, journal record and trace before the delivery returns, with
// exactly one (empty) queue_wait span. Without the mark, or once
// EndRunHere cleared it, the delivery returns while its recovery is parked.
func TestRunHereOutcomeBeforeReturn(t *testing.T) {
	h := newParkHook()
	close(h.open)
	e := newRunHereEnv(t, h.hook, Config{Workers: 1,
		JournalPath: filepath.Join(t.TempDir(), "rec.jsonl")})
	e.svc.Start()

	off := e.alloc.Array.Offset(8, 8)
	tr, err := e.deliver(off)
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
	waits := 0
	for _, sp := range tr.Spans() {
		if sp.Stage == trace.StageQueueWait {
			waits++
		}
	}
	if waits != 1 {
		t.Errorf("queue_wait spans = %d, want exactly 1", waits)
	}
	if st := e.svc.Stats(); st.Accepted != 1 || st.Recovered != 1 || st.Batched != 0 || e.svc.QueueLen() != 0 {
		t.Errorf("stats = %+v, queue %d; want 1 accepted and recovered, none batched or queued", st, e.svc.QueueLen())
	}

	// Without the mark, or after EndRunHere cleared it (an event that
	// latched), the delivery is queued and returns before its recovery.
	for _, mark := range []bool{false, true} {
		gate := newParkHook()
		u := newRunHereEnv(t, gate.hook, Config{Workers: 1})
		u.svc.Start()
		uoff := u.alloc.Array.Offset(4, 4)
		u.alloc.Array.SetOffset(uoff, math.NaN())
		addr, utr := u.alloc.AddrOf(uoff), trace.New()
		u.svc.StageTrace(addr, utr, mark)
		u.svc.EndRunHere(addr, utr)
		if err := u.m.RaiseMemoryDUE(addr, 0); err != nil {
			t.Fatal(err)
		}
		<-gate.arrived
		if n := len(u.outcomes()); n != 0 {
			t.Errorf("mark=%v, ended: %d outcomes while the recovery is parked, want 0", mark, n)
		}
		close(gate.open)
		if err := u.svc.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.svc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRunHereQueuesBehindQueuedTask: a marked delivery never overtakes a
// task already in the queue, even with every worker token free.
func TestRunHereQueuesBehindQueuedTask(t *testing.T) {
	e := newRunHereEnv(t, nil, Config{Workers: 1})
	// Not started: the directly submitted task waits in the queue.
	first := e.alloc.Array.Offset(4, 4)
	e.alloc.Array.SetOffset(first, math.NaN())
	if err := e.svc.Submit(e.alloc, first); err != nil {
		t.Fatal(err)
	}
	second := e.alloc.Array.Offset(12, 12)
	if _, err := e.deliver(second); err != nil {
		t.Fatal(err)
	}
	if n := len(e.outcomes()); n != 0 || e.svc.QueueLen() != 2 {
		t.Fatalf("after the marked delivery: %d outcomes, queue %d; want 0 and 2", n, e.svc.QueueLen())
	}
	e.svc.Start()
	if err := e.svc.Close(); err != nil {
		t.Fatal(err)
	}
	out := e.outcomes()
	if len(out) != 2 || out[0].Offset != first || out[1].Offset != second {
		t.Fatalf("outcome order = %+v, want %d then %d", out, first, second)
	}
}

// TestRunHereSharesWorkerTokens: Workers bounds run-here and pool recoveries
// together. With both tokens held by parked run-here recoveries, queued
// tasks and further marked deliveries wait, and no more than two
// recoveries are ever in flight.
func TestRunHereSharesWorkerTokens(t *testing.T) {
	h := newParkHook()
	e := newRunHereEnv(t, h.hook, Config{Workers: 2, QueueDepth: 8, BatchMax: 1})
	e.svc.Start()

	var wg sync.WaitGroup
	runHere := func(off int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.deliver(off); err != nil {
				t.Error(err)
			}
		}()
	}
	a := e.alloc.Array
	runHere(a.Offset(10, 8))
	runHere(a.Offset(50, 8))
	<-h.arrived
	<-h.arrived

	// Both tokens are held: a direct submission is queued, and so is a
	// marked delivery, which therefore returns at once.
	for _, off := range []int{a.Offset(90, 8), a.Offset(130, 8)} {
		a.SetOffset(off, math.NaN())
		if err := e.svc.Submit(e.alloc, off); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.deliver(a.Offset(170, 8)); err != nil {
		t.Fatal(err)
	}
	if n, q := len(e.outcomes()), e.svc.QueueLen(); n != 0 || q != 3 {
		t.Fatalf("with both tokens parked: %d outcomes, queue %d; want 0 and 3", n, q)
	}

	// Let the recoveries go one at a time: each one released frees the
	// token the next queued task starts on, and no third recovery is ever
	// in flight.
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

// TestDrainWaitsForRunHere: Drain during a run-here recovery returns only
// after the recovery's outcome, and closes the journal after its outcome
// record.
func TestDrainWaitsForRunHere(t *testing.T) {
	h := newParkHook()
	jpath := filepath.Join(t.TempDir(), "rec.jsonl")
	e := newRunHereEnv(t, h.hook, Config{Workers: 1, JournalPath: jpath})
	e.svc.Start()

	off := e.alloc.Array.Offset(8, 8)
	delivered := make(chan error, 1)
	go func() {
		_, err := e.deliver(off)
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
	jr, dangling, err := journal.OpenRecovery(jpath, false)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	if len(dangling) != 0 {
		t.Errorf("journal holds %d dangling intents after Drain, want 0", len(dangling))
	}
}
