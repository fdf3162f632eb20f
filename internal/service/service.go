// Package service wraps core.Engine in a long-running, resilient recovery
// front end — the intake layer a fleet-scale deployment puts between MCA
// event streams and the reconstruction math:
//
//   - admission control: past a configurable depth of admitted-but-unstarted
//     recoveries, new DUEs are rejected with ErrOverloaded instead of
//     blocking MCA delivery (the machine keeps the record latched and the
//     service redelivers once capacity frees up; an open breaker declines
//     the same way, and every other refusal consumes the record). Every
//     admitted recovery runs on the goroutine that submitted it, holding one
//     of Config.Workers tokens, so at most that many run at once. A caller
//     that raises its events carrying an Ingest staged with a Window (the
//     HTTP front end's ingest handlers) collects its admitted recoveries
//     there and runs them itself, coalescing same-allocation runs into
//     batches;
//   - a per-recovery context deadline plumbed through the engine's
//     escalation ladder, so a stuck predictor or checkpoint restore cannot
//     hold a token forever;
//   - retry with jittered exponential backoff for transient failures
//     (abandoned/timed-out climbs), while permanent failures
//     (ErrCheckpointRestartRequired) fail fast;
//   - a per-allocation circuit breaker: repeated failed recoveries on the
//     same allocation trip it, degrading that allocation to
//     checkpoint-restart until a probe recovery succeeds;
//   - an optional crash-safe write-ahead journal (internal/journal): every
//     intent is durable before work starts, every outcome after, and a
//     restarted service replays unfinished intents — re-quarantining their
//     offsets — instead of silently losing corrupt elements.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spatialdue/internal/core"
	"spatialdue/internal/faultinject"
	"spatialdue/internal/journal"
	"spatialdue/internal/mca"
	"spatialdue/internal/metrics"
	"spatialdue/internal/registry"
	"spatialdue/internal/trace"
)

// ErrOverloaded is returned by every submission when the admission bound is
// reached. The event is NOT accepted: an MCA delivering it keeps
// the record latched, and the service redelivers once a token frees up.
var ErrOverloaded = errors.New("service: overloaded: recovery queue full")

// ErrStopped is returned by submissions after Drain/Close (or a simulated
// crash).
var ErrStopped = errors.New("service: stopped")

// ErrCircuitOpen is returned (wrapping ErrCheckpointRestartRequired) when
// the target allocation's circuit breaker is open: the allocation is
// degraded to checkpoint-restart until a probe recovery succeeds. Like
// ErrOverloaded it leaves an MCA delivery's record latched.
var ErrCircuitOpen = errors.New("service: circuit open")

// Config parameterizes a Service. Zero values select the documented
// defaults; negative values disable where noted.
type Config struct {
	// Workers is the number of tokens: how many recoveries run at once
	// (default 4).
	Workers int
	// QueueDepth bounds admitted-but-unstarted recoveries (window members
	// not yet run, plus callers waiting for a token); submissions past it
	// get ErrOverloaded (default 64).
	QueueDepth int
	// Deadline bounds each recovery attempt end to end: lock wait, ladder
	// climb, verification. Default 2s; negative disables deadlines.
	Deadline time.Duration
	// MaxRetries is how many times a transient failure (an abandoned,
	// timed-out climb) is retried with backoff before the recovery is
	// declared failed. Default 2; negative disables retries.
	MaxRetries int
	// BackoffBase and BackoffMax shape the jittered exponential backoff
	// between retries (defaults 5ms and 250ms).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BreakerThreshold is the consecutive-failure count that trips an
	// allocation's circuit breaker (default 3; negative disables breakers).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker stays open before
	// admitting a probe recovery (default 5s).
	BreakerCooldown time.Duration
	// BatchMax caps how many of a window's same-allocation recoveries run
	// as one core.RecoverBatch call (default 16; 1 disables batching).
	BatchMax int
	// JournalPath, when set, enables the crash-safe recovery journal.
	JournalPath string
	// JournalSync fsyncs every journal append (full WAL durability).
	JournalSync bool
	// JournalSink, when set (and the journal is enabled), observes every
	// journal record as it is appended — the replication sender's live tap.
	// Called with an internal journal lock held; it must not block.
	JournalSink journal.Sink
	// Seed makes retry jitter deterministic.
	Seed int64
	// OnOutcome, when set, receives every finished recovery (called on the
	// goroutine that ran it; must not block for long).
	OnOutcome func(Result)
	// Shadow, when set, is consulted before any engine recovery: elements
	// the predictive-health tier proactively migrated are restored
	// bit-exactly from the migration shadow (Stage == StageOfflined)
	// instead of running the reconstruction ladder.
	Shadow ShadowSource
}

// ShadowSource serves exact pre-fault copies of proactively migrated
// elements (see internal/predictor.Manager). Restore writes the value back
// under the element's stripe lock, clears quarantine, and reports (old,
// new, true) on a hit; a miss returns ok == false and the recovery proceeds
// normally.
type ShadowSource interface {
	Restore(alloc *registry.Allocation, off int) (old, new float64, ok bool)
}

// Result reports one finished (or terminally failed) recovery.
type Result struct {
	// Alloc and Offset identify the repaired element; Addr is the faulting
	// address as submitted (the element's own for Recover). Tenant is
	// the registry namespace of the allocation (empty outside the networked
	// front end).
	Alloc  string
	Tenant string
	Offset int
	Addr   uint64
	// Outcome is the engine outcome when Err is nil.
	Outcome core.Outcome
	// Err is the terminal error (nil on success).
	Err error
	// Attempts is how many engine attempts were made (1 + retries).
	Attempts int
	// Replayed marks recoveries resubmitted from the journal on restart.
	Replayed bool
	// Probe marks a circuit breaker's half-open probe recovery.
	Probe bool
	// TraceID identifies the recovery's trace (see internal/trace); query
	// the slowest-trace ring or grep logs by it.
	TraceID string
}

// Stats are the service's lifetime counters.
type Stats struct {
	// Submitted counts all submission attempts; Accepted the ones admitted.
	Submitted, Accepted uint64
	// Rejected counts ErrOverloaded rejections; BreakerRejected counts
	// submissions degraded to checkpoint-restart by an open breaker.
	Rejected, BreakerRejected uint64
	// Recovered and Failed count terminal outcomes; Abandoned is the subset
	// of Failed whose final error was a deadline abandonment.
	Recovered, Failed, Abandoned uint64
	// Retries counts backoff retries across all recoveries.
	Retries uint64
	// Batched counts recoveries whose first attempt was a run of two or
	// more members in one core.RecoverBatch (a subset of Recovered+Failed).
	Batched uint64
	// Replayed counts journal intents resubmitted on restart.
	Replayed uint64
	// BreakerTrips counts closed/half-open -> open transitions.
	BreakerTrips uint64
	// ShadowRestored counts recoveries served bit-exactly from the
	// predictive-health tier's migration shadow (a subset of Recovered).
	ShadowRestored uint64
}

// task is one admitted recovery.
type task struct {
	alloc     *registry.Allocation
	addr      uint64
	off       int
	detected  float64
	id        uint64 // journal intent id (valid when journaled)
	journaled bool
	replayed  bool
	probe     bool
	tr        *trace.Trace
	enqueued  time.Time // when the task was admitted (queue_wait span)
	res       *Result   // where finishTask also writes the Result (Recover)
}

// A Window holds the admitted recoveries one goroutine will run itself.
// Its owner stages each event with the window (Stage), raises it through
// the MCA carrying the returned Ingest, and ends the staging (EndStaging);
// a delivery of that record in between is admitted into the window and
// returns at once, so the bank frees before the recovery runs. The owner
// then runs the window with RunWindow, and must do so: its members count
// against QueueDepth, and Drain waits for them, until they have run. The
// zero Window is empty and ready to use.
type Window struct {
	mu    sync.Mutex
	open  *Ingest // the staged event whose delivery may still join
	tasks []task
}

// An Ingest is what one ingested event's MCA record carries (mca.Event.Data)
// to the service's handler: the event's trace, and the window its delivery
// joins until the stager ends the staging. A redelivery of a record that
// latched carries the same Ingest, so the trace spans the latched wait. The
// trace lives inside the Ingest: one allocation per event.
type Ingest struct {
	tr  trace.Trace
	win *Window
}

// Trace returns the event's trace.
func (in *Ingest) Trace() *trace.Trace { return &in.tr }

// Stage mints the Ingest for one event about to be raised, its trace
// carrying id (a fresh ID when empty), and lets that event's delivery join
// w until EndStaging.
func (w *Window) Stage(id string) *Ingest {
	in := &Ingest{win: w}
	in.tr.Init(id)
	w.mu.Lock()
	w.open = in
	w.mu.Unlock()
	return in
}

// EndStaging ends the window's claim on the event last staged with it: a
// delivery of that event later (the redelivery of a record that latched)
// runs where it is delivered instead of joining the window.
func (w *Window) EndStaging() {
	w.mu.Lock()
	w.open = nil
	w.mu.Unlock()
}

// join adds t to w if in is still the event staged with w; it reports
// whether it did.
func (w *Window) join(in *Ingest, t task) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.open != in {
		return false
	}
	w.tasks = append(w.tasks, t)
	return true
}

// Len reports how many admitted recoveries wait in w.
func (w *Window) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.tasks)
}

// Service is the resilient recovery front end. Create with New, run the
// journal replay with Start, stop with Drain/Close.
type Service struct {
	eng *core.Engine
	cfg Config
	jr  *journal.Recovery

	// tokens holds one entry per running recovery set; its capacity is
	// Config.Workers.
	tokens chan struct{}
	wg     sync.WaitGroup // admitted tasks not yet run
	// redelivering keeps RedeliverLatched single-flight.
	redelivering atomic.Bool

	rngMu sync.Mutex
	rng   *rand.Rand

	mu       sync.Mutex
	breakers map[string]*breaker
	pendingN int    // reserved admission slots: admitted tasks not yet started
	replay   []task // journal replay window, run by Start
	stopped  bool
	crashed  string // crash point, when a simulated crash killed the service
	stats    Stats
	machine  *mca.Machine
}

// New creates a service over eng. When cfg.JournalPath is set, the journal
// is opened and every unfinished intent from a previous run is replayed:
// its offset is re-quarantined immediately and its recovery joins the
// replay window (counted in Stats.Replayed). Allocations must therefore be
// registered — under the same names — before New is called. The replay
// window does not run until Start, so callers may inspect the replayed
// state first.
func New(eng *core.Engine, cfg Config) (*Service, error) {
	if eng == nil {
		return nil, fmt.Errorf("service: nil engine")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Deadline == 0 {
		cfg.Deadline = 2 * time.Second
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 2
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 5 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 250 * time.Millisecond
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 5 * time.Second
	}
	if cfg.BatchMax == 0 {
		cfg.BatchMax = 16
	}
	if cfg.BatchMax < 1 {
		cfg.BatchMax = 1
	}

	s := &Service{
		eng:      eng,
		cfg:      cfg,
		tokens:   make(chan struct{}, cfg.Workers),
		breakers: map[string]*breaker{},
		rng:      rand.New(rand.NewSource(cfg.Seed ^ 0x5eed)),
	}

	if cfg.JournalPath != "" {
		jr, dangling, err := journal.OpenRecovery(cfg.JournalPath, cfg.JournalSync)
		if err != nil {
			return nil, err
		}
		if cfg.JournalSink != nil {
			// Installed before replay so the partner sees replay close-outs
			// (orphaned intents) too, not just post-restart traffic.
			jr.SetSink(cfg.JournalSink)
		}
		s.jr = jr
		for _, in := range dangling {
			s.replayIntent(in)
		}
	}
	return s, nil
}

// Config returns the configuration the service runs with, defaults
// applied.
func (s *Service) Config() Config { return s.cfg }

// replayIntent re-quarantines one unfinished journal intent and adds its
// recovery to the replay window.
func (s *Service) replayIntent(in journal.Intent) {
	alloc, ok := s.eng.Table().ByTenantName(in.Tenant, in.Alloc)
	if !ok || in.Offset < 0 || in.Offset >= alloc.Array.Len() {
		// The allocation vanished across the restart: the intent can never
		// be replayed. Close it out so the journal converges.
		_ = s.jr.Finish(in.ID, false, "orphaned on replay: allocation not registered")
		return
	}
	// The crash that orphaned this intent may also have mangled the
	// allocation's descriptor. Re-verify (repairing in place when the parity
	// allows) before trusting its address math; a descriptor the parity
	// cannot prove correct must not direct a repair — the intent is closed
	// out as failed so the operator escalates to checkpoint-restore.
	if err := s.eng.Table().VerifyDescriptor(alloc); err != nil {
		_ = s.jr.Finish(in.ID, false, fmt.Sprintf("refused on replay: %v", err))
		return
	}
	// Re-quarantine first: even before Start runs the replay, no stencil
	// may trust the possibly-corrupt cell the crash left behind.
	s.eng.MarkCorrupt(alloc, in.Offset)
	tr := trace.New()
	tr.SetReplayed()
	s.pendingN++
	s.stats.Replayed++
	s.replay = append(s.replay, task{
		alloc: alloc, addr: in.Addr, off: in.Offset, detected: in.Detected,
		id: in.ID, journaled: true, replayed: true,
		tr: tr, enqueued: time.Now(),
	})
}

// Start runs the journal replay window New built, on a goroutine of its
// own; Drain waits for it. Idempotent.
func (s *Service) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped || len(s.replay) == 0 {
		return
	}
	ts := s.replay
	s.replay = nil
	s.wg.Add(len(ts))
	go s.runTasks(ts)
}

// AttachMCA registers the service as a machine-check handler. A delivery
// whose record carries an Ingest (Window.Stage) recovers under the Ingest's
// trace, and while the Ingest is staged with its window it joins the window
// and returns at once; every other delivery — latched and overflowed
// redeliveries included — runs its recovery before the handler returns.
// The handler is the one place that decides latching: the backpressure
// refusals ErrOverloaded and ErrCircuitOpen decline the event, which stays
// latched in its bank until the service calls RedeliverLatched (whenever a
// token frees); every other refusal is final (mca.Reject), so the machine
// clears the bank and the event is never redelivered.
func (s *Service) AttachMCA(m *mca.Machine) {
	s.mu.Lock()
	s.machine = m
	s.mu.Unlock()
	m.Handle(func(ev mca.Event) error {
		if !ev.IsDUE() {
			return fmt.Errorf("service: not a recoverable DUE: %v", ev)
		}
		in, _ := ev.Data.(*Ingest)
		err := s.submitAddress(ev.Addr, in)
		if err != nil && !errors.Is(err, ErrOverloaded) && !errors.Is(err, ErrCircuitOpen) {
			return mca.Reject(err)
		}
		return err
	})
}

// SubmitAddress admits the DUE at a faulting physical address and runs it
// before returning. It returns nil when the recovery was accepted,
// ErrOverloaded when the admission bound is reached, ErrCircuitOpen
// (wrapping ErrCheckpointRestartRequired) when the allocation is degraded,
// and ErrCheckpointRestartRequired when the address is not registered. The
// recovery's own result goes to OnOutcome.
func (s *Service) SubmitAddress(addr uint64) error { return s.submitAddress(addr, nil) }

// submitAddress is SubmitAddress for a delivery carrying in (nil: none).
func (s *Service) submitAddress(addr uint64, in *Ingest) error {
	alloc, off, err := s.eng.Table().Lookup(addr)
	if err != nil {
		// Double-wrap: registry.ErrMetadataCorrupt must stay matchable so
		// the HTTP layer maps corrupt-descriptor refusals to 422, not 404.
		err = fmt.Errorf("%w: %w", core.ErrCheckpointRestartRequired, err)
	}
	var tr *trace.Trace
	if in != nil {
		tr = &in.tr
	}
	t, err := s.submit(alloc, addr, off, false, tr, err)
	if err == nil && (in == nil || !in.win.join(in, t)) {
		s.runTasks([]task{t})
	}
	return err
}

// Recover admits and runs one recovery of a known allocation element on
// the calling goroutine (the HTTP front end's explicit /recover, detector
// paths that localize corruption without a physical address). It is an
// ordinary submission: a token, QueueDepth, the breaker, the journal intent
// and outcome, the outcome feed. tr, when non-nil, is the recovery's trace;
// otherwise one is minted. The error is the admission refusal
// (ErrOverloaded, ErrCircuitOpen, ErrStopped, an offset out of range, a
// journal intent that failed). An admitted recovery returns its Result,
// with its trace finished and its own error in Result.Err — ErrStopped when
// a crash dropped it.
func (s *Service) Recover(alloc *registry.Allocation, off int, tr *trace.Trace) (Result, error) {
	t, err := s.submit(alloc, 0, off, false, tr, nil)
	if err != nil {
		return Result{}, err
	}
	res := Result{Alloc: alloc.Name, Tenant: alloc.Tenant, Offset: off, Err: ErrStopped}
	t.res = &res
	s.runTasks([]task{t})
	return res, nil
}

// SubmitReplayed admits a recovery replayed from a replicated journal — the
// cross-node analogue of the restart replay in New — and runs it before
// returning. The intent originated on another node; this node journals a
// fresh local intent for it, quarantines the offset, and runs it through
// the normal pipeline. The recovery is marked Replayed in its Result and
// counted in Stats.Replayed. Callers see the same admission errors as
// Recover (retry ErrOverloaded with backoff: promotion replay must not drop
// intents just because a storm is running).
func (s *Service) SubmitReplayed(alloc *registry.Allocation, addr uint64, off int) error {
	t, err := s.submit(alloc, addr, off, true, nil, nil)
	if err == nil {
		s.runTasks([]task{t})
	}
	return err
}

// submit is every entry point's admission path. Its prologue counts each
// attempt once, so Stats.Submitted sees rejections too: a target the entry
// point could not resolve (err), an offset outside the array, a stopped
// service, a full admission bound. It then reserves a slot, asks the
// breaker, quarantines at intake and writes the journal intent, and returns
// the admitted task, which the caller runs or adds to a window. tr, when
// non-nil, is the recovery's trace; otherwise one is minted. addr 0 means
// the element's own address.
func (s *Service) submit(alloc *registry.Allocation, addr uint64, off int, replayed bool, tr *trace.Trace, err error) (task, error) {
	if err == nil && (off < 0 || off >= alloc.Array.Len()) {
		err = fmt.Errorf("%w: offset %d out of range", core.ErrCheckpointRestartRequired, off)
	}
	// Admission control: reserve a slot or reject immediately — never block
	// the deliverer.
	s.mu.Lock()
	s.stats.Submitted++
	switch {
	case err != nil:
	case s.stopped:
		err = ErrStopped
	case s.pendingN >= s.cfg.QueueDepth:
		s.stats.Rejected++
		err = ErrOverloaded
	default:
		s.pendingN++
	}
	s.mu.Unlock()
	if err != nil {
		return task{}, err
	}
	if addr == 0 {
		addr = alloc.AddrOf(off)
	}

	release := func() {
		s.mu.Lock()
		s.pendingN--
		s.mu.Unlock()
	}

	// Circuit breaker: a degraded allocation goes straight to
	// checkpoint-restart without taking a token. Breakers are keyed by
	// tenant-qualified name so same-named allocations of different tenants
	// trip independently.
	probe := false
	if br := s.breakerFor(alloc.QualifiedName()); br != nil {
		var ok bool
		probe, ok = br.allow()
		if !ok {
			release()
			s.mu.Lock()
			s.stats.BreakerRejected++
			s.mu.Unlock()
			return task{}, fmt.Errorf("%w: allocation %q degraded to checkpoint-restart: %w",
				ErrCircuitOpen, alloc.QualifiedName(), core.ErrCheckpointRestartRequired)
		}
	}

	if tr == nil {
		tr = trace.New()
	}
	if replayed {
		tr.SetReplayed()
	}

	// Quarantine at intake: from this moment the corrupt cell is masked
	// out of every stencil, even while the task waits in a window. Record
	// whether the cell was already quarantined (a redelivered or duplicate
	// report): the rejection paths below must restore the pre-submit state,
	// not clear a quarantine some earlier submission still owns.
	wasQuarantined := s.eng.IsQuarantined(alloc, off)
	s.eng.MarkCorrupt(alloc, off)
	detected := alloc.Array.AtOffset(off)
	unquarantine := func() {
		if !wasQuarantined {
			s.eng.ClearCorrupt(alloc, off)
		}
	}

	// Write-ahead intent: durable before any work begins.
	t := task{alloc: alloc, addr: addr, off: off, detected: detected, probe: probe, replayed: replayed, tr: tr}
	if s.jr != nil {
		t0 := time.Now()
		id, err := s.jr.Begin(alloc.Tenant, alloc.Name, addr, off, detected)
		tr.Observe(trace.StageJournalBegin, t0)
		if err != nil {
			// Rejected submission: no task will ever run, so leaving the
			// element quarantined would mask it forever with nothing
			// scheduled to repair it.
			unquarantine()
			release()
			return task{}, fmt.Errorf("service: journal intent: %w", err)
		}
		t.id, t.journaled = id, true
	}

	faultinject.HookPoint("service/pre-enqueue")

	s.mu.Lock()
	if s.stopped {
		s.pendingN--
		s.mu.Unlock()
		// Same leak as the journal-error path: the submission is rejected, so
		// restore the pre-submit quarantine state and close out the dangling
		// intent (otherwise a restart would replay a recovery that was never
		// admitted). The close-out is best-effort: a concurrent Drain may
		// have closed the log already, and replay converges the orphan anyway.
		unquarantine()
		if t.journaled {
			_ = s.jr.Finish(t.id, false, "rejected: service stopped")
		}
		return task{}, ErrStopped
	}
	t.enqueued = time.Now()
	s.stats.Accepted++
	if replayed {
		s.stats.Replayed++
	}
	s.wg.Add(1)
	s.mu.Unlock()
	return t, nil
}

// RunWindow runs the recoveries admitted into w on the calling goroutine
// and empties w. An empty window returns at once.
func (s *Service) RunWindow(w *Window) {
	w.mu.Lock()
	ts := w.tasks
	w.tasks = nil
	w.mu.Unlock()
	s.runTasks(ts)
}

// runTasks takes admitted tasks to their outcomes on the calling
// goroutine: it waits for a token, runs the tasks in same-allocation runs
// of at most BatchMax, and releases the token, which triggers one
// redelivery of latched events.
func (s *Service) runTasks(ts []task) {
	if len(ts) == 0 {
		return
	}
	s.tokens <- struct{}{}
	s.mu.Lock()
	s.pendingN -= len(ts)
	s.mu.Unlock()
	for rest := ts; len(rest) > 0; {
		n := 1
		for n < len(rest) && n < s.cfg.BatchMax && rest[n].alloc == rest[0].alloc {
			n++
		}
		s.run(rest[:n])
		rest = rest[n:]
	}
	<-s.tokens
	s.wg.Add(-len(ts))
	s.redeliver()
}

// redeliver pulls back MCA events whose delivery failed while the service
// was overloaded, now that a token freed. It is single-flight: a call that
// finds another in progress returns, and the RedeliverEvery ticker of the
// HTTP front end covers an idle service.
func (s *Service) redeliver() {
	s.mu.Lock()
	m := s.machine
	room := s.pendingN < s.cfg.QueueDepth && !s.stopped
	s.mu.Unlock()
	if m == nil || !room || !s.redelivering.CompareAndSwap(false, true) {
		return
	}
	defer s.redelivering.Store(false)
	m.RedeliverLatched()
}

// breakerFor returns (creating on demand) the allocation's breaker, or nil
// when breakers are disabled.
func (s *Service) breakerFor(name string) *breaker {
	if s.cfg.BreakerThreshold < 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.breakers[name]
	if !ok {
		b = newBreaker(s.cfg.BreakerThreshold, s.cfg.BreakerCooldown, time.Now)
		s.breakers[name] = b
	}
	return b
}

// ForgetBreaker drops the circuit breaker of an allocation by its
// tenant-qualified name. The HTTP front end calls it when an allocation is
// unregistered, so the breaker map does not grow without bound as
// allocations come and go.
func (s *Service) ForgetBreaker(name string) {
	s.mu.Lock()
	delete(s.breakers, name)
	s.mu.Unlock()
}

// BreakerState reports the circuit state of an allocation by its
// tenant-qualified name (BreakerClosed for unknown or disabled breakers).
func (s *Service) BreakerState(name string) BreakerState {
	s.mu.Lock()
	b := s.breakers[name]
	s.mu.Unlock()
	if b == nil {
		return BreakerClosed
	}
	return b.snapshot()
}

// BreakerStates snapshots every allocation breaker the service has touched,
// keyed by tenant-qualified allocation name — the readiness endpoint's view
// of which allocations are degraded.
func (s *Service) BreakerStates() map[string]BreakerState {
	s.mu.Lock()
	bs := make(map[string]*breaker, len(s.breakers))
	for name, b := range s.breakers {
		bs[name] = b
	}
	s.mu.Unlock()
	out := make(map[string]BreakerState, len(bs))
	for name, b := range bs {
		out[name] = b.snapshot()
	}
	return out
}

// run takes a same-allocation run of tasks, whose caller holds a token, to
// their outcomes: one attempt loop for every run. The first attempt is one
// RecoverBatch under one deadline. Every member is already quarantined
// (MarkCorrupt at intake), so the batch is bit-identical to recovering the
// run sequentially in submission order — see core/batch.go. Each member
// that comes back transient (abandoned by the deadline) retries alone, a
// RecoverBatch of one under its own deadline after a jittered backoff, up
// to MaxRetries times: every member has the same budget, and the batched
// attempt counts as its first.
func (s *Service) run(ts []task) {
	defer s.survive()
	// Queue wait ends here, once per task.
	for i := range ts {
		ts[i].tr.Observe(trace.StageQueueWait, ts[i].enqueued)
	}
	if s.isCrashed() {
		// Simulated process death: admitted work is lost with the process
		// (the journal has its intents).
		return
	}
	// Elements the predictive-health tier migrated before their DUE are
	// served from the shadow — no ladder, no stripe contention, and the
	// restored value is bit-exact by construction.
	if s.cfg.Shadow != nil {
		kept := ts[:0]
		for _, tt := range ts {
			if !s.shadowRestore(tt) {
				kept = append(kept, tt)
			}
		}
		ts = kept
	}
	if len(ts) == 0 {
		return
	}
	stage := "single"
	if len(ts) > 1 {
		stage = "batch"
		s.mu.Lock()
		s.stats.Batched += uint64(len(ts))
		s.mu.Unlock()
	}
	// Goroutine labels make CPU profiles attributable: samples inside the
	// ladder show up under their allocation and pipeline stage. One label
	// set per run; the lead member's trace ID names it in profiles (member
	// IDs are in the outcome feed).
	pprof.Do(context.Background(), pprof.Labels(
		"alloc", ts[0].alloc.QualifiedName(), "stage", stage, "trace", ts[0].tr.ID(),
	), func(base context.Context) {
		for i, r := range s.attempt(base, ts) {
			attempts := 1
			for r.Err != nil && transient(r.Err) && attempts <= s.cfg.MaxRetries && !s.isCrashed() {
				s.mu.Lock()
				s.stats.Retries++
				s.mu.Unlock()
				time.Sleep(s.backoff(attempts))
				attempts++
				r = s.attempt(base, ts[i:i+1])[0]
			}
			if s.isCrashed() {
				return
			}
			s.finishTask(ts[i], r.Outcome, r.Err, attempts)
		}
	})
}

// shadowRestore serves one task from the migration shadow if it holds the
// element, finishing the task with StageOfflined. Returns false on a miss.
func (s *Service) shadowRestore(t task) bool {
	old, val, ok := s.cfg.Shadow.Restore(t.alloc, t.off)
	if !ok {
		return false
	}
	s.mu.Lock()
	s.stats.ShadowRestored++
	s.mu.Unlock()
	out := core.Outcome{
		Allocation: t.alloc, Offset: t.off,
		Stage: core.StageOfflined, Old: old, New: val,
	}
	s.finishTask(t, out, nil, 1)
	return true
}

// attempt is one RecoverBatch of ts under one deadline. The engine records
// spans into the tasks' traces and leaves finishing them to finishTask,
// after the journal write.
func (s *Service) attempt(base context.Context, ts []task) []core.BatchResult {
	// RecoverBatch keeps neither slice, so a run of up to the default
	// BatchMax builds them on the stack.
	var offBuf [16]int
	var trBuf [16]*trace.Trace
	offs, traces := offBuf[:0], trBuf[:0]
	for _, t := range ts {
		offs, traces = append(offs, t.off), append(traces, t.tr)
	}
	ctx := base
	if s.cfg.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(base, s.cfg.Deadline)
		defer cancel()
	}
	return s.eng.RecoverBatch(ctx, ts[0].alloc, offs, traces...)
}

// finishTask applies the terminal bookkeeping for one recovery: breaker
// update, counters, journal completion, and the outcome callback.
func (s *Service) finishTask(t task, out core.Outcome, err error, attempts int) {
	if br := s.breakerFor(t.alloc.QualifiedName()); br != nil {
		if err == nil {
			br.onSuccess()
		} else if br.onFailure() {
			s.mu.Lock()
			s.stats.BreakerTrips++
			s.mu.Unlock()
		}
	}

	s.mu.Lock()
	if err == nil {
		s.stats.Recovered++
	} else {
		s.stats.Failed++
		if errors.Is(err, core.ErrRecoveryAbandoned) {
			s.stats.Abandoned++
		}
	}
	s.mu.Unlock()

	// One detail string serves the journal record and the trace outcome.
	var detail string
	if err != nil {
		detail = err.Error()
	} else {
		detail = fmt.Sprintf("method=%v stage=%v attempts=%d", out.Method, out.Stage, attempts)
	}

	if t.journaled && !s.isCrashed() {
		faultinject.CrashPoint("service/recovery-done")
		// A successful outcome carries the recovered value's exact bit
		// pattern: the replication partner applies it to its replica field,
		// so a promoted shard serves bit-identical data.
		var newBits uint64
		if err == nil {
			newBits = math.Float64bits(out.New)
		}
		t0 := time.Now()
		if jerr := s.jr.FinishValue(t.id, err == nil, detail, newBits); jerr != nil && err == nil {
			err = jerr
			detail = err.Error()
		}
		t.tr.Observe(trace.StageJournalFinish, t0)
	}

	// Terminal: annotate and hand the trace to the collector. The engine
	// already stamped target and outcome, but the journal write above can
	// flip the final error, so re-stamp here with the authoritative result.
	t.tr.SetTarget(t.alloc.Name, t.alloc.Tenant, t.off)
	t.tr.SetOutcome(err == nil, detail)
	s.eng.Tracer().Finish(t.tr)

	r := Result{
		Alloc: t.alloc.Name, Tenant: t.alloc.Tenant, Offset: t.off, Addr: t.addr,
		Outcome: out, Err: err, Attempts: attempts,
		Replayed: t.replayed, Probe: t.probe, TraceID: t.tr.ID(),
	}
	if t.res != nil {
		*t.res = r
	}
	if s.cfg.OnOutcome != nil {
		s.cfg.OnOutcome(r)
	}
}

// survive turns the panic of an armed crash point into the simulated death
// of the service; any other panic propagates.
func (s *Service) survive() {
	if r := recover(); r != nil {
		point, ok := faultinject.IsCrash(r)
		if !ok {
			panic(r)
		}
		s.die(point)
	}
}

// transient reports whether a recovery error is worth retrying: abandoned
// (timed-out) climbs are; ladder exhaustion and unregistered addresses are
// permanent.
func transient(err error) bool {
	return errors.Is(err, core.ErrRecoveryAbandoned)
}

// backoff returns the jittered exponential delay before retry n (1-based).
func (s *Service) backoff(n int) time.Duration {
	d := s.cfg.BackoffBase << uint(n-1)
	if d > s.cfg.BackoffMax || d <= 0 {
		d = s.cfg.BackoffMax
	}
	// Full jitter in [d/2, d]: desynchronizes retry storms while keeping
	// the expected delay close to the nominal curve.
	s.rngMu.Lock()
	j := time.Duration(s.rng.Int63n(int64(d)/2 + 1))
	s.rngMu.Unlock()
	return d/2 + j
}

// die freezes the service in response to an armed crash point: submissions
// fail, admitted tasks are dropped, and no further journal records are
// written — the closest a test can get to kill -9 without losing the
// process.
func (s *Service) die(point string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed == "" {
		s.crashed = point
	}
	s.stopped = true
}

// Kill simulates abrupt process death (kill -9): submissions fail
// immediately, admitted tasks are dropped, and no further journal records
// are written — not even close-outs. Unlike Drain nothing is flushed or
// closed cleanly; the journal file is left exactly as the "dead" process
// had it, which is what a cluster partner replaying the replicated journal
// must cope with.
func (s *Service) Kill() { s.die("killed") }

func (s *Service) isCrashed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashed != ""
}

// Crashed reports whether a simulated crash killed the service, and at
// which crash point.
func (s *Service) Crashed() (point string, crashed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashed, s.crashed != ""
}

// QueueLen returns the number of admitted-but-unstarted recoveries: window
// members not yet run, plus callers waiting for a token. QueueDepth bounds
// it.
func (s *Service) QueueLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pendingN
}

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Drain gracefully shuts the service down: intake stops (submissions get
// ErrStopped), every admitted recovery completes — window members not yet
// run and a started replay included — and the journal is closed. The
// context bounds the wait.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("service: drain: %w", ctx.Err())
	}
	if s.jr != nil && !s.isCrashed() {
		return s.jr.Close()
	}
	return nil
}

// Close is Drain without a bound.
func (s *Service) Close() error { return s.Drain(context.Background()) }

// WriteMetrics exports the service counters in the Prometheus text format,
// complementing the engine's own WriteMetrics.
func (s *Service) WriteMetrics(w io.Writer) error {
	st := s.Stats()
	mw := metrics.NewWriter(w)
	mw.Counter("spatialdue_service_submitted_total", "Recovery submissions (incl. rejected).", st.Submitted)
	mw.Counter("spatialdue_service_rejected_total", "Submissions rejected with ErrOverloaded.", st.Rejected)
	mw.Counter("spatialdue_service_breaker_rejected_total", "Submissions degraded by an open breaker.", st.BreakerRejected)
	mw.Counter("spatialdue_service_recovered_total", "Recoveries completed successfully.", st.Recovered)
	mw.Counter("spatialdue_service_failed_total", "Recoveries that failed terminally.", st.Failed)
	mw.Counter("spatialdue_service_abandoned_total", "Failed recoveries whose final attempt hit the deadline.", st.Abandoned)
	mw.Counter("spatialdue_service_retries_total", "Backoff retries.", st.Retries)
	mw.Counter("spatialdue_service_batched_total", "Recoveries coalesced through RecoverBatch.", st.Batched)
	mw.Counter("spatialdue_service_replayed_total", "Journal intents replayed on restart.", st.Replayed)
	mw.Counter("spatialdue_service_breaker_trips_total", "Circuit breaker trips.", st.BreakerTrips)
	mw.Counter("spatialdue_service_shadow_restored_total", "Recoveries served from the predictive-health migration shadow.", st.ShadowRestored)
	mw.Gauge("spatialdue_service_queue_depth", "Queued-but-unstarted recoveries.", s.QueueLen())
	if states := s.BreakerStates(); len(states) > 0 {
		names := make([]string, 0, len(states))
		for name := range states {
			names = append(names, name)
		}
		sort.Strings(names)
		mw.Family("spatialdue_service_breaker_state", "Circuit breaker state per allocation (1 on the current state).", metrics.Gauge)
		for _, name := range names {
			mw.Sample(1, "alloc", name, "state", states[name].String())
		}
	}
	return mw.Err()
}
