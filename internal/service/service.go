// Package service wraps core.Engine in a long-running, resilient recovery
// front end — the intake layer a fleet-scale deployment puts between MCA
// event streams and the reconstruction math:
//
//   - admission control: past a configurable queue depth, new DUEs are
//     rejected with ErrOverloaded instead of blocking MCA delivery (the
//     machine keeps the record latched and the service redelivers once
//     capacity frees up), and at most Config.Workers recoveries run at
//     once. An MCA delivery whose address the caller staged with the
//     run-here mark (the HTTP front end's single POST /v1/events) runs to
//     its outcome on the delivering goroutine when a worker token is free
//     and nothing is queued; every other submission is queued for the
//     worker goroutines, which coalesce backed-up same-allocation runs
//     into batches;
//   - a per-recovery context deadline plumbed through the engine's
//     escalation ladder, so a stuck predictor or checkpoint restore cannot
//     wedge a worker;
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
	"time"

	"spatialdue/internal/core"
	"spatialdue/internal/faultinject"
	"spatialdue/internal/journal"
	"spatialdue/internal/mca"
	"spatialdue/internal/metrics"
	"spatialdue/internal/registry"
	"spatialdue/internal/trace"
)

// ErrOverloaded is returned by Submit/SubmitAddress when the admission
// queue is full. The event is NOT accepted: an MCA delivering it keeps the
// record latched, and the service redelivers once a worker frees up.
var ErrOverloaded = errors.New("service: overloaded: recovery queue full")

// ErrStopped is returned by submissions after Drain/Close (or a simulated
// crash).
var ErrStopped = errors.New("service: stopped")

// ErrCircuitOpen is returned (wrapping ErrCheckpointRestartRequired) when
// the target allocation's circuit breaker is open: the allocation is
// degraded to checkpoint-restart until a probe recovery succeeds.
var ErrCircuitOpen = errors.New("service: circuit open")

// Config parameterizes a Service. Zero values select the documented
// defaults; negative values disable where noted.
type Config struct {
	// Workers bounds concurrent recoveries, pool and run-here together
	// (default 4).
	Workers int
	// QueueDepth bounds queued-but-unstarted recoveries; submissions past
	// it get ErrOverloaded (default 64).
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
	// BatchMax caps how many queued same-allocation recoveries a worker
	// coalesces into one core.RecoverBatch call (default 16; 1 disables
	// batching). Batching only engages when the queue is backed up — a
	// worker never waits for a batch to fill.
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
	// OnOutcome, when set, receives every finished recovery (called from
	// worker goroutines; must not block for long).
	OnOutcome func(Result)
	// Shadow, when set, is consulted before any engine recovery: elements
	// the predictive-health tier proactively migrated are restored
	// bit-exactly from the migration shadow (Stage == StageOfflined)
	// instead of running the reconstruction ladder.
	Shadow ShadowSource
}

// ShadowSource serves exact pre-fault copies of proactively migrated
// elements (see internal/predictor.Manager). Restore writes the value back
// under the array lock, clears quarantine, and reports (old, new, true) on
// a hit; a miss returns ok == false and the recovery proceeds normally.
type ShadowSource interface {
	Restore(alloc *registry.Allocation, off int) (old, new float64, ok bool)
}

// Result reports one finished (or terminally failed) recovery.
type Result struct {
	// Alloc and Offset identify the repaired element; Addr is the faulting
	// address as submitted (0 for direct Submit calls on offset). Tenant is
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
	// Batched counts recoveries that went through the coalesced
	// core.RecoverBatch fast path (a subset of Recovered+Failed).
	Batched uint64
	// Replayed counts journal intents resubmitted on restart.
	Replayed uint64
	// BreakerTrips counts closed/half-open -> open transitions.
	BreakerTrips uint64
	// ShadowRestored counts recoveries served bit-exactly from the
	// predictive-health tier's migration shadow (a subset of Recovered).
	ShadowRestored uint64
}

// task is one queued recovery.
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
}

// intake is where a submission came from; it decides the admission tail.
type intake uint8

const (
	intakeDirect   intake = iota // Submit, SubmitAddress: queued
	intakeReplay                 // SubmitReplayed: queued, marked Replayed
	intakeDelivery               // an MCA delivery: runs here when its staging is marked
)

// Service is the resilient recovery front end. Create with New, launch
// workers with Start, stop with Drain/Close.
type Service struct {
	eng *core.Engine
	cfg Config
	jr  *journal.Recovery

	queue chan task
	// tokens holds one entry per running recovery, pool or run-here; its
	// capacity is Config.Workers.
	tokens chan struct{}
	wg     sync.WaitGroup // pool workers and run-here recoveries

	rngMu sync.Mutex
	rng   *rand.Rand

	mu       sync.Mutex
	breakers map[string]*breaker
	pendingN int // reserved admission slots: in admission, queued, or taken but not started
	queuedN  int // queued tasks not yet started (run-here waits for 0)
	stopped  bool
	started  bool
	crashed  string // crash point, when a simulated crash killed the service
	stats    Stats
	machine  *mca.Machine

	// Traces staged by faulting address before the event enters the MCA
	// delivery path (the HTTP front end parses traceparent headers there).
	// Staging by address — rather than threading tokens through the MCA
	// simulator — lets a trace survive bank latching: an overloaded or
	// circuit-open event stays staged, and the redelivered submission claims
	// it, so the trace spans the latched wait.
	stagedMu sync.Mutex
	staged   map[uint64]staging
}

// staging is one staged trace; runHere marks the synchronous delivery of a
// single event until its stager clears the mark.
type staging struct {
	tr      *trace.Trace
	runHere bool
}

// stagedTraceCap bounds the staged-trace map: past it new stagings are
// dropped (those recoveries run untraced-by-ingest and mint their own IDs),
// so a storm of latched events cannot grow memory without bound.
const stagedTraceCap = 4096

// StageTrace associates tr with a faulting address about to be raised
// through the MCA machine. The next submission for addr claims it. runHere
// marks the raise as the synchronous delivery of a single event: an MCA
// delivery that claims a marked staging runs its recovery on the
// delivering goroutine when a worker token is free and nothing is queued.
// The stager clears the mark with EndRunHere once its raise returns.
func (s *Service) StageTrace(addr uint64, tr *trace.Trace, runHere bool) {
	if tr == nil {
		return
	}
	s.stagedMu.Lock()
	if s.staged == nil {
		s.staged = map[uint64]staging{}
	}
	if len(s.staged) < stagedTraceCap {
		s.staged[addr] = staging{tr: tr, runHere: runHere}
	}
	s.stagedMu.Unlock()
}

// EndRunHere clears the run-here mark of tr's staging at addr, if it is
// still staged: an event that latched keeps its trace for the redelivery,
// and the redelivery is queued.
func (s *Service) EndRunHere(addr uint64, tr *trace.Trace) {
	s.stagedMu.Lock()
	if st, ok := s.staged[addr]; ok && st.tr == tr {
		s.staged[addr] = staging{tr: tr}
	}
	s.stagedMu.Unlock()
}

// UnstageTrace removes and returns the trace staged for addr (nil if none).
// The HTTP front end calls it when an event is terminally rejected, so the
// staged map does not accumulate traces for recoveries that will never run.
func (s *Service) UnstageTrace(addr uint64) *trace.Trace {
	tr, _ := s.claimTrace(addr)
	return tr
}

// claimTrace hands the staged trace for addr, and its run-here mark, to an
// admitted submission.
func (s *Service) claimTrace(addr uint64) (*trace.Trace, bool) {
	s.stagedMu.Lock()
	st, ok := s.staged[addr]
	if ok {
		delete(s.staged, addr)
	}
	s.stagedMu.Unlock()
	return st.tr, st.runHere
}

// New creates a service over eng. When cfg.JournalPath is set, the journal
// is opened and every unfinished intent from a previous run is replayed:
// its offset is re-quarantined immediately and a recovery task is enqueued
// (counted in Stats.Replayed). Allocations must therefore be registered —
// under the same names — before New is called. Workers do not run until
// Start, so callers may inspect the replayed state first.
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

	var unfinished []journal.Intent
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
		unfinished = dangling
	}
	// Queue capacity covers the admission bound plus every replayed intent,
	// so replay enqueues can never block.
	s.queue = make(chan task, cfg.QueueDepth+len(unfinished))
	for _, in := range unfinished {
		s.replay(in)
	}
	return s, nil
}

// replay re-quarantines and resubmits one unfinished journal intent.
func (s *Service) replay(in journal.Intent) {
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
	// Re-quarantine first: even before the pool touches the task, no
	// stencil may trust the possibly-corrupt cell the crash left behind.
	s.eng.MarkCorrupt(alloc, in.Offset)
	tr := trace.New()
	tr.SetReplayed()
	s.mu.Lock()
	s.pendingN++
	s.queuedN++
	s.stats.Replayed++
	s.queue <- task{
		alloc: alloc, addr: in.Addr, off: in.Offset, detected: in.Detected,
		id: in.ID, journaled: true, replayed: true,
		tr: tr, enqueued: time.Now(),
	}
	s.mu.Unlock()
}

// Start launches the worker pool. Idempotent.
func (s *Service) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started || s.stopped {
		return
	}
	s.started = true
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// AttachMCA registers the service as a machine-check handler. nil means
// accepted. A delivery whose address was staged with the run-here mark
// (StageTrace) runs its recovery to the outcome before the handler returns
// when a worker token is free and nothing is queued; every other delivery
// — latched and overflowed redeliveries included — is queued and never
// blocks the deliverer. An ErrOverloaded rejection leaves the record
// latched in its bank, and the service calls RedeliverLatched whenever a
// worker frees capacity, so overflowed events are delivered late rather
// than dropped.
func (s *Service) AttachMCA(m *mca.Machine) {
	s.mu.Lock()
	s.machine = m
	s.mu.Unlock()
	m.Handle(func(ev mca.Event) error {
		if !ev.IsDUE() {
			return fmt.Errorf("service: not a recoverable DUE: %v", ev)
		}
		return s.submitAddress(ev.Addr, intakeDelivery)
	})
}

// SubmitAddress admits the DUE at a faulting physical address. It returns
// nil when the recovery was accepted (it completes asynchronously),
// ErrOverloaded when the queue is full, ErrCircuitOpen (wrapping
// ErrCheckpointRestartRequired) when the allocation is degraded, and
// ErrCheckpointRestartRequired when the address is not registered.
func (s *Service) SubmitAddress(addr uint64) error {
	return s.submitAddress(addr, intakeDirect)
}

func (s *Service) submitAddress(addr uint64, from intake) error {
	alloc, off, err := s.eng.Table().Lookup(addr)
	if err != nil {
		// Double-wrap: registry.ErrMetadataCorrupt must stay matchable so
		// the HTTP layer maps corrupt-descriptor refusals to 422, not 404.
		err = fmt.Errorf("%w: %w", core.ErrCheckpointRestartRequired, err)
	}
	return s.submit(alloc, addr, off, from, err)
}

// Submit admits a recovery for a known allocation element (detector paths
// that localize corruption without a physical address).
func (s *Service) Submit(alloc *registry.Allocation, off int) error {
	return s.submit(alloc, 0, off, intakeDirect, nil)
}

// SubmitReplayed admits a recovery replayed from a replicated journal — the
// cross-node analogue of the restart replay in New. The intent originated on
// another node; this node journals a fresh local intent for it, quarantines
// the offset, and runs it through the normal pipeline. The recovery is
// marked Replayed in its Result and counted in Stats.Replayed. Callers see
// the same admission errors as Submit (retry ErrOverloaded with backoff:
// promotion replay must not drop intents just because a storm is running).
func (s *Service) SubmitReplayed(alloc *registry.Allocation, addr uint64, off int) error {
	return s.submit(alloc, addr, off, intakeReplay, nil)
}

// submit is every entry point's admission path. Its prologue counts each
// attempt once, so Stats.Submitted sees rejections too: a target the entry
// point could not resolve (err), an offset outside the array, a stopped
// service, a full queue. It then reserves a slot, asks the breaker, claims
// the trace, quarantines at intake and writes the journal intent. One of two
// tails follows: run-here, for a delivery that claimed a run-here mark while
// a worker token is free and nothing is queued, or the queue. addr 0 means
// the element's own address.
func (s *Service) submit(alloc *registry.Allocation, addr uint64, off int, from intake, err error) error {
	if err == nil && (off < 0 || off >= alloc.Array.Len()) {
		err = fmt.Errorf("%w: offset %d out of range", core.ErrCheckpointRestartRequired, off)
	}
	// Admission control: reserve a queue slot or reject immediately —
	// never block the deliverer.
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
		return err
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
	// checkpoint-restart without consuming pool time. Breakers are keyed by
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
			return fmt.Errorf("%w: allocation %q degraded to checkpoint-restart: %w",
				ErrCircuitOpen, alloc.QualifiedName(), core.ErrCheckpointRestartRequired)
		}
	}

	// Claim the ingest-staged trace (HTTP traceparent), or mint one. This
	// happens only after the overloaded/breaker rejections above, so a
	// latched event's trace stays staged for redelivery.
	tr, marked := s.claimTrace(addr)
	if tr == nil {
		tr = trace.New()
	}
	replayed := from == intakeReplay
	if replayed {
		tr.SetReplayed()
	}

	// Quarantine at intake: from this moment the corrupt cell is masked
	// out of every stencil, even while the task waits in the queue. Record
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
			// Rejected submission: no task will ever be enqueued, so leaving
			// the element quarantined would mask it forever with nothing
			// scheduled to repair it.
			unquarantine()
			release()
			return fmt.Errorf("service: journal intent: %w", err)
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
		return ErrStopped
	}
	t.enqueued = time.Now()
	s.stats.Accepted++
	if replayed {
		s.stats.Replayed++
	}
	here := from == intakeDelivery && marked && s.queuedN == 0 && s.tryToken()
	if here {
		// The slot only covered admission; the token bounds the recovery,
		// and Drain waits for it like for a worker.
		s.pendingN--
		s.wg.Add(1)
	} else {
		s.queuedN++
		s.queue <- t // cannot block: slot reserved above
	}
	s.mu.Unlock()
	if here {
		s.runHere(t)
	}
	return nil
}

// runHere is the run-here tail: the submitting goroutine, holding a worker
// token, takes t to its outcome.
func (s *Service) runHere(t task) {
	defer func() {
		<-s.tokens
		s.wg.Done()
	}()
	s.run([]task{t})
}

// tryToken takes a worker token if one is free, without blocking.
func (s *Service) tryToken() bool {
	select {
	case s.tokens <- struct{}{}:
		return true
	default:
		return false
	}
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

func (s *Service) worker() {
	defer s.wg.Done()
	for {
		t, ok := <-s.queue
		if !ok {
			return
		}
		s.tokens <- struct{}{} // waits while run-here recoveries hold every token
		// Opportunistic batching: when the queue is backed up (a DUE storm),
		// drain additional queued tasks without blocking and coalesce
		// same-allocation runs into one RecoverBatch call. The budget leaves
		// one queued task behind for every token no recovery holds: batching
		// must never serialize work an available peer could run in parallel,
		// and a worker never waits for a batch to fill.
		s.mu.Lock()
		spare := s.cfg.Workers - len(s.tokens)
		budget := s.pendingN - 1 - spare // queued beyond t and the spares' share
		s.mu.Unlock()
		if budget > s.cfg.BatchMax-1 {
			budget = s.cfg.BatchMax - 1
		}
		ts := []task{t}
		if s.cfg.BatchMax > 1 {
		drain:
			for len(ts) <= budget {
				select {
				case t2, ok := <-s.queue:
					if !ok {
						break drain
					}
					ts = append(ts, t2)
				default:
					break drain
				}
			}
		}
		s.mu.Lock()
		s.pendingN -= len(ts)
		s.queuedN -= len(ts)
		s.mu.Unlock()
		s.run(ts)
		<-s.tokens
		s.maybeRedeliver()
	}
}

// run takes tasks that hold one worker token, from a worker's drained set
// or a run-here submission, to their outcomes.
func (s *Service) run(ts []task) {
	// Queue wait ends here, for the whole set at once. Recorded exactly once
	// per task: transient members a batch later hands to the sequential
	// retry path must not observe it again.
	for i := range ts {
		ts[i].tr.Observe(trace.StageQueueWait, ts[i].enqueued)
	}
	if s.isCrashed() {
		// Simulated process death: queued work is lost with the process
		// (the journal has its intents).
		return
	}
	// Elements the predictive-health tier migrated before their DUE are
	// served from the shadow — no ladder, no stripe contention, and the
	// restored value is bit-exact by construction.
	if s.cfg.Shadow != nil {
		kept := ts[:0]
		for _, tt := range ts {
			if s.shadowRestore(tt) {
				continue
			}
			kept = append(kept, tt)
		}
		ts = kept
	}
	if len(ts) == 1 {
		s.process(ts[0])
		return
	}
	// Group the tasks by allocation, preserving submission order within
	// each group; singleton groups take the sequential path.
	groups := make([][]task, 0, 1)
	groupOf := make(map[*registry.Allocation]int, 1)
	for _, tt := range ts {
		gi, ok := groupOf[tt.alloc]
		if !ok {
			gi = len(groups)
			groupOf[tt.alloc] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], tt)
	}
	for _, g := range groups {
		if s.isCrashed() {
			break
		}
		if len(g) == 1 {
			s.process(g[0])
		} else {
			s.processBatch(g)
		}
	}
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

// process runs one recovery to its terminal outcome: deadline-bounded
// attempts, jittered backoff on transient failures, breaker and journal
// bookkeeping.
func (s *Service) process(t task) {
	defer func() {
		if r := recover(); r != nil {
			if point, ok := faultinject.IsCrash(r); ok {
				s.die(point)
				return
			}
			panic(r)
		}
	}()

	var (
		out      core.Outcome
		err      error
		attempts int
	)
	// Goroutine labels make CPU profiles attributable: samples inside the
	// ladder show up under their allocation and pipeline stage. The context
	// carries the task's trace so the engine records spans into it (and
	// leaves finishing it to finishTask, after the journal write).
	base := trace.NewContext(context.Background(), t.tr)
	pprof.Do(base, pprof.Labels(
		"alloc", t.alloc.QualifiedName(), "stage", "single", "trace", t.tr.ID(),
	), func(base context.Context) {
		for {
			attempts++
			ctx := base
			cancel := func() {}
			if s.cfg.Deadline > 0 {
				ctx, cancel = context.WithTimeout(ctx, s.cfg.Deadline)
			}
			out, err = s.eng.RecoverElementCtx(ctx, t.alloc, t.off)
			cancel()
			if err == nil || !transient(err) || attempts > s.cfg.MaxRetries {
				return
			}
			s.mu.Lock()
			s.stats.Retries++
			s.mu.Unlock()
			time.Sleep(s.backoff(attempts))
		}
	})

	s.finishTask(t, out, err, attempts)
}

// processBatch runs a same-allocation group of queued recoveries through
// the engine's coalesced fast path. Every member is already quarantined
// (MarkCorrupt at intake), so RecoverBatch is bit-identical to processing
// the group sequentially in submission order — see core/batch.go. Members
// that come back transient (abandoned by the shared batch deadline) are
// handed whole to the sequential retry path, which re-attempts them with
// its own deadline and backoff before any journal or breaker bookkeeping
// happens for them.
func (s *Service) processBatch(ts []task) {
	defer func() {
		if r := recover(); r != nil {
			if point, ok := faultinject.IsCrash(r); ok {
				s.die(point)
				return
			}
			panic(r)
		}
	}()

	offs := make([]int, len(ts))
	traces := make([]*trace.Trace, len(ts))
	for i, t := range ts {
		offs[i] = t.off
		traces[i] = t.tr
	}
	var rs []core.BatchResult
	pprof.Do(context.Background(), pprof.Labels(
		// One label set per batch; the lead member's trace ID names the
		// cluster in profiles (member IDs are in the outcome feed).
		"alloc", ts[0].alloc.QualifiedName(), "stage", "batch", "trace", ts[0].tr.ID(),
	), func(base context.Context) {
		ctx := base
		cancel := func() {}
		if s.cfg.Deadline > 0 {
			ctx, cancel = context.WithTimeout(ctx, s.cfg.Deadline)
		}
		rs = s.eng.RecoverBatch(ctx, ts[0].alloc, offs, traces...)
		cancel()
	})

	s.mu.Lock()
	s.stats.Batched += uint64(len(ts))
	s.mu.Unlock()

	for i, r := range rs {
		if s.isCrashed() {
			return
		}
		if r.Err != nil && transient(r.Err) && s.cfg.MaxRetries > 0 {
			// Transient member: the batch attempt does not count against the
			// retry budget; the sequential path owns all of its bookkeeping.
			s.mu.Lock()
			s.stats.Retries++
			s.mu.Unlock()
			time.Sleep(s.backoff(1))
			s.process(ts[i])
			continue
		}
		s.finishTask(ts[i], r.Outcome, r.Err, 1)
	}
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

	if s.cfg.OnOutcome != nil {
		s.cfg.OnOutcome(Result{
			Alloc: t.alloc.Name, Tenant: t.alloc.Tenant, Offset: t.off, Addr: t.addr,
			Outcome: out, Err: err, Attempts: attempts,
			Replayed: t.replayed, Probe: t.probe, TraceID: t.tr.ID(),
		})
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

// maybeRedeliver pulls back MCA events whose delivery failed while the
// service was overloaded, now that a worker freed capacity.
func (s *Service) maybeRedeliver() {
	s.mu.Lock()
	m := s.machine
	room := s.pendingN < s.cfg.QueueDepth && !s.stopped
	s.mu.Unlock()
	if m != nil && room {
		m.RedeliverLatched()
	}
}

// die freezes the service in response to an armed crash point: submissions
// fail, queued tasks are dropped, and no further journal records are
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
// immediately, queued tasks are dropped, and no further journal records are
// written — not even close-outs. Unlike Drain nothing is flushed or closed
// cleanly; the journal file is left exactly as the "dead" process had it,
// which is what a cluster partner replaying the replicated journal must
// cope with. Worker goroutines drain out on their own.
func (s *Service) Kill() {
	s.die("killed")
	s.mu.Lock()
	if s.started {
		s.started = false
		close(s.queue)
	}
	s.mu.Unlock()
}

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

// QueueLen returns the number of queued-but-unstarted recoveries.
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
// ErrStopped), queued recoveries complete, workers exit, and the journal
// is closed. The context bounds the wait.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.stopped {
		s.stopped = true
	}
	if s.started {
		s.started = false
		close(s.queue)
	}
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
