// Package trace is the per-recovery tracing substrate: one Trace is minted
// when a recovery enters the pipeline (service intake, journal replay, or a
// W3C traceparent header on HTTP ingest) and handed to the engine with the
// recovery, through the queue, the stripe locks, and the escalation ladder
// to its terminal outcome. Along the way each pipeline stage records a monotonic-clock span
// (queue wait, stripe-lock wait, per-rung predict/verify, checkpoint
// restore, journal begin/finish), so a slow recovery can be attributed to
// the stage that actually spent the time — the paper's Section 5.4 runtime
// overhead claim, measured per stage instead of end to end.
//
// Clock discipline: spans are measured with time.Now()/time.Since(), whose
// readings carry Go's monotonic clock, so spans never go negative or warp
// under wall-clock adjustment. Span start offsets are stored relative to
// the trace's own birth, so a trace is self-contained and serializable.
//
// All Trace methods are safe on a nil receiver (no-ops), so instrumented
// code records unconditionally without nil checks, and safe for concurrent
// use (an abandoned climb may still be appending spans while the service
// finalizes the trace; spans recorded after Finish are dropped).
package trace

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// Span stage names. Ladder-rung stages split prediction from verification
// ("predict/primary" vs "verify/primary") because the paper's methods differ
// most in predictor cost, while verification cost is policy-dependent.
const (
	// StageQueueWait is the time from admission to a worker picking the
	// task up.
	StageQueueWait = "queue_wait"
	// StageStripeWait is the time spent acquiring the element's region
	// stripe locks (batch members share their cluster's acquisition).
	StageStripeWait = "stripe_wait"
	// StageProvisional is the cheap placeholder prediction patched in
	// before the ladder climbs.
	StageProvisional = "provisional"
	// StageTune is one auto-tune run (RECOVER_ANY primary pick or the
	// fresh cache-bypassing tune rung).
	StageTune = "tune"
	// StagePredictPrimary..StageVerifyAlternate are the per-rung
	// predict/verify attempt halves.
	StagePredictPrimary   = "predict/primary"
	StageVerifyPrimary    = "verify/primary"
	StagePredictTune      = "predict/tune"
	StageVerifyTune       = "verify/tune"
	StagePredictAlternate = "predict/alternate"
	StageVerifyAlternate  = "verify/alternate"
	// StageRestore is the checkpoint element restore rung.
	StageRestore = "restore"
	// StageJournalBegin / StageJournalFinish are the write-ahead intent
	// and outcome appends (dominated by fsync when JournalSync is on).
	StageJournalBegin  = "journal_begin"
	StageJournalFinish = "journal_finish"
)

// Span is one recorded pipeline stage of a trace.
type Span struct {
	// Stage is the stage name (the Stage* constants).
	Stage string
	// Start is the span's start, as an offset from the trace's birth.
	Start time.Duration
	// Dur is the span's duration.
	Dur time.Duration
}

// Trace is one recovery's journey through the pipeline.
type Trace struct {
	idRaw [16]byte
	born  time.Time // monotonic anchor for span offsets

	mu        sync.Mutex
	id        string // hex of idRaw, encoded on first use (or external)
	spans     []Span
	inl       [12]Span // inline backing for spans: no alloc per recovery
	done      bool
	total     time.Duration
	alloc     string
	tenant    string
	offset    int
	ok        bool
	detail    string
	replayed  bool
	tuneCache string
}

// ID generation: a per-process random prefix plus an atomic counter gives
// W3C-shaped 32-hex IDs without paying crypto/rand on the recovery hot
// path.
var (
	idPrefix [8]byte
	idSeq    atomic.Uint64
)

func init() {
	if _, err := cryptorand.Read(idPrefix[:]); err != nil {
		// Degenerate fallback: still unique within the process.
		binary.BigEndian.PutUint64(idPrefix[:], uint64(time.Now().UnixNano()))
	}
}

// New mints a trace with a fresh ID, born now. The hex form of the ID is
// encoded lazily on first ID()/Summary use, so engine-internal recoveries
// whose trace never leaves the process don't pay for the string.
func New() *Trace {
	return reset(&Trace{})
}

func reset(t *Trace) *Trace {
	*t = Trace{born: time.Now(), offset: -1}
	copy(t.idRaw[:8], idPrefix[:])
	binary.BigEndian.PutUint64(t.idRaw[8:], idSeq.Add(1))
	return t
}

// pool recycles engine-owned traces (minted and finished inside one
// recovery call, never escaping to a caller), keeping the ~700-byte Trace
// allocation off the recovery hot path.
var pool = sync.Pool{New: func() any { return new(Trace) }}

// GetPooled mints a trace backed by the recycle pool. Use only when the
// minting code also controls the trace's end of life and hands it back via
// Recycle — a pooled trace must never be retained past that point.
func GetPooled() *Trace {
	return reset(pool.Get().(*Trace))
}

// GetPooledAt is GetPooled with an explicit birth instant, so a batch
// minting many member traces back to back pays one clock read instead of
// one per member. born must carry the monotonic clock (i.e. come straight
// from time.Now()).
func GetPooledAt(born time.Time) *Trace {
	t := reset(pool.Get().(*Trace))
	t.born = born
	return t
}

// Recycle returns a finished pooled trace for reuse. The collector copies
// everything it retains (Summary is a flat value), so a finished trace
// holds no live references.
func Recycle(t *Trace) {
	if t != nil {
		pool.Put(t)
	}
}

// WithID mints a trace carrying an externally supplied (e.g. W3C
// traceparent) trace ID.
func WithID(id string) *Trace {
	t := new(Trace)
	t.Init(id)
	return t
}

// Init mints t in place, as WithID does: for a trace embedded in a larger
// per-event value, allocated with it.
func (t *Trace) Init(id string) {
	reset(t)
	if id != "" {
		t.id = id
	}
}

// Born returns the trace's birth instant (monotonic). born is immutable
// after minting, so no lock is needed; engine-owned recoveries reuse it as
// the stripe-wait clock origin instead of reading the clock again.
func (t *Trace) Born() time.Time {
	return t.born
}

// ID returns the trace's 32-hex identifier ("" on nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.idLocked()
}

func (t *Trace) idLocked() string {
	if t.id == "" {
		t.id = hex.EncodeToString(t.idRaw[:])
	}
	return t.id
}

// Observe records a span for stage that started at start and ends now.
func (t *Trace) Observe(stage string, start time.Time) {
	if t == nil {
		return
	}
	t.observe(stage, start.Sub(t.born), time.Since(start))
}

// ObserveSince records a span from start to now and returns the span's end
// time, so consecutive pipeline stages chain on a single clock read per
// boundary instead of two. Returns the current time even on a nil trace,
// keeping the caller's chain intact.
func (t *Trace) ObserveSince(stage string, start time.Time) time.Time {
	end := time.Now()
	if t != nil {
		t.observe(stage, start.Sub(t.born), end.Sub(start))
	}
	return end
}

// ObserveDur records a span with an explicit duration — the batch path uses
// it to stamp one cluster-wide stripe acquisition into every member's trace
// with identical duration.
func (t *Trace) ObserveDur(stage string, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	t.observe(stage, start.Sub(t.born), dur)
}

func (t *Trace) observe(stage string, off, dur time.Duration) {
	t.mu.Lock()
	if !t.done {
		if t.spans == nil {
			t.spans = t.inl[:0]
		}
		t.spans = append(t.spans, Span{Stage: stage, Start: off, Dur: dur})
	}
	t.mu.Unlock()
}

// SetTarget annotates the trace with the element under recovery.
func (t *Trace) SetTarget(alloc, tenant string, offset int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.alloc, t.tenant, t.offset = alloc, tenant, offset
	t.mu.Unlock()
}

// SetOutcome annotates the terminal outcome (ok plus a method/stage or
// error detail). The last call before Finish wins.
func (t *Trace) SetOutcome(ok bool, detail string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ok, t.detail = ok, detail
	t.mu.Unlock()
}

// SetResult sets target and outcome in one locked visit — the hot path's
// combined form of SetTarget + SetOutcome.
func (t *Trace) SetResult(alloc, tenant string, offset int, ok bool, detail string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.alloc, t.tenant, t.offset = alloc, tenant, offset
	t.ok, t.detail = ok, detail
	t.mu.Unlock()
}

// SetTuneCache annotates how the RECOVER_ANY primary rung obtained its
// method: "hit" (served from the per-region tune cache) or "miss" (a tuner
// run, cached for the region's next recovery). Empty means the recovery
// never consulted a cache (caching disabled, or a fixed-method policy).
func (t *Trace) SetTuneCache(v string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.tuneCache = v
	t.mu.Unlock()
}

// SetReplayed marks a trace minted for a journal-replayed intent.
func (t *Trace) SetReplayed() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.replayed = true
	t.mu.Unlock()
}

// finish freezes the trace: stamps the end-to-end duration and rejects
// further spans. Idempotent; only the freezing call gets fresh == true,
// along with the frozen span slice (safe to read — no appends after done)
// and the total, so the collector folds under a single lock acquisition.
func (t *Trace) finish() (spans []Span, total time.Duration, fresh bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return nil, 0, false
	}
	t.done = true
	t.total = time.Since(t.born)
	return t.spans, t.total, true
}

// Spans returns a copy of the recorded spans.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Total returns the end-to-end duration (zero before Finish).
func (t *Trace) Total() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// ParseTraceparent extracts the trace-id from a W3C traceparent header
// ("00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>"). It accepts any
// version byte, per the spec's forward-compatibility rule, and rejects the
// all-zero trace-id.
func ParseTraceparent(h string) (traceID string, ok bool) {
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return "", false
	}
	id := h[3:35]
	zero := true
	for i := 0; i < len(id); i++ {
		c := id[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return "", false
		}
		if c != '0' {
			zero = false
		}
	}
	if zero || !isHex(h[:2]) || !isHex(h[36:52]) {
		return "", false
	}
	return id, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}
