package trace

import (
	"io"
	"sort"
	"sync"
	"time"

	"spatialdue/internal/metrics"
)

// Collector aggregates finished traces into Prometheus-exportable
// histograms (spatialdue_stage_duration_seconds{stage=...} and
// spatialdue_recovery_duration_seconds) and retains a bounded ring of the
// slowest-N traces for the /v1/traces endpoint and duerecover -trace-top.
// The ring is bounded by construction — a week-long storm costs the same
// memory as a quiet hour — and keeps the slowest traces rather than the
// newest, because the slow tail is what latency attribution is for.
type Collector struct {
	mu       sync.Mutex
	known    [numStages]hist  // canonical stages, index via stageIndex
	extra    map[string]*hist // non-canonical stage names
	recovery hist
	topN     int
	top      []Summary // sorted slowest-first, len <= topN
	finished uint64
}

// numStages counts the canonical Stage* constants.
const numStages = 13

// stageNames lists the canonical stages in stageIndex order.
var stageNames = [numStages]string{
	StageQueueWait, StageStripeWait, StageProvisional, StageTune,
	StagePredictPrimary, StageVerifyPrimary, StagePredictTune,
	StageVerifyTune, StagePredictAlternate, StageVerifyAlternate,
	StageRestore, StageJournalBegin, StageJournalFinish,
}

// stageIndex maps a canonical stage name to its histogram slot (-1 for
// unknown names). A switch instead of a map keeps the per-span fold free
// of string hashing on the recovery hot path.
func stageIndex(s string) int {
	switch s {
	case StageQueueWait:
		return 0
	case StageStripeWait:
		return 1
	case StageProvisional:
		return 2
	case StageTune:
		return 3
	case StagePredictPrimary:
		return 4
	case StageVerifyPrimary:
		return 5
	case StagePredictTune:
		return 6
	case StageVerifyTune:
		return 7
	case StagePredictAlternate:
		return 8
	case StageVerifyAlternate:
		return 9
	case StageRestore:
		return 10
	case StageJournalBegin:
		return 11
	case StageJournalFinish:
		return 12
	}
	return -1
}

// DefaultTopN is the slowest-trace ring capacity when NewCollector is given
// zero.
const DefaultTopN = 64

// NewCollector creates a collector retaining the topN slowest traces
// (DefaultTopN when topN <= 0).
func NewCollector(topN int) *Collector {
	if topN <= 0 {
		topN = DefaultTopN
	}
	return &Collector{extra: map[string]*hist{}, topN: topN}
}

// durationBuckets are the histogram upper bounds in seconds: log-spaced
// from 1µs to 10s, covering sub-stencil predicts through journal fsyncs
// and deadline-length stalls.
var durationBuckets = [numBuckets]float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// numBuckets must equal len(durationBuckets) (compile-time array length).
const numBuckets = 22

// hist is one duration histogram. counts are per-bucket (NOT cumulative)
// so observe touches one counter; WriteMetrics accumulates the running total
// the Prometheus text format wants at export time, off the hot path.
type hist struct {
	counts [numBuckets]uint64
	sum    float64
	n      uint64
}

func (h *hist) observe(sec float64) {
	for i, b := range durationBuckets {
		if sec <= b {
			h.counts[i]++
			break
		}
	}
	// Observations above the top bucket land in +Inf only (counted by n).
	h.sum += sec
	h.n++
}

// Finish freezes t, folds its spans into the stage histograms, its total
// into the recovery-duration histogram, and offers it to the slowest-N
// ring. Idempotent per trace: only the freezing call aggregates, so the
// engine and the service may both call Finish without double counting. Nil
// traces are ignored.
func (c *Collector) Finish(t *Trace) {
	if c == nil || t == nil {
		return
	}
	spans, total, fresh := t.finish()
	if !fresh {
		return
	}

	c.mu.Lock()
	for i := range spans {
		var h *hist
		if idx := stageIndex(spans[i].Stage); idx >= 0 {
			h = &c.known[idx]
		} else if h = c.extra[spans[i].Stage]; h == nil {
			h = &hist{}
			c.extra[spans[i].Stage] = h
		}
		h.observe(spans[i].Dur.Seconds())
	}
	c.recovery.observe(total.Seconds())
	c.finished++
	// Only flatten to a Summary when the trace can actually enter the
	// slowest-N ring — in steady state most recoveries are faster than the
	// retained tail and skip the allocation entirely.
	qualifies := len(c.top) < c.topN ||
		total.Seconds() > c.top[len(c.top)-1].TotalSeconds
	c.mu.Unlock()
	if !qualifies {
		return
	}
	sum := t.Summary()
	c.mu.Lock()
	c.offerLocked(sum)
	c.mu.Unlock()
}

// offerLocked inserts s into the slowest-first ring if it qualifies.
func (c *Collector) offerLocked(s Summary) {
	if len(c.top) == c.topN && s.TotalSeconds <= c.top[len(c.top)-1].TotalSeconds {
		return
	}
	i := sort.Search(len(c.top), func(i int) bool {
		return c.top[i].TotalSeconds < s.TotalSeconds
	})
	c.top = append(c.top, Summary{})
	copy(c.top[i+1:], c.top[i:])
	c.top[i] = s
	if len(c.top) > c.topN {
		c.top = c.top[:c.topN]
	}
}

// Finished reports how many traces have been collected.
func (c *Collector) Finished() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.finished
}

// Top returns the slowest retained traces, slowest first.
func (c *Collector) Top() []Summary {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Summary(nil), c.top...)
}

// Summary is a finished trace flattened for transport (the /v1/traces
// payload and the -trace-top dump).
type Summary struct {
	ID           string        `json:"trace_id"`
	Alloc        string        `json:"alloc,omitempty"`
	Tenant       string        `json:"tenant,omitempty"`
	Offset       int           `json:"offset"`
	OK           bool          `json:"ok"`
	Detail       string        `json:"detail,omitempty"`
	Replayed     bool          `json:"replayed,omitempty"`
	TuneCache    string        `json:"tune_cache,omitempty"`
	TotalSeconds float64       `json:"total_seconds"`
	Spans        []SpanSummary `json:"spans"`
}

// SpanSummary is one span of a Summary, in seconds.
type SpanSummary struct {
	Stage        string  `json:"stage"`
	StartSeconds float64 `json:"start_seconds"`
	DurSeconds   float64 `json:"dur_seconds"`
}

// Summary flattens the trace for transport (zero value on nil).
func (t *Trace) Summary() Summary {
	if t == nil {
		return Summary{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.summaryLocked()
}

func (t *Trace) summaryLocked() Summary {
	total := t.total
	if total == 0 {
		// Not yet finished: report progress so far.
		total = time.Since(t.born)
	}
	s := Summary{
		ID: t.idLocked(), Alloc: t.alloc, Tenant: t.tenant, Offset: t.offset,
		OK: t.ok, Detail: t.detail, Replayed: t.replayed, TuneCache: t.tuneCache,
		TotalSeconds: total.Seconds(),
		Spans:        make([]SpanSummary, len(t.spans)),
	}
	for i, sp := range t.spans {
		s.Spans[i] = SpanSummary{
			Stage:        sp.Stage,
			StartSeconds: sp.Start.Seconds(),
			DurSeconds:   sp.Dur.Seconds(),
		}
	}
	return s
}

// WriteMetrics exports the stage and recovery duration histograms in the
// Prometheus text format.
func (c *Collector) WriteMetrics(w io.Writer) error {
	type stage struct {
		name string
		h    hist
	}
	c.mu.Lock()
	stages := make([]stage, 0, numStages+len(c.extra))
	for i, name := range stageNames {
		if c.known[i].n > 0 {
			stages = append(stages, stage{name, c.known[i]})
		}
	}
	for name, h := range c.extra {
		stages = append(stages, stage{name, *h})
	}
	rec := c.recovery
	c.mu.Unlock()
	sort.Slice(stages, func(i, j int) bool { return stages[i].name < stages[j].name })

	mw := metrics.NewWriter(w)
	series := func(h hist, labelPairs ...string) {
		for i := 1; i < numBuckets; i++ {
			h.counts[i] += h.counts[i-1] // h is a copy: make its counts cumulative
		}
		mw.Histogram(durationBuckets[:], h.counts[:], h.sum, h.n, labelPairs...)
	}
	if len(stages) > 0 {
		mw.Family("spatialdue_stage_duration_seconds", "Time spent per recovery-pipeline stage.", metrics.Histogram)
		for _, s := range stages {
			series(s.h, "stage", s.name)
		}
	}
	mw.Family("spatialdue_recovery_duration_seconds", "End-to-end recovery latency (admission to terminal outcome).", metrics.Histogram)
	series(rec)
	return mw.Err()
}
