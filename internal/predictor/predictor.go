// Package predictor is the predictive memory-health tier: it consumes the
// structured correctable-error stream from internal/mca and turns CE
// history into action *before* the uncorrectable error strikes.
//
// The scoring model follows the empirical findings of "Exploring Error
// Bits for Memory Failure Prediction" (Yu et al., PAPERS.md): uncorrectable
// errors are forecast by correctable-error *bit patterns*, not raw counts —
// a bank whose CEs recur rapidly, touch several distinct bit positions
// (fan-out), and cluster on few rows/columns is orders of magnitude more
// likely to fail than one with the same count spread thin. The model here
// is a transparent weighted logistic over exactly those features; there is
// no ML dependency and every weight is inspectable and testable.
//
// Risk maps to three tiers, each wired to a concrete response by the
// Manager (manager.go):
//
//	watch    → raise scrub priority on the bank
//	elevated → shrink the checkpoint interval (Young's formula under an
//	           inflated failure rate) and re-replicate at-risk allocations
//	critical → proactively migrate the hot rows: copy the data out under
//	           the stripe locks and offline the physical rows in mca
package predictor

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"

	"spatialdue/internal/mca"
)

// Tier is a bank's health classification.
type Tier int

const (
	// TierNone is a healthy bank.
	TierNone Tier = iota
	// TierWatch marks early CE activity: scrub priority is raised.
	TierWatch
	// TierElevated marks a likely failure: checkpoint and replication
	// posture shift.
	TierElevated
	// TierCritical marks an imminent failure: hot rows are migrated and
	// offlined.
	TierCritical
)

// String implements fmt.Stringer.
func (t Tier) String() string {
	switch t {
	case TierNone:
		return "none"
	case TierWatch:
		return "watch"
	case TierElevated:
		return "elevated"
	case TierCritical:
		return "critical"
	}
	return fmt.Sprintf("Tier(%d)", int(t))
}

// ParseTier parses a Tier name.
func ParseTier(s string) (Tier, error) {
	for t := TierNone; t <= TierCritical; t++ {
		if t.String() == s {
			return t, nil
		}
	}
	return TierNone, fmt.Errorf("predictor: unknown tier %q", s)
}

// weights are the logistic model coefficients. Each feature is normalized
// to [0, 1] before weighting, so a coefficient reads directly as "how many
// logits a saturated feature contributes".
type weights struct {
	// bias is the intercept (negative: a silent bank scores near zero).
	bias float64
	// fill weights window occupancy (CE count / window size) — the raw
	// rate signal.
	fill float64
	// fanout weights distinct corrected bit positions in the window,
	// saturating at 8 — the strongest single predictor in Yu et al.
	fanout float64
	// rowCluster weights 1 - distinctRows/count: CEs piling onto few rows.
	rowCluster float64
	// colCluster weights 1 - distinctCols/count: CEs sharing columns.
	colCluster float64
	// rate weights the bank's share of recent machine-wide CE traffic
	// (window count / global sequence span of the window).
	rate float64
	// age weights time since the bank's first CE, in global sequence
	// ticks, saturating at ageScale — repeat offenders outrank newcomers.
	age float64
}

// model is the calibrated model (see score_test.go for the scenarios that
// pin it down).
var model = weights{
	bias:       -4.0,
	fill:       3.0,
	fanout:     3.0,
	rowCluster: 2.0,
	colCluster: 1.0,
	rate:       1.5,
	age:        1.0,
}

const (
	// window is the per-bank sliding window length in observations.
	window = 128
	// watchRisk, elevatedRisk and criticalRisk are the risk thresholds of
	// the tiers.
	watchRisk    = 0.25
	elevatedRisk = 0.55
	criticalRisk = 0.85
	// ageScale is the sequence span at which the age feature saturates.
	ageScale = 256
)

// Config parameterizes a Predictor.
type Config struct {
	// OnTier, when set, receives every tier transition. Called on the
	// observing goroutine with no predictor locks held; it may call back
	// into the predictor.
	OnTier func(TierChange)
}

// TierChange reports one bank crossing a tier boundary.
type TierChange struct {
	Bank int
	From Tier
	To   Tier
	Risk float64
	Seq  uint64 // the observation sequence that caused the change
}

// obsRec is one windowed observation (the per-bank ring element).
type obsRec struct {
	row, col, bit int
	seq           uint64
}

// bankState is the sliding-window feature state of one bank.
type bankState struct {
	ring     []obsRec // capacity Window, filled circularly
	n        int      // live entries (<= len(ring))
	head     int      // next slot to overwrite
	firstSeq uint64   // bank's first CE ever (age feature)
	risk     float64
	tier     Tier

	// Scratch sets for distinct-row/col counting during the window scan;
	// cleared (not reallocated) on every observe so the hot path stays
	// allocation-free in steady state.
	rowSeen map[int]struct{}
	colSeen map[int]struct{}
}

// Predictor maintains per-bank and per-row CE feature state and scores
// bank failure risk. Safe for concurrent use; Observe is the hot path.
type Predictor struct {
	mu    sync.Mutex
	cfg   Config
	banks map[int]*bankState
	// rows counts cumulative CEs per row (not windowed): migration
	// targets the rows that keep hurting.
	rows  map[mca.RowKey]int
	total uint64 // observations consumed
}

// New creates a Predictor.
func New(cfg Config) *Predictor {
	return &Predictor{
		cfg:   cfg,
		banks: map[int]*bankState{},
		rows:  map[mca.RowKey]int{},
	}
}

// Observe consumes one structured CE observation: updates the bank's
// sliding window and the row accumulator, rescores the bank, and fires
// OnTier on a boundary crossing. Steady-state it performs no allocation.
func (p *Predictor) Observe(o mca.CEObservation) {
	p.mu.Lock()
	p.total++
	b := p.banks[o.Bank]
	if b == nil {
		b = &bankState{
			ring:    make([]obsRec, window),
			rowSeen: make(map[int]struct{}, 16),
			colSeen: make(map[int]struct{}, 32),
		}
		p.banks[o.Bank] = b
	}
	if b.n == 0 {
		b.firstSeq = o.Seq
	}
	b.ring[b.head] = obsRec{row: o.Row, col: o.Col, bit: o.Bit, seq: o.Seq}
	b.head = (b.head + 1) % len(b.ring)
	if b.n < len(b.ring) {
		b.n++
	}

	p.rows[mca.RowKey{Bank: o.Bank, Row: o.Row}]++

	b.risk = p.scoreLocked(b)
	old := b.tier
	b.tier = tierOf(b.risk)
	var change TierChange
	fire := b.tier != old && p.cfg.OnTier != nil
	if fire {
		change = TierChange{Bank: o.Bank, From: old, To: b.tier, Risk: b.risk, Seq: o.Seq}
	}
	cb := p.cfg.OnTier
	p.mu.Unlock()

	if fire {
		cb(change)
	}
}

// scoreLocked computes the bank's risk from its window. Caller holds p.mu.
func (p *Predictor) scoreLocked(b *bankState) float64 {
	n := b.n
	if n == 0 {
		return 0
	}
	var bitMask uint64
	for k := range b.rowSeen {
		delete(b.rowSeen, k)
	}
	for k := range b.colSeen {
		delete(b.colSeen, k)
	}
	var oldest, newest uint64
	for i := 0; i < n; i++ {
		rec := &b.ring[(b.head-1-i+2*len(b.ring))%len(b.ring)]
		b.rowSeen[rec.row] = struct{}{}
		b.colSeen[rec.col] = struct{}{}
		if rec.bit >= 0 && rec.bit < 64 {
			bitMask |= 1 << uint(rec.bit)
		}
		if i == 0 {
			oldest, newest = rec.seq, rec.seq
			continue
		}
		if rec.seq < oldest {
			oldest = rec.seq
		}
		if rec.seq > newest {
			newest = rec.seq
		}
	}

	w := model
	fill := float64(n) / float64(len(b.ring))
	fanout := float64(bits.OnesCount64(bitMask)) / 8
	if fanout > 1 {
		fanout = 1
	}
	rowCluster := 0.0
	colCluster := 0.0
	if n > 1 {
		rowCluster = 1 - float64(len(b.rowSeen))/float64(n)
		colCluster = 1 - float64(len(b.colSeen))/float64(n)
	}
	span := newest - oldest + 1
	rate := float64(n) / float64(span)
	if rate > 1 {
		rate = 1
	}
	// Age is measured to the window's newest observation (== the global
	// sequence at live-scoring time), so scoring depends only on bank-local
	// state.
	age := float64(newest-b.firstSeq) / ageScale
	if age > 1 {
		age = 1
	}

	z := w.bias + w.fill*fill + w.fanout*fanout +
		w.rowCluster*rowCluster + w.colCluster*colCluster +
		w.rate*rate + w.age*age
	return 1 / (1 + math.Exp(-z))
}

// tierOf maps a risk score to a tier.
func tierOf(risk float64) Tier {
	switch {
	case risk >= criticalRisk:
		return TierCritical
	case risk >= elevatedRisk:
		return TierElevated
	case risk >= watchRisk:
		return TierWatch
	}
	return TierNone
}

// BankReport is the health summary of one bank.
type BankReport struct {
	Bank         int
	Risk         float64
	Tier         Tier
	WindowCEs    int
	DistinctBits int
	DistinctRows int
	FirstSeq     uint64
	LastSeq      uint64
}

// Report returns the per-bank health summaries, sorted by bank.
func (p *Predictor) Report() []BankReport {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]BankReport, 0, len(p.banks))
	for bank, b := range p.banks {
		rep := BankReport{Bank: bank, Risk: b.risk, Tier: b.tier, WindowCEs: b.n, FirstSeq: b.firstSeq}
		var mask uint64
		rows := map[int]struct{}{}
		for i := 0; i < b.n; i++ {
			rec := &b.ring[(b.head-1-i+2*len(b.ring))%len(b.ring)]
			rows[rec.row] = struct{}{}
			if rec.bit >= 0 && rec.bit < 64 {
				mask |= 1 << uint(rec.bit)
			}
			if rec.seq > rep.LastSeq {
				rep.LastSeq = rec.seq
			}
		}
		rep.DistinctBits = bits.OnesCount64(mask)
		rep.DistinctRows = len(rows)
		out = append(out, rep)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Bank < out[j].Bank })
	return out
}

// BankRisk returns one bank's current risk and tier.
func (p *Predictor) BankRisk(bank int) (float64, Tier) {
	p.mu.Lock()
	defer p.mu.Unlock()
	b := p.banks[bank]
	if b == nil {
		return 0, TierNone
	}
	return b.risk, b.tier
}

// HotRows returns the rows of a bank with at least minCEs cumulative CEs,
// sorted by descending count (ties by row) — the migration candidates the
// critical tier offlines first.
func (p *Predictor) HotRows(bank, minCEs int) []mca.RowKey {
	p.mu.Lock()
	defer p.mu.Unlock()
	type hot struct {
		key   mca.RowKey
		count int
	}
	var hots []hot
	for key, count := range p.rows {
		if key.Bank == bank && count >= minCEs {
			hots = append(hots, hot{key, count})
		}
	}
	sort.Slice(hots, func(i, j int) bool {
		if hots[i].count != hots[j].count {
			return hots[i].count > hots[j].count
		}
		return hots[i].key.Row < hots[j].key.Row
	})
	out := make([]mca.RowKey, len(hots))
	for i, h := range hots {
		out[i] = h.key
	}
	return out
}

// Total returns the number of observations consumed.
func (p *Predictor) Total() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.total
}
