package predictor

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"

	"spatialdue/internal/core"
	"spatialdue/internal/fti"
	"spatialdue/internal/mca"
	"spatialdue/internal/metrics"
	"spatialdue/internal/registry"
)

// ActionKind labels one proactive response (the Prometheus action label).
type ActionKind string

const (
	// ActionScrub is the watch-tier response: a priority patrol-scrub pass
	// over the bank, surfacing latent faults while the data is still warm.
	ActionScrub ActionKind = "scrub"
	// ActionCkptShrink is the elevated-tier response: the checkpoint
	// interval recomputed under an inflated failure rate (Young's model).
	ActionCkptShrink ActionKind = "ckpt_shrink"
	// ActionReplicate is the elevated-tier response for at-risk
	// allocations: a fresh field snapshot pushed through the cluster's
	// partner-replication sink.
	ActionReplicate ActionKind = "replicate"
	// ActionPageOfflined is the critical-tier response: a hot row's data
	// copied out under the stripe locks and the physical row retired.
	ActionPageOfflined ActionKind = "page_offlined"
	// ActionShadowRestore is the payoff: a DUE that landed on an offlined
	// row was served bit-exactly from the migration shadow.
	ActionShadowRestore ActionKind = "shadow_restore"
)

// Action reports one executed proactive response.
type Action struct {
	Kind ActionKind
	// Bank is the acting bank; Row the affected row (-1 for bank-level
	// actions).
	Bank, Row int
	// Tier and Risk capture the bank state that triggered the action.
	Tier Tier
	Risk float64
	// Allocs are the tenant-qualified names of allocations the action
	// touched (replication targets, migrated rows' owners).
	Allocs []string
	// Detail is a human-readable summary.
	Detail string
}

// The manager's action constants.
const (
	// ckptCost and baseMTBF parameterize Young's model for the elevated
	// response, in seconds.
	ckptCost = 60
	baseMTBF = 86400
	// rateInflation scales how aggressively risk inflates the assumed
	// failure rate: rate = (1 + rateInflation·risk) / baseMTBF, so a
	// risk-1.0 bank assumes failures 51× the base rate.
	rateInflation = 50
	// rowOfflineCEs is the cumulative per-row CE count that nominates a row
	// for critical-tier migration.
	rowOfflineCEs = 6
	// maxRowsPerBank caps rows offlined per bank.
	maxRowsPerBank = 4
)

// ManagerConfig parameterizes a Manager.
type ManagerConfig struct {
	// Machine is the MCA whose CE stream feeds the predictor and whose
	// rows the critical tier offlines. Required.
	Machine *mca.Machine
	// Engine owns the allocations whose data the critical tier migrates.
	// Required.
	Engine *core.Engine
	// Replicate, when set, receives a snapshot of each at-risk allocation
	// on the elevated transition — wire it to the cluster's FieldUploaded
	// sink for partner re-replication. Called without locks held.
	Replicate func(a *registry.Allocation, vals []float64)
	// OnAction, when set, observes every executed action (the HTTP layer
	// feeds these into the outcome stream as page_offlined records).
	OnAction func(Action)
}

// OfflinedRow records one proactive row migration.
type OfflinedRow struct {
	Bank, Row int
	// Seq is the CE sequence at which the row was offlined (compare with
	// the DUE's arrival to prove the migration was proactive).
	Seq uint64
	// Elements is how many allocation elements were copied into the
	// shadow.
	Elements int
	// Allocs are the owning allocations' tenant-qualified names.
	Allocs []string
}

// Manager wires predictor tiers to their proactive responses and serves
// the migration shadow back to the recovery path.
type Manager struct {
	cfg  ManagerConfig
	pred *Predictor

	mu       sync.Mutex
	shadow   map[int]map[int]uint64 // alloc ID -> offset -> value bits
	byID     map[int]*registry.Allocation
	actions  map[ActionKind]int
	offlined []OfflinedRow
	interval float64 // current recomputed checkpoint interval (0 = baseline)
}

// NewManager creates a Manager and its Predictor. Call Observe with the
// machine's CE observations (Machine.SetCEObserver(mgr.Observe)).
func NewManager(cfg ManagerConfig) (*Manager, error) {
	if cfg.Machine == nil || cfg.Engine == nil {
		return nil, fmt.Errorf("predictor: ManagerConfig requires Machine and Engine")
	}
	m := &Manager{
		cfg:     cfg,
		shadow:  map[int]map[int]uint64{},
		byID:    map[int]*registry.Allocation{},
		actions: map[ActionKind]int{},
	}
	m.pred = New(Config{OnTier: m.onTier})
	return m, nil
}

// Predictor exposes the underlying scoring model.
func (m *Manager) Predictor() *Predictor { return m.pred }

// Observe is the CE hot path: it forwards to the predictor (actions only
// run on tier transitions, via the predictor's callback).
func (m *Manager) Observe(o mca.CEObservation) { m.pred.Observe(o) }

// onTier executes the action matrix for a tier transition. It runs on the
// CE-delivering goroutine with no predictor or mca locks held.
func (m *Manager) onTier(tc TierChange) {
	if tc.To <= tc.From {
		return // tiers only act on the way up; cooling off is passive
	}
	// Run every newly-entered tier's actions, so a bank that jumps
	// straight from none to critical still gets scrubbed and replicated.
	if tc.From < TierWatch && tc.To >= TierWatch {
		m.actScrub(tc)
	}
	if tc.From < TierElevated && tc.To >= TierElevated {
		m.actCkptShrink(tc)
		m.actReplicate(tc)
	}
	if tc.From < TierCritical && tc.To >= TierCritical {
		m.actOffline(tc)
	}
}

// actScrub raises the bank's scrub priority: one immediate priority patrol
// pass over the bank.
func (m *Manager) actScrub(tc TierChange) {
	found, _ := m.cfg.Machine.ScrubBank(tc.Bank)
	m.record(Action{
		Kind: ActionScrub, Bank: tc.Bank, Row: -1, Tier: tc.To, Risk: tc.Risk,
		Detail: fmt.Sprintf("priority scrub found %d latent faults", found),
	})
}

// actCkptShrink recomputes Young's optimum checkpoint interval under the
// failure rate the bank's risk implies, keeping the smallest interval any
// bank has demanded. The interval is advisory: it is exported via
// /v1/health and the ckpt_interval gauge for the checkpoint driver.
func (m *Manager) actCkptShrink(tc TierChange) {
	rate := (1 + rateInflation*tc.Risk) / baseMTBF
	iv := fti.Young{CkptCost: ckptCost}.Recompute(rate)
	m.mu.Lock()
	if m.interval == 0 || iv < m.interval {
		m.interval = iv
	}
	m.mu.Unlock()
	m.record(Action{
		Kind: ActionCkptShrink, Bank: tc.Bank, Row: -1, Tier: tc.To, Risk: tc.Risk,
		Detail: fmt.Sprintf("checkpoint interval -> %.1fs (rate x%.1f)", iv, 1+rateInflation*tc.Risk),
	})
}

// actReplicate pushes a fresh snapshot of every allocation overlapping the
// bank through the replication sink.
func (m *Manager) actReplicate(tc TierChange) {
	if m.cfg.Replicate == nil {
		return
	}
	var names []string
	for _, a := range m.bankAllocs(tc.Bank) {
		var vals []float64
		m.cfg.Engine.WithArrayLock(a.Array, func() {
			vals = append([]float64(nil), a.Array.Data()...)
		})
		m.cfg.Replicate(a, vals)
		names = append(names, a.QualifiedName())
	}
	if len(names) == 0 {
		return
	}
	m.record(Action{
		Kind: ActionReplicate, Bank: tc.Bank, Row: -1, Tier: tc.To, Risk: tc.Risk,
		Allocs: names, Detail: fmt.Sprintf("re-replicated %d at-risk allocations", len(names)),
	})
}

// actOffline migrates and retires the bank's hot rows: copy each row's
// elements out under the array's stripe locks, then offline the physical
// row so its planted faults are gone and later DUEs there are served from
// the shadow.
func (m *Manager) actOffline(tc TierChange) {
	rows := m.pred.HotRows(tc.Bank, rowOfflineCEs)
	if len(rows) == 0 {
		// Risk went critical before any single row crossed the nomination
		// bar: take the hottest rows we have.
		rows = m.pred.HotRows(tc.Bank, 1)
	}
	if len(rows) > maxRowsPerBank {
		rows = rows[:maxRowsPerBank]
	}
	for _, key := range rows {
		m.offlineRow(key, tc)
	}
}

// offlineRow performs one proactive row migration.
func (m *Manager) offlineRow(key mca.RowKey, tc TierChange) {
	topo := m.cfg.Machine.Topology()
	lo, hi := topo.RowSpan(key.Bank, key.Row)
	table := m.cfg.Engine.Table()

	type captured struct {
		alloc *registry.Allocation
		offs  []int
		bits  []uint64
	}
	var caps []captured
	for _, a := range table.Allocations() {
		if a.End() <= lo || a.Base >= hi {
			continue
		}
		start, end := a.Base, a.End()
		if start < lo {
			start = lo
		}
		if end > hi {
			end = hi
		}
		first, err := a.ElementAt(start)
		if err != nil {
			continue
		}
		last, err := a.ElementAt(end - 1)
		if err != nil {
			continue
		}
		c := captured{alloc: a}
		m.cfg.Engine.WithArrayLock(a.Array, func() {
			for off := first; off <= last; off++ {
				// Never shadow a quarantined element: its live value is
				// corrupt, and copying it out would later "restore" garbage.
				// Its recovery runs the normal ladder instead.
				if m.cfg.Engine.IsQuarantined(a, off) {
					continue
				}
				c.offs = append(c.offs, off)
				c.bits = append(c.bits, math.Float64bits(a.Array.AtOffset(off)))
			}
		})
		if len(c.offs) > 0 {
			caps = append(caps, c)
		}
	}

	if !m.cfg.Machine.OfflineRow(key.Bank, key.Row) {
		return // already offlined (by an earlier transition)
	}

	elements := 0
	var names []string
	m.mu.Lock()
	for _, c := range caps {
		dst := m.shadow[c.alloc.ID]
		if dst == nil {
			dst = map[int]uint64{}
			m.shadow[c.alloc.ID] = dst
			m.byID[c.alloc.ID] = c.alloc
		}
		for i, off := range c.offs {
			dst[off] = c.bits[i]
		}
		elements += len(c.offs)
		names = append(names, c.alloc.QualifiedName())
	}
	m.offlined = append(m.offlined, OfflinedRow{
		Bank: key.Bank, Row: key.Row, Seq: tc.Seq, Elements: elements, Allocs: names,
	})
	m.mu.Unlock()

	m.record(Action{
		Kind: ActionPageOfflined, Bank: key.Bank, Row: key.Row, Tier: tc.To, Risk: tc.Risk,
		Allocs: names,
		Detail: fmt.Sprintf("row offlined, %d elements migrated to shadow", elements),
	})
}

// Restore serves one element from the migration shadow: if (alloc, off)
// was proactively copied out, the pre-fault value is written back under
// the array lock, the quarantine entry cleared, and (old, new, true)
// returned. It implements the service layer's ShadowSource.
func (m *Manager) Restore(alloc *registry.Allocation, off int) (old, new float64, ok bool) {
	m.mu.Lock()
	bits, ok := m.shadow[alloc.ID][off]
	m.mu.Unlock()
	if !ok {
		return 0, 0, false
	}
	val := math.Float64frombits(bits)
	m.cfg.Engine.WithArrayLock(alloc.Array, func() {
		old = alloc.Array.AtOffset(off)
		alloc.Array.SetOffset(off, val)
	})
	m.cfg.Engine.ClearCorrupt(alloc, off)
	m.mu.Lock()
	m.actions[ActionShadowRestore]++
	m.mu.Unlock()
	return old, val, true
}

// ShadowSize returns the number of elements currently held in the shadow.
func (m *Manager) ShadowSize() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, offs := range m.shadow {
		n += len(offs)
	}
	return n
}

// bankAllocs returns the allocations with at least one element in the
// bank's address set.
func (m *Manager) bankAllocs(bank int) []*registry.Allocation {
	topo := m.cfg.Machine.Topology()
	var out []*registry.Allocation
	for _, a := range m.cfg.Engine.Table().Allocations() {
		// A bank's rows stripe the address space every Banks*RowBytes
		// bytes; an allocation spanning at least one full stride always
		// overlaps, smaller ones need a row check.
		stride := uint64(topo.Banks) * uint64(topo.RowBytes)
		if a.SizeBytes() >= stride {
			out = append(out, a)
			continue
		}
		overlaps := false
		for addr := a.Base; addr < a.End(); addr += uint64(topo.RowBytes) {
			if b, _, _ := topo.Decode(addr); b == bank {
				overlaps = true
				break
			}
		}
		if !overlaps {
			// The scan above strides full rows; check the final byte too.
			if b, _, _ := topo.Decode(a.End() - 1); b == bank {
				overlaps = true
			}
		}
		if overlaps {
			out = append(out, a)
		}
	}
	return out
}

// record counts and publishes one action.
func (m *Manager) record(a Action) {
	m.mu.Lock()
	m.actions[a.Kind]++
	m.mu.Unlock()
	if m.cfg.OnAction != nil {
		m.cfg.OnAction(a)
	}
}

// ActionCounts returns the lifetime count of each executed action kind.
func (m *Manager) ActionCounts() map[ActionKind]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[ActionKind]int, len(m.actions))
	for k, v := range m.actions {
		out[k] = v
	}
	return out
}

// OfflinedRows returns every proactive row migration, in execution order.
func (m *Manager) OfflinedRows() []OfflinedRow {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]OfflinedRow(nil), m.offlined...)
}

// CheckpointInterval returns the current recomputed checkpoint interval in
// seconds (0 when no bank has reached the elevated tier — run at the
// baseline Young interval).
func (m *Manager) CheckpointInterval() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.interval
}

// WriteMetrics emits the predictive-health tier's Prometheus metrics.
func (m *Manager) WriteMetrics(w io.Writer) error {
	reports := m.pred.Report()
	counts := m.ActionCounts()
	kinds := make([]ActionKind, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })

	mw := metrics.NewWriter(w)
	mw.Family("spatialdue_predictor_risk", "Bank failure risk score (weighted logistic over CE features).", metrics.Gauge)
	for _, r := range reports {
		mw.Sample(r.Risk, "bank", strconv.Itoa(r.Bank))
	}
	mw.Family("spatialdue_predictor_tier", "Bank health tier (0 none, 1 watch, 2 elevated, 3 critical).", metrics.Gauge)
	for _, r := range reports {
		mw.Sample(int(r.Tier), "bank", strconv.Itoa(r.Bank))
	}
	mw.Family("spatialdue_predictor_actions_total", "Proactive health actions executed.", metrics.Counter)
	for _, k := range kinds {
		mw.Sample(counts[k], "action", string(k))
	}
	mw.Gauge("spatialdue_predictor_ckpt_interval_seconds", "Recomputed Young checkpoint interval (0 = baseline).", m.CheckpointInterval())
	mw.Counter("spatialdue_predictor_offlined_rows_total", "Rows proactively migrated and offlined.", len(m.OfflinedRows()))
	mw.Counter("spatialdue_predictor_observations_total", "CE observations consumed.", m.pred.Total())
	return mw.Err()
}
