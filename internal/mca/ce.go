package mca

import (
	"sort"
	"sync"
)

// Corrected-error (CE) handling. A DRAM bank or row whose ECC corrections
// keep recurring is likely to produce an uncorrectable error soon. Every CE
// is decoded into bank/row/column coordinates and handed to the observer —
// the predictive-health tier — which may scrub a bank or migrate and offline
// a row (OfflineRow). This complements the paper's DUE recovery: recovery
// handles the errors that slip through, offlining reduces how many do.

// CEObservation is one structured corrected-error report: the address
// decoded into DRAM (bank, row, column) coordinates plus the corrected bit
// position. This is what the predictive-health tier consumes — per-bank
// CE rate, distinct-bit fan-out, and row/column clustering are all derived
// from streams of these observations.
type CEObservation struct {
	// Seq is the machine-global CE sequence number — a logical clock that
	// makes replayed streams deterministic (no wall-clock dependence).
	Seq uint64
	// Addr is the physical address whose ECC word was corrected.
	Addr uint64
	// Bank, Row, Col are Addr decoded through the machine's Topology.
	Bank, Row, Col int
	// Bit is the corrected bit position within the ECC word (-1 unknown).
	Bit int
}

// ceState holds the structured observation stream and the retired rows.
type ceState struct {
	mu sync.Mutex

	// Structured observation stream (predictive-health tier).
	topo       Topology
	obs        func(CEObservation)
	seq        uint64
	queue      []CEObservation // FIFO of observations awaiting delivery
	qhead      int
	delivering bool

	// offRows are rows retired by proactive migration: the predictor copied
	// their data out and asked the machine to stop serving them.
	offRows map[RowKey]bool
}

// SetTopology installs the DRAM address topology used to decode CE
// observations and row spans. Zero fields take defaults. Call before
// traffic; changing it mid-stream re-attributes only future observations.
func (m *Machine) SetTopology(t Topology) {
	m.ce.mu.Lock()
	defer m.ce.mu.Unlock()
	m.ce.topo = t.normalized()
}

// Topology returns the machine's DRAM address topology.
func (m *Machine) Topology() Topology {
	m.ce.mu.Lock()
	defer m.ce.mu.Unlock()
	return m.ce.topo.normalized()
}

// SetCEObserver installs the structured corrected-error observer (the
// predictive-health tier's intake). Observations are delivered in raise
// order; a CE raised from inside the observer (re-entrant — e.g. a
// predictor-triggered scrub surfacing more errors) is queued with its full
// decoded attribution and redelivered by the outer call, never dropped and
// never re-decoded, so redelivery is attribution-exact like the DUE
// overflow queue.
func (m *Machine) SetCEObserver(fn func(CEObservation)) {
	m.ce.mu.Lock()
	defer m.ce.mu.Unlock()
	m.ce.obs = fn
}

// RaiseMemoryCEAt reports a corrected memory error at addr with the
// corrected bit position (bit < 0 when unknown). CEs do not interrupt the
// application. The error is counted
// (Stats) and, when an observer is registered, decoded through the
// machine's Topology into a CEObservation and delivered to it.
func (m *Machine) RaiseMemoryCEAt(addr uint64, bit int) {
	m.mu.Lock()
	m.raisedCE++
	m.mu.Unlock()

	m.ce.mu.Lock()
	obsFn := m.ce.obs
	if obsFn == nil {
		m.ce.mu.Unlock()
		return
	}
	m.ce.seq++
	bank, row, col := m.ce.topo.Decode(addr)

	// Deliver in order. Attribution (bank/row/col/bit) is decoded here, at
	// raise time, and the full observation rides the queue — a requeued
	// event is redelivered verbatim, not reconstructed from whatever the
	// registers hold by then.
	m.ce.queue = append(m.ce.queue, CEObservation{Seq: m.ce.seq, Addr: addr, Bank: bank, Row: row, Col: col, Bit: bit})
	if m.ce.delivering {
		// An outer RaiseMemoryCEAt is mid-delivery (this raise came from
		// inside the observer). It will drain this observation.
		m.ce.mu.Unlock()
		return
	}
	m.ce.delivering = true
	for m.ce.qhead < len(m.ce.queue) {
		next := m.ce.queue[m.ce.qhead]
		m.ce.qhead++
		m.ce.mu.Unlock()
		obsFn(next)
		m.ce.mu.Lock()
	}
	m.ce.queue = m.ce.queue[:0]
	m.ce.qhead = 0
	m.ce.delivering = false
	m.ce.mu.Unlock()
}

// OfflineRow retires one DRAM row: the caller (the predictive-health
// tier's critical action) has migrated the row's data, and the machine
// records the row as out of service. It returns false if the row was
// already offlined. Planted latent faults inside the row are discarded —
// the physical cells are no longer backing any data, so their faults can
// no longer surface as demand or scrub DUEs.
func (m *Machine) OfflineRow(bank, row int) bool {
	m.ce.mu.Lock()
	if m.ce.offRows == nil {
		m.ce.offRows = map[RowKey]bool{}
	}
	key := RowKey{Bank: bank, Row: row}
	if m.ce.offRows[key] {
		m.ce.mu.Unlock()
		return false
	}
	m.ce.offRows[key] = true
	lo, hi := m.ce.topo.RowSpan(bank, row)
	m.ce.mu.Unlock()

	m.mu.Lock()
	kept := m.latents[:0]
	for _, l := range m.latents {
		if l.addr < lo || l.addr >= hi {
			kept = append(kept, l)
		}
	}
	m.latents = kept
	m.mu.Unlock()
	return true
}

// RowOfflined reports whether the DRAM row containing addr was retired by
// OfflineRow.
func (m *Machine) RowOfflined(addr uint64) bool {
	m.ce.mu.Lock()
	defer m.ce.mu.Unlock()
	if len(m.ce.offRows) == 0 {
		return false
	}
	bank, row, _ := m.ce.topo.Decode(addr)
	return m.ce.offRows[RowKey{Bank: bank, Row: row}]
}

// OfflinedRows returns every retired row, sorted by (bank, row).
func (m *Machine) OfflinedRows() []RowKey {
	m.ce.mu.Lock()
	defer m.ce.mu.Unlock()
	out := make([]RowKey, 0, len(m.ce.offRows))
	for key := range m.ce.offRows {
		out = append(out, key)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bank != out[j].Bank {
			return out[i].Bank < out[j].Bank
		}
		return out[i].Row < out[j].Row
	})
	return out
}

// ScrubBank runs one patrol-scrubber pass over every address belonging to
// one DRAM bank (the watch-tier "raise scrub priority" action): each
// latent fault whose address decodes to the bank is discovered and raised
// with the patrol-scrub error code. It returns the number of faults found
// and the first handler error.
func (m *Machine) ScrubBank(bank int) (found int, err error) {
	m.ce.mu.Lock()
	topo := m.ce.topo.normalized()
	m.ce.mu.Unlock()
	return m.scrub(func(a uint64) bool {
		b, _, _ := topo.Decode(a)
		return b == bank
	})
}
