// Package mca simulates the Intel machine-check architecture the paper's
// first detection path relies on (Section 3.1). On real hardware, a memory
// controller that detects an uncorrectable ECC error records the error type
// and physical address in the MCi_STATUS / MCi_ADDR bank registers and
// raises a machine-check exception (MCE); the OS handler reads the banks and
// can tell a recovery layer exactly which address was lost.
//
// This package reproduces those semantics in software so the rest of the
// system exercises the same code path it would on hardware: faults are
// planted at simulated physical addresses (by the fault injector), a patrol
// scrubber or a demand access discovers them, the owning bank latches status
// bits laid out like Intel's MCi_STATUS, and registered handlers receive the
// machine-check event with the faulting address.
package mca

import (
	"errors"
	"fmt"
	"sync"
)

// MCi_STATUS bit layout (Intel SDM vol. 3B, ch. 15). Only the architectural
// bits the recovery path consumes are modeled.
const (
	// StatusVal indicates the bank holds a valid error record.
	StatusVal uint64 = 1 << 63
	// StatusOver indicates a second error arrived before the first was read.
	StatusOver uint64 = 1 << 62
	// StatusUC marks the error uncorrected (a DUE).
	StatusUC uint64 = 1 << 61
	// StatusEN indicates the error was enabled for signaling.
	StatusEN uint64 = 1 << 60
	// StatusMiscV indicates MCi_MISC holds valid supplemental data.
	StatusMiscV uint64 = 1 << 59
	// StatusAddrV indicates MCi_ADDR holds the faulting physical address.
	StatusAddrV uint64 = 1 << 58
	// StatusPCC marks processor-context-corrupt errors (not recoverable by
	// software; our simulated memory errors never set it).
	StatusPCC uint64 = 1 << 57
)

// MCA compound error codes (low 16 bits of MCi_STATUS) for memory errors:
// 0000_0001_RRRR_TTLL with F=1 ("memory controller errors" family uses
// 0000_1MMM_CCCC_CCCC; we use the generic cache-hierarchy/memory encodings).
const (
	// CodeMemRead encodes a memory-controller read error.
	CodeMemRead uint64 = 0x009F
	// CodeMemScrub encodes an error found by patrol scrub.
	CodeMemScrub uint64 = 0x00C0
)

// Kind classifies a simulated machine-check event.
type Kind uint8

const (
	// KindMemDUE is an uncorrectable memory (ECC) error: the data at the
	// reported address is lost.
	KindMemDUE Kind = iota
	// KindMemCE is a corrected memory error (reported for telemetry only).
	KindMemCE
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindMemDUE:
		return "memory-DUE"
	case KindMemCE:
		return "memory-CE"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is a delivered machine-check exception (or corrected-error signal).
type Event struct {
	// Bank is the reporting bank index.
	Bank int
	// Status is the latched MCi_STATUS value.
	Status uint64
	// Addr is the faulting physical address (valid when StatusAddrV set).
	Addr uint64
	// Misc carries supplemental information (here: the flipped bit index,
	// which real hardware would not report — consumers other than tests
	// must not rely on it; StatusMiscV is left clear).
	Misc uint64
	// Kind is the decoded error class.
	Kind Kind
}

// IsDUE reports whether the event is a detectable uncorrectable error with
// a valid address — the precondition for spatial recovery.
func (e Event) IsDUE() bool {
	return e.Kind == KindMemDUE && e.Status&StatusUC != 0 && e.Status&StatusAddrV != 0
}

// String implements fmt.Stringer.
func (e Event) String() string {
	return fmt.Sprintf("MCE bank=%d kind=%v addr=%#x status=%#x", e.Bank, e.Kind, e.Addr, e.Status)
}

// Handler consumes machine-check events. Returning an error aborts delivery
// to later handlers and is reported to the raiser (modeling a kernel that
// panics when no recovery is possible).
type Handler func(Event) error

// ErrNoHandler is returned by Raise* when no handler consumed a DUE —
// the simulated equivalent of an unhandled MCE crashing the application.
var ErrNoHandler = errors.New("mca: unhandled machine-check exception")

// latent is a planted-but-undiscovered memory fault.
type latent struct {
	addr uint64
	bit  int
}

// queued is an overflow event awaiting redelivery: either a record that was
// displaced from a full bank by a newer error, or a new error that arrived
// while every bank's record was mid-delivery. Real hardware drops these
// (the overflow bit is the only trace); the simulator keeps them so a
// second DUE arriving during recovery of the first is recovered too, not
// silently lost.
type queued struct {
	addr uint64
	bit  int
	code uint64
}

// Machine is a simulated machine-check architecture: a set of banks, a list
// of latent (planted, not yet discovered) memory faults, and a chain of
// exception handlers.
type Machine struct {
	mu       sync.Mutex
	banks    []uint64 // latched MCi_STATUS per bank
	addrs    []uint64 // latched MCi_ADDR per bank
	miscs    []uint64 // latched MCi_MISC per bank
	inflight []bool   // bank record is currently being delivered to handlers
	nextBank int
	latents  []latent
	pending  []queued // overflowed events awaiting redelivery
	handlers []Handler
	// counters
	raisedDUE, raisedCE, overflows int
	// ce tracks corrected-error telemetry (see ce.go).
	ce ceState
}

// New creates a machine with the given number of report banks (real server
// parts expose ~20+; anything >= 1 works here).
func New(banks int) *Machine {
	if banks < 1 {
		banks = 1
	}
	return &Machine{
		banks:    make([]uint64, banks),
		addrs:    make([]uint64, banks),
		miscs:    make([]uint64, banks),
		inflight: make([]bool, banks),
	}
}

// Handle registers an exception handler. Handlers run in registration order
// until one returns nil (handled).
func (m *Machine) Handle(h Handler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handlers = append(m.handlers, h)
}

// Plant records a latent uncorrectable fault at addr (bit is the flipped
// bit index, carried for test introspection). The fault is discovered — and
// the MCE raised — when the address is touched via Touch or found by the
// patrol scrubber.
func (m *Machine) Plant(addr uint64, bit int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.latents = append(m.latents, latent{addr: addr, bit: bit})
}

// PendingFaults returns the number of planted, undiscovered faults.
func (m *Machine) PendingFaults() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.latents)
}

// Touch models a demand access to [addr, addr+size): if a latent fault lies
// in the range, it is consumed and an MCE is raised synchronously (the
// return value is the handler outcome). With no fault it returns (false, nil).
func (m *Machine) Touch(addr uint64, size int) (faulted bool, err error) {
	m.mu.Lock()
	var hit *latent
	for i := range m.latents {
		if m.latents[i].addr >= addr && m.latents[i].addr < addr+uint64(size) {
			l := m.latents[i]
			m.latents = append(m.latents[:i], m.latents[i+1:]...)
			hit = &l
			break
		}
	}
	m.mu.Unlock()
	if hit == nil {
		return false, nil
	}
	_, err = m.raise(hit.addr, hit.bit, CodeMemRead, false)
	m.drainPending()
	return true, err
}

// Scrub runs one patrol-scrubber pass over [lo, hi): every latent fault in
// the range is discovered and raised. It returns the number of faults found
// and the first handler error.
func (m *Machine) Scrub(lo, hi uint64) (found int, err error) {
	for {
		m.mu.Lock()
		var hit *latent
		for i := range m.latents {
			if m.latents[i].addr >= lo && m.latents[i].addr < hi {
				l := m.latents[i]
				m.latents = append(m.latents[:i], m.latents[i+1:]...)
				hit = &l
				break
			}
		}
		m.mu.Unlock()
		if hit == nil {
			return found, err
		}
		found++
		if _, e := m.raise(hit.addr, hit.bit, CodeMemScrub, false); e != nil && err == nil {
			err = e
		}
		m.drainPending()
	}
}

// RaiseMemoryDUE latches and delivers an uncorrectable memory error at addr
// immediately (bypassing the latent list) — the path used when a detector
// outside the MCA localizes corruption and wants identical delivery
// semantics. A DUE raised while every bank is busy (e.g. from inside a
// handler recovering an earlier DUE) is queued and redelivered once a bank
// frees up; nil then means "accepted", not yet "recovered".
func (m *Machine) RaiseMemoryDUE(addr uint64, bit int) error {
	_, err := m.raise(addr, bit, CodeMemRead, false)
	m.drainPending()
	return err
}

// raise latches one error record and delivers it through the handler chain.
// over forces the overflow bit (set on redeliveries of displaced records,
// matching what the register held when the record was displaced). delivered
// is false when the event was queued instead (all banks held records being
// delivered right now).
func (m *Machine) raise(addr uint64, bit int, code uint64, over bool) (delivered bool, err error) {
	m.mu.Lock()
	// Scan for a bank with no valid record, starting at the rotation point.
	bank := -1
	for k := 0; k < len(m.banks); k++ {
		b := (m.nextBank + k) % len(m.banks)
		if m.banks[b]&StatusVal == 0 {
			bank = b
			break
		}
	}
	status := StatusVal | StatusUC | StatusEN | StatusAddrV | code
	if over {
		status |= StatusOver
	}
	if bank < 0 {
		// Every bank holds a valid record: a real machine sets the overflow
		// bit and drops one of the two records. We set the bit, then keep
		// both: the loser goes on the redelivery queue.
		bank = m.nextBank
		m.nextBank = (m.nextBank + 1) % len(m.banks)
		m.overflows++
		m.banks[bank] |= StatusOver
		if m.inflight[bank] {
			// The latched record is mid-delivery (this raise came from
			// inside a handler). Don't clobber registers the handler may
			// still read — queue the NEW event for redelivery.
			m.pending = append(m.pending, queued{addr: addr, bit: bit, code: code})
			m.mu.Unlock()
			return false, nil
		}
		// Stale record from a failed delivery: displace it to the queue and
		// latch the new error, which inherits the overflow bit.
		m.pending = append(m.pending, queued{
			addr: m.addrs[bank], bit: int(m.miscs[bank]), code: m.banks[bank] & 0xFFFF,
		})
		status |= StatusOver
	} else {
		m.nextBank = (bank + 1) % len(m.banks)
	}
	m.banks[bank] = status
	m.addrs[bank] = addr
	m.miscs[bank] = uint64(bit)
	m.inflight[bank] = true
	m.raisedDUE++
	handlers := append([]Handler(nil), m.handlers...)
	m.mu.Unlock()

	ev := Event{Bank: bank, Status: status, Addr: addr, Misc: uint64(bit), Kind: KindMemDUE}
	var firstErr error
	for _, h := range handlers {
		if err := h(ev); err == nil {
			m.clearBank(bank)
			return true, nil
		} else if firstErr == nil {
			firstErr = err
		}
	}
	m.mu.Lock()
	m.inflight[bank] = false // record stays latched for later inspection
	m.mu.Unlock()
	if firstErr == nil {
		firstErr = ErrNoHandler
	}
	return true, firstErr
}

// drainPending redelivers queued overflow events while banks are available.
// Redelivered events carry the overflow bit, preserving the one trace real
// hardware would have left. Delivery failures (no handler succeeded) leave
// the record latched in its bank, as for any raise, and draining continues;
// an event that cannot even be assigned a bank is re-queued and draining
// stops until the next raise or RedeliverLatched call.
func (m *Machine) drainPending() {
	for {
		m.mu.Lock()
		if len(m.pending) == 0 {
			m.mu.Unlock()
			return
		}
		// Only pop when a bank is free — redelivery into a full machine
		// would just re-queue (and re-count an overflow that already
		// happened).
		free := false
		for b := range m.banks {
			if m.banks[b]&StatusVal == 0 {
				free = true
				break
			}
		}
		if !free {
			m.mu.Unlock()
			return
		}
		q := m.pending[0]
		m.pending = m.pending[1:]
		m.mu.Unlock()
		if delivered, _ := m.raise(q.addr, q.bit, q.code, true); !delivered {
			return
		}
	}
}

// PendingOverflow reports how many overflowed events await redelivery.
func (m *Machine) PendingOverflow() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pending)
}

// RedeliverLatched re-runs the handler chain for every bank whose record
// was latched by a *failed* delivery — the shape a backpressuring consumer
// produces: an admission-controlled recovery service that rejects a DUE
// with its queue full returns an error from the handler, the record stays
// latched, and the service calls RedeliverLatched once capacity frees up.
// Banks that deliver successfully are cleared (and the overflow queue
// drained into them); banks that fail again stay latched for the next
// round. It returns the number of events successfully redelivered.
func (m *Machine) RedeliverLatched() int {
	m.mu.Lock()
	type latched struct {
		bank   int
		status uint64
		addr   uint64
		misc   uint64
	}
	var records []latched
	for b := range m.banks {
		if m.banks[b]&StatusVal != 0 && !m.inflight[b] {
			m.inflight[b] = true
			records = append(records, latched{bank: b, status: m.banks[b], addr: m.addrs[b], misc: m.miscs[b]})
		}
	}
	handlers := append([]Handler(nil), m.handlers...)
	m.mu.Unlock()

	delivered := 0
	for _, rec := range records {
		ev := Event{Bank: rec.bank, Status: rec.status, Addr: rec.addr, Misc: rec.misc, Kind: KindMemDUE}
		handled := false
		for _, h := range handlers {
			if err := h(ev); err == nil {
				handled = true
				break
			}
		}
		if handled {
			m.clearBank(rec.bank)
			delivered++
		} else {
			m.mu.Lock()
			m.inflight[rec.bank] = false
			m.mu.Unlock()
		}
	}
	if delivered > 0 {
		m.drainPending()
	}
	return delivered
}

// LatchedBanks returns the indices of banks holding a valid, undelivered
// error record (delivery failed; awaiting RedeliverLatched).
func (m *Machine) LatchedBanks() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []int
	for b := range m.banks {
		if m.banks[b]&StatusVal != 0 && !m.inflight[b] {
			out = append(out, b)
		}
	}
	return out
}

func (m *Machine) clearBank(bank int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.banks[bank] = 0
	m.addrs[bank] = 0
	m.miscs[bank] = 0
	m.inflight[bank] = false
}

// ReadBank returns the latched (status, addr, misc) registers of a bank.
func (m *Machine) ReadBank(bank int) (status, addr, misc uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.banks[bank], m.addrs[bank], m.miscs[bank]
}

// Stats reports lifetime counters: delivered DUEs, corrected errors, and
// bank overflows.
func (m *Machine) Stats() (due, ce, overflow int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.raisedDUE, m.raisedCE, m.overflows
}
