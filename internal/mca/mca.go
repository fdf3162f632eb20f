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
	// Data is the opaque value the raiser attached to the event
	// (TouchOrRaise). Like Misc it is no register real hardware has: the
	// machine never reads it, only latches and queues it with the record.
	Data any
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

// Handler consumes machine-check events. Handlers run in registration order
// until one returns nil (handled) or an error marked with Reject; either
// consumes the record and clears its bank. Any other error declines: the
// next handler is tried, and when none handles the event its record stays
// latched for RedeliverLatched and the first error is reported to the raiser
// (modeling a kernel that panics when no recovery is possible).
type Handler func(Event) error

// ErrNoHandler is returned by Raise* when no handler consumed a DUE —
// the simulated equivalent of an unhandled MCE crashing the application.
var ErrNoHandler = errors.New("mca: unhandled machine-check exception")

// ErrQueued is returned by RaiseMemoryDUE, Touch and TouchOrRaise when the
// new DUE found every bank's record mid-delivery and still waits on the
// overflow queue when the call returns: no handler has seen it yet. A later
// drain (the next raise, or RedeliverLatched) delivers it, so the raiser
// must not raise it again.
var ErrQueued = errors.New("mca: DUE queued behind banks mid-delivery")

// ErrRejected marks a handler's final refusal of an event (see Reject).
var ErrRejected = errors.New("mca: event rejected")

// Reject marks err as a final refusal: the machine consumes the record,
// clearing its bank so the event is never redelivered, and reports err to
// the raiser. The marked error keeps err's message and matches both err
// and ErrRejected.
func Reject(err error) error { return rejected{err} }

type rejected struct{ err error }

func (r rejected) Error() string   { return r.err.Error() }
func (r rejected) Unwrap() []error { return []error{ErrRejected, r.err} }

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
	data any
	// ticket names a new event queued by raise (0 for a displaced record),
	// so its raiser can tell whether it is still waiting.
	ticket uint64
}

// Machine is a simulated machine-check architecture: a set of banks, a list
// of latent (planted, not yet discovered) memory faults, and a chain of
// exception handlers.
type Machine struct {
	mu       sync.Mutex
	banks    []uint64 // latched MCi_STATUS per bank
	addrs    []uint64 // latched MCi_ADDR per bank
	miscs    []uint64 // latched MCi_MISC per bank
	datas    []any    // the raiser's value per bank (Event.Data)
	inflight []bool   // bank record is currently being delivered to handlers
	nextBank int
	latents  []latent
	pending  []queued // overflowed events awaiting redelivery
	tickets  uint64   // the last queued event's ticket
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
		datas:    make([]any, banks),
		inflight: make([]bool, banks),
	}
}

// Handle registers an exception handler (see Handler for the order).
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

// takeLatent removes and returns the first latent fault whose address
// match accepts.
func (m *Machine) takeLatent(match func(addr uint64) bool) (latent, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, l := range m.latents {
		if match(l.addr) {
			m.latents = append(m.latents[:i], m.latents[i+1:]...)
			return l, true
		}
	}
	return latent{}, false
}

// inRange matches addresses in [lo, hi).
func inRange(lo, hi uint64) func(uint64) bool {
	return func(a uint64) bool { return a >= lo && a < hi }
}

// Touch models a demand access to [addr, addr+size): if a latent fault lies
// in the range, it is consumed and an MCE is raised synchronously (the
// return value is the handler outcome). With no fault it returns (false, nil).
func (m *Machine) Touch(addr uint64, size int) (faulted bool, err error) {
	l, ok := m.takeLatent(inRange(addr, addr+uint64(size)))
	if !ok {
		return false, nil
	}
	return true, m.raiseAndDrain(queued{addr: l.addr, bit: l.bit, code: CodeMemRead})
}

// TouchOrRaise reports a DUE at addr carrying data (Event.Data). A latent
// fault in [addr, addr+size) is discovered by the access, as Touch does;
// otherwise the error is raised as RaiseMemoryDUE does, with bit as its
// flipped bit. It returns what RaiseMemoryDUE returns.
func (m *Machine) TouchOrRaise(addr uint64, size, bit int, data any) error {
	ev := queued{addr: addr, bit: bit, code: CodeMemRead, data: data}
	if l, ok := m.takeLatent(inRange(addr, addr+uint64(size))); ok {
		ev.addr, ev.bit = l.addr, l.bit
	}
	return m.raiseAndDrain(ev)
}

// Scrub runs one patrol-scrubber pass over [lo, hi): every latent fault in
// the range is discovered and raised. It returns the number of faults found
// and the first handler error.
func (m *Machine) Scrub(lo, hi uint64) (found int, err error) {
	return m.scrub(inRange(lo, hi))
}

// scrub discovers and raises, with the patrol-scrub error code, every
// latent fault whose address match accepts.
func (m *Machine) scrub(match func(addr uint64) bool) (found int, err error) {
	for {
		l, ok := m.takeLatent(match)
		if !ok {
			return found, err
		}
		found++
		if _, e := m.raise(queued{addr: l.addr, bit: l.bit, code: CodeMemScrub}, false); e != nil && err == nil {
			err = e
		}
		m.drainPending(0)
	}
}

// RaiseMemoryDUE latches and delivers an uncorrectable memory error at addr
// immediately (bypassing the latent list) — the path used when a detector
// outside the MCA localizes corruption and wants identical delivery
// semantics. A DUE raised while every bank's record is being delivered (e.g.
// from inside a handler recovering an earlier DUE) is queued and delivered
// once a bank frees up; if it is still queued when the call returns, the
// call returns ErrQueued.
func (m *Machine) RaiseMemoryDUE(addr uint64, bit int) error {
	return m.raiseAndDrain(queued{addr: addr, bit: bit, code: CodeMemRead})
}

// raiseAndDrain raises one new event, drains the overflow queue, and reports
// the event's fate: the handler chain's answer when the raise or this drain
// delivered it, ErrQueued while it still waits on the queue, and nil when
// another drain took it off the queue.
func (m *Machine) raiseAndDrain(ev queued) error {
	ticket, err := m.raise(ev, false)
	if ticket == 0 {
		m.drainPending(0)
		return err
	}
	if delivered, err := m.drainPending(ticket); delivered {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, q := range m.pending {
		if q.ticket == ticket {
			return ErrQueued
		}
	}
	return nil
}

// raise latches one error record and delivers it through the handler chain.
// over forces the overflow bit (set on redeliveries of displaced records,
// matching what the register held when the record was displaced). ticket is
// nonzero when the event was queued instead (all banks held records being
// delivered right now): the event's ticket, assigned on its first queueing.
func (m *Machine) raise(ev queued, over bool) (ticket uint64, err error) {
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
	status := StatusVal | StatusUC | StatusEN | StatusAddrV | ev.code
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
			if ev.ticket == 0 {
				m.tickets++
				ev.ticket = m.tickets
			}
			m.pending = append(m.pending, ev)
			m.mu.Unlock()
			return ev.ticket, nil
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
	m.addrs[bank] = ev.addr
	m.miscs[bank] = uint64(ev.bit)
	m.datas[bank] = ev.data
	m.inflight[bank] = true
	m.raisedDUE++
	handlers := append([]Handler(nil), m.handlers...)
	m.mu.Unlock()

	return 0, m.deliver(handlers, Event{Bank: bank, Status: status, Addr: ev.addr,
		Misc: uint64(ev.bit), Data: ev.data, Kind: KindMemDUE})
}

// deliver runs a latched record through the handler chain. A handler that
// handles the event or rejects it (Reject) consumes the record: its bank is
// cleared. When every handler declines, the record stays latched for later
// inspection and redelivery. It returns the handler chain's answer: nil
// when handled, the rejection, or the first decline (ErrNoHandler when
// there is no handler).
func (m *Machine) deliver(handlers []Handler, ev Event) error {
	err := ErrNoHandler
	for i, h := range handlers {
		e := h(ev)
		if e == nil || errors.Is(e, ErrRejected) {
			m.clearBank(ev.Bank)
			return e
		}
		if i == 0 {
			err = e
		}
	}
	m.mu.Lock()
	m.inflight[ev.Bank] = false
	m.mu.Unlock()
	return err
}

// drainPending redelivers queued overflow events while banks are available.
// Redelivered events carry the overflow bit, preserving the one trace real
// hardware would have left. Declined deliveries leave the record latched in
// its bank, as for any raise, and draining continues;
// an event that cannot even be assigned a bank is re-queued and draining
// stops until the next raise or RedeliverLatched call. When this drain
// delivers the event with ticket own (0: none), it reports that and the
// handler chain's answer.
func (m *Machine) drainPending(own uint64) (ownDelivered bool, ownErr error) {
	for {
		m.mu.Lock()
		if len(m.pending) == 0 {
			m.mu.Unlock()
			return ownDelivered, ownErr
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
			return ownDelivered, ownErr
		}
		q := m.pending[0]
		m.pending = m.pending[1:]
		m.mu.Unlock()
		ticket, err := m.raise(q, true)
		if ticket != 0 {
			return ownDelivered, ownErr
		}
		if own != 0 && q.ticket == own {
			ownDelivered, ownErr = true, err
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
// was latched by a declined delivery — the shape a backpressuring consumer
// produces: an admission-controlled recovery service that declines a DUE
// with its queue full returns an error from the handler, the record stays
// latched, and the service calls RedeliverLatched once capacity frees up.
// Banks whose record is consumed (handled or rejected) are cleared, and the
// overflow queue is then drained into free banks; banks declined again stay
// latched for the next round. It returns the number of events successfully
// redelivered.
func (m *Machine) RedeliverLatched() int {
	m.mu.Lock()
	var events []Event
	for b := range m.banks {
		if m.banks[b]&StatusVal != 0 && !m.inflight[b] {
			m.inflight[b] = true
			events = append(events, Event{Bank: b, Status: m.banks[b], Addr: m.addrs[b],
				Misc: m.miscs[b], Data: m.datas[b], Kind: KindMemDUE})
		}
	}
	handlers := append([]Handler(nil), m.handlers...)
	m.mu.Unlock()

	delivered := 0
	for _, ev := range events {
		if m.deliver(handlers, ev) == nil {
			delivered++
		}
	}
	m.drainPending(0)
	return delivered
}

// LatchedBanks returns the indices of banks holding a valid, undelivered
// error record (every handler declined it; awaiting RedeliverLatched).
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
	m.datas[bank] = nil
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
