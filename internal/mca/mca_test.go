package mca

import (
	"errors"
	"fmt"
	"testing"
)

func TestPlantTouchRaises(t *testing.T) {
	m := New(4)
	var got []Event
	m.Handle(func(ev Event) error {
		got = append(got, ev)
		return nil
	})
	m.Plant(0x1000, 5)
	faulted, err := m.Touch(0x1000, 4)
	if !faulted || err != nil {
		t.Fatalf("Touch = %v, %v", faulted, err)
	}
	if len(got) != 1 {
		t.Fatalf("delivered %d events", len(got))
	}
	ev := got[0]
	if ev.Addr != 0x1000 || ev.Misc != 5 || !ev.IsDUE() {
		t.Errorf("event = %+v", ev)
	}
	if ev.Status&StatusVal == 0 || ev.Status&StatusUC == 0 || ev.Status&StatusAddrV == 0 {
		t.Errorf("status bits wrong: %#x", ev.Status)
	}
	if ev.Status&0xFFFF != CodeMemRead {
		t.Errorf("error code = %#x, want %#x", ev.Status&0xFFFF, CodeMemRead)
	}
}

func TestTouchRangeSemantics(t *testing.T) {
	m := New(1)
	m.Handle(func(Event) error { return nil })
	m.Plant(0x1002, 0)
	// Touch of [0x1000, 0x1004) covers 0x1002.
	if faulted, _ := m.Touch(0x1000, 4); !faulted {
		t.Error("fault in touched range not discovered")
	}
	// Fault consumed: a second touch is clean.
	if faulted, _ := m.Touch(0x1000, 4); faulted {
		t.Error("fault fired twice")
	}
}

func TestTouchOutsideRange(t *testing.T) {
	m := New(1)
	m.Plant(0x2000, 0)
	if faulted, err := m.Touch(0x1000, 16); faulted || err != nil {
		t.Errorf("Touch outside = %v, %v", faulted, err)
	}
	if m.PendingFaults() != 1 {
		t.Error("fault should remain latent")
	}
}

func TestScrubFindsAllInRange(t *testing.T) {
	m := New(2)
	n := 0
	m.Handle(func(Event) error { n++; return nil })
	for i := 0; i < 5; i++ {
		m.Plant(uint64(0x1000+i*64), i)
	}
	m.Plant(0x9000, 9) // outside the scrub range
	found, err := m.Scrub(0x1000, 0x2000)
	if err != nil || found != 5 || n != 5 {
		t.Errorf("Scrub = %d, %v (handled %d)", found, err, n)
	}
	if m.PendingFaults() != 1 {
		t.Errorf("pending = %d, want 1", m.PendingFaults())
	}
	// Scrub events carry the patrol-scrub code.
}

func TestScrubEventCode(t *testing.T) {
	m := New(1)
	var ev Event
	m.Handle(func(e Event) error { ev = e; return nil })
	m.Plant(0x500, 0)
	if _, err := m.Scrub(0, 0x1000); err != nil {
		t.Fatal(err)
	}
	if ev.Status&0xFFFF != CodeMemScrub {
		t.Errorf("scrub code = %#x, want %#x", ev.Status&0xFFFF, CodeMemScrub)
	}
}

func TestUnhandledMCE(t *testing.T) {
	m := New(1)
	if err := m.RaiseMemoryDUE(0x100, 0); !errors.Is(err, ErrNoHandler) {
		t.Errorf("no-handler error = %v, want ErrNoHandler", err)
	}
}

func TestHandlerChainFirstNilWins(t *testing.T) {
	m := New(1)
	order := []string{}
	m.Handle(func(Event) error { order = append(order, "a"); return errors.New("decline") })
	m.Handle(func(Event) error { order = append(order, "b"); return nil })
	m.Handle(func(Event) error { order = append(order, "c"); return nil })
	if err := m.RaiseMemoryDUE(0x100, 0); err != nil {
		t.Fatalf("handled raise returned %v", err)
	}
	if fmt.Sprint(order) != "[a b]" {
		t.Errorf("handler order = %v, want [a b]", order)
	}
}

func TestHandlerAllDeclineReturnsFirstError(t *testing.T) {
	m := New(1)
	e1, e2 := errors.New("first"), errors.New("second")
	m.Handle(func(Event) error { return e1 })
	m.Handle(func(Event) error { return e2 })
	if err := m.RaiseMemoryDUE(0x100, 0); !errors.Is(err, e1) {
		t.Errorf("error = %v, want first handler's", err)
	}
}

func TestBankRotationAndClear(t *testing.T) {
	m := New(2)
	m.Handle(func(Event) error { return nil })
	_ = m.RaiseMemoryDUE(0x100, 1)
	_ = m.RaiseMemoryDUE(0x200, 2)
	// Both banks were used and cleared after successful handling.
	for b := 0; b < 2; b++ {
		status, addr, misc := m.ReadBank(b)
		if status != 0 || addr != 0 || misc != 0 {
			t.Errorf("bank %d not cleared: %#x %#x %#x", b, status, addr, misc)
		}
	}
}

func TestBankLatchedWhenUnhandled(t *testing.T) {
	m := New(1)
	_ = m.RaiseMemoryDUE(0xABC, 7)
	status, addr, misc := m.ReadBank(0)
	if status&StatusVal == 0 || addr != 0xABC || misc != 7 {
		t.Errorf("bank not latched: %#x %#x %#x", status, addr, misc)
	}
}

func TestOverflowBit(t *testing.T) {
	m := New(1)
	_ = m.RaiseMemoryDUE(0x1, 0) // unhandled: stays latched
	var ev Event
	m.Handle(func(e Event) error { ev = e; return nil })
	_ = m.RaiseMemoryDUE(0x2, 0)
	if ev.Status&StatusOver == 0 {
		t.Error("second error on a full bank should set the overflow bit")
	}
	_, _, overflow := m.Stats()
	if overflow != 1 {
		t.Errorf("overflow count = %d, want 1", overflow)
	}
}

func TestStats(t *testing.T) {
	m := New(4)
	m.Handle(func(Event) error { return nil })
	for i := 0; i < 3; i++ {
		_ = m.RaiseMemoryDUE(uint64(i), 0)
	}
	due, ce, _ := m.Stats()
	if due != 3 || ce != 0 {
		t.Errorf("Stats = %d, %d", due, ce)
	}
	m.RaiseMemoryCEAt(0x1000, -1)
	m.RaiseMemoryCEAt(0x1FFF, -1)
	m.RaiseMemoryCEAt(0x2000, 3)
	due, ce, _ = m.Stats()
	if due != 3 || ce != 3 {
		t.Errorf("Stats = %d, %d", due, ce)
	}
}

func TestNewClampsBanks(t *testing.T) {
	m := New(0)
	m.Handle(func(Event) error { return nil })
	if err := m.RaiseMemoryDUE(0x1, 0); err != nil {
		t.Errorf("single-bank machine failed: %v", err)
	}
}

func TestEventString(t *testing.T) {
	ev := Event{Bank: 2, Kind: KindMemDUE, Addr: 0xDEAD, Status: StatusVal}
	s := ev.String()
	for _, want := range []string{"bank=2", "memory-DUE", "0xdead"} {
		found := false
		for i := 0; i+len(want) <= len(s); i++ {
			if s[i:i+len(want)] == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("Event.String() = %q missing %q", s, want)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindMemDUE.String() != "memory-DUE" || KindMemCE.String() != "memory-CE" {
		t.Error("Kind strings wrong")
	}
}

func TestIsDUERequiresAddrValid(t *testing.T) {
	ev := Event{Kind: KindMemDUE, Status: StatusVal | StatusUC}
	if ev.IsDUE() {
		t.Error("IsDUE true without StatusAddrV")
	}
	ev.Status |= StatusAddrV
	if !ev.IsDUE() {
		t.Error("IsDUE false with full status")
	}
}
