package registry

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/ndarray"
	"spatialdue/internal/predict"
)

func newTestTable(t *testing.T) (*Table, *Allocation, *Allocation) {
	t.Helper()
	tab := NewTable()
	a1 := tab.Register("grid3d", ndarray.New(4, 5, 6), bitflip.Float32, RecoverAny())
	a2 := tab.Register("grid2d", ndarray.New(7, 9), bitflip.Float64, RecoverWith(predict.MethodLorenzo1))
	return tab, a1, a2
}

func TestRegisterAssignsDistinctPageAlignedBases(t *testing.T) {
	_, a1, a2 := newTestTable(t)
	if a1.Base%4096 != 0 || a2.Base%4096 != 0 {
		t.Errorf("bases not page aligned: %#x, %#x", a1.Base, a2.Base)
	}
	if a2.Base < a1.End() {
		t.Errorf("allocations overlap: %#x < %#x", a2.Base, a1.End())
	}
	if a2.Base-a1.End() < guardGap {
		t.Errorf("guard gap too small: %d", a2.Base-a1.End())
	}
}

func TestSizeBytes(t *testing.T) {
	_, a1, a2 := newTestTable(t)
	if a1.SizeBytes() != 4*5*6*4 {
		t.Errorf("float32 SizeBytes = %d", a1.SizeBytes())
	}
	if a2.SizeBytes() != 7*9*8 {
		t.Errorf("float64 SizeBytes = %d", a2.SizeBytes())
	}
}

func TestAddrOfElementAtRoundTrip(t *testing.T) {
	_, a1, _ := newTestTable(t)
	for off := 0; off < a1.Array.Len(); off++ {
		addr := a1.AddrOf(off)
		got, err := a1.ElementAt(addr)
		if err != nil || got != off {
			t.Fatalf("ElementAt(AddrOf(%d)) = %d, %v", off, got, err)
		}
	}
}

func TestElementAtMidElementBytes(t *testing.T) {
	// An MCA address may point at any byte of the element.
	_, a1, _ := newTestTable(t)
	addr := a1.AddrOf(10) + 3 // 4-byte float32 elements
	got, err := a1.ElementAt(addr)
	if err != nil || got != 10 {
		t.Errorf("mid-element ElementAt = %d, %v; want 10", got, err)
	}
}

func TestLookupRoundTripQuick(t *testing.T) {
	tab, a1, a2 := newTestTable(t)
	allocs := []*Allocation{a1, a2}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := allocs[rng.Intn(2)]
		off := rng.Intn(a.Array.Len())
		byteOff := rng.Intn(a.DType.Size())
		got, gotOff, err := tab.Lookup(a.AddrOf(off) + uint64(byteOff))
		return err == nil && got.ID == a.ID && gotOff == off
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLookupUnregistered(t *testing.T) {
	tab, a1, a2 := newTestTable(t)
	for _, addr := range []uint64{
		0, a1.Base - 1, a1.End(), a2.End() + 100, ^uint64(0),
		a1.End() + guardGap/2, // inside the guard gap
	} {
		if _, _, err := tab.Lookup(addr); !errors.Is(err, ErrNotRegistered) {
			t.Errorf("Lookup(%#x) error = %v, want ErrNotRegistered", addr, err)
		}
	}
}

func TestUnregister(t *testing.T) {
	tab, a1, _ := newTestTable(t)
	if !tab.Unregister(a1.ID) {
		t.Fatal("Unregister returned false")
	}
	if tab.Unregister(a1.ID) {
		t.Error("double Unregister returned true")
	}
	if _, _, err := tab.Lookup(a1.AddrOf(0)); !errors.Is(err, ErrNotRegistered) {
		t.Error("unregistered allocation still resolvable")
	}
	if tab.Len() != 1 {
		t.Errorf("Len = %d, want 1", tab.Len())
	}
}

func TestAllocationsSnapshot(t *testing.T) {
	tab, _, _ := newTestTable(t)
	snap := tab.Allocations()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d allocations", len(snap))
	}
	if snap[0].Base > snap[1].Base {
		t.Error("snapshot not in address order")
	}
}

func TestPolicyString(t *testing.T) {
	if RecoverAny().String() != "RECOVER_ANY" {
		t.Errorf("RecoverAny String = %q", RecoverAny().String())
	}
	if got := RecoverWith(predict.MethodLorenzo1).String(); got != "RECOVER_Lorenzo 1-Layer" {
		t.Errorf("RecoverWith String = %q", got)
	}
}

func TestConcurrentRegisterAndLookup(t *testing.T) {
	tab := NewTable()
	var wg sync.WaitGroup
	addrs := make(chan uint64, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				a := tab.Register(fmt.Sprintf("a%d-%d", i, j), ndarray.New(16), bitflip.Float32, RecoverAny())
				addrs <- a.AddrOf(7)
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		for addr := range addrs {
			if _, off, err := tab.Lookup(addr); err != nil || off != 7 {
				t.Errorf("concurrent Lookup(%#x) = %d, %v", addr, off, err)
			}
		}
		close(done)
	}()
	wg.Wait()
	close(addrs)
	<-done
	if tab.Len() != 64 {
		t.Errorf("Len = %d, want 64", tab.Len())
	}
}

func TestAllocationString(t *testing.T) {
	_, a1, _ := newTestTable(t)
	s := a1.String()
	for _, want := range []string{"grid3d", "RECOVER_ANY", "float32"} {
		if !contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestRegisterTenantScopesNames(t *testing.T) {
	tab := NewTable()
	a1, err := tab.RegisterTenant("alice", "field", ndarray.New(4, 4), bitflip.Float64, RecoverAny())
	if err != nil {
		t.Fatalf("RegisterTenant: %v", err)
	}
	// The same name in another tenant is a different allocation.
	a2, err := tab.RegisterTenant("bob", "field", ndarray.New(8, 8), bitflip.Float32, RecoverAny())
	if err != nil {
		t.Fatalf("RegisterTenant second tenant: %v", err)
	}
	if a1.ID == a2.ID || a1.Base == a2.Base {
		t.Errorf("tenants share identity: %v vs %v", a1, a2)
	}
	// A duplicate inside one tenant is rejected.
	if _, err := tab.RegisterTenant("alice", "field", ndarray.New(2, 2), bitflip.Float64, RecoverAny()); !errors.Is(err, ErrNameTaken) {
		t.Errorf("duplicate in tenant: err = %v, want ErrNameTaken", err)
	}

	got, ok := tab.ByTenantName("alice", "field")
	if !ok || got != a1 {
		t.Errorf("ByTenantName(alice) = %v, %v", got, ok)
	}
	got, ok = tab.ByTenantName("bob", "field")
	if !ok || got != a2 {
		t.Errorf("ByTenantName(bob) = %v, %v", got, ok)
	}
	if _, ok := tab.ByTenantName("carol", "field"); ok {
		t.Error("ByTenantName(carol) found an allocation")
	}
}

func TestTenantAllocationsAndTenants(t *testing.T) {
	tab := NewTable()
	if _, err := tab.RegisterTenant("alice", "u", ndarray.New(3, 3), bitflip.Float64, RecoverAny()); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.RegisterTenant("bob", "u", ndarray.New(3, 3), bitflip.Float64, RecoverAny()); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.RegisterTenant("alice", "v", ndarray.New(3, 3), bitflip.Float64, RecoverAny()); err != nil {
		t.Fatal(err)
	}
	// Plain Register lands in the unnamed namespace.
	tab.Register("w", ndarray.New(2), bitflip.Float64, RecoverAny())

	if got := tab.TenantAllocations("alice"); len(got) != 2 {
		t.Errorf("alice has %d allocations, want 2", len(got))
	}
	if got := tab.TenantAllocations("bob"); len(got) != 1 || got[0].Name != "u" {
		t.Errorf("bob allocations = %v", got)
	}
	if got := tab.TenantAllocations(""); len(got) != 1 || got[0].Name != "w" {
		t.Errorf("unnamed-namespace allocations = %v", got)
	}
	// Address lookup stays global: bob's allocation resolves by raw address
	// regardless of namespace.
	bobU, _ := tab.ByTenantName("bob", "u")
	a, off, err := tab.Lookup(bobU.AddrOf(5))
	if err != nil || a != bobU || off != 5 {
		t.Errorf("Lookup across tenants = %v, %d, %v", a, off, err)
	}
}
