//go:build !race

// Allocation assertions are skipped under -race: the race runtime
// instruments map and sync accesses with allocations the production
// build never makes.

package registry

import (
	"strings"
	"testing"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/ndarray"
	"spatialdue/internal/predict"
)

// TestLookupAllocations: resolving an address in a clean table, descriptor
// parity check included, allocates nothing — it runs on every RecoverAddress
// and every MCA delivery.
func TestLookupAllocations(t *testing.T) {
	tab, a := sealTestAlloc(t)
	tab.Register("other", ndarray.New(4, 5, 6), bitflip.Float64, RecoverAny())
	addr := a.AddrOf(10)
	lookup := func() {
		got, off, err := tab.Lookup(addr)
		if err != nil || got != a || off != 10 {
			t.Fatalf("Lookup = %v, %d, %v", got, off, err)
		}
	}
	if n := testing.AllocsPerRun(200, lookup); n != 0 {
		t.Errorf("clean Lookup: %v allocs, want 0", n)
	}
}

// TestDescriptorCheckLongNames: a descriptor too long for the check's stack
// buffer takes the heap and is judged the same: clean as registered, dirty
// once a byte of it flips.
func TestDescriptorCheckLongNames(t *testing.T) {
	tab := NewTable()
	a, err := tab.RegisterTenant(strings.Repeat("t", 300), strings.Repeat("n", 400), ndarray.New(8, 8), bitflip.Float32,
		RecoverWith(predict.MethodLorenzo1))
	if err != nil {
		t.Fatal(err)
	}
	if !tab.descriptorCleanLocked(a) {
		t.Fatal("long-named descriptor judged dirty as registered")
	}
	if err := tab.CorruptDescriptor(a.ID, 3); err != nil {
		t.Fatal(err)
	}
	if tab.descriptorCleanLocked(a) {
		t.Fatal("corrupted long-named descriptor judged clean")
	}
	if got, _, err := tab.Lookup(a.AddrOf(5)); err != nil || got != a {
		t.Fatalf("Lookup after corruption = %v, %v; want the repaired allocation", got, err)
	}
}
