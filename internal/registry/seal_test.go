package registry

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/ndarray"
	"spatialdue/internal/predict"
)

func sealTestAlloc(t *testing.T) (*Table, *Allocation) {
	t.Helper()
	arr := ndarray.New(8, 8)
	for i := 0; i < arr.Len(); i++ {
		arr.SetOffset(i, float64(i))
	}
	tab := NewTable()
	a, err := tab.RegisterTenant("acme", "grid", arr, bitflip.Float32,
		RecoverWith(predict.MethodLorenzo1).WithRange(0, 100))
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	return tab, a
}

func TestDescriptorEncodeDecodeRoundTrip(t *testing.T) {
	_, a := sealTestAlloc(t)
	f := fieldsOf(a)
	got, err := decodeDescriptor(encodeDescriptor(f))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.ID != f.ID || got.Base != f.Base || got.DType != f.DType ||
		got.Name != f.Name || got.Tenant != f.Tenant ||
		got.Policy.Any != f.Policy.Any || got.Policy.Method != f.Policy.Method {
		t.Errorf("round trip mismatch: got %+v want %+v", got, f)
	}
	if got.Policy.Range == nil || *got.Policy.Range != *f.Policy.Range {
		t.Errorf("range round trip mismatch: got %v want %v", got.Policy.Range, f.Policy.Range)
	}
	if len(got.Dims) != 2 || got.Dims[0] != 8 || got.Dims[1] != 8 {
		t.Errorf("dims round trip mismatch: %v", got.Dims)
	}
}

func TestCorruptedDescriptorRepairedOnLookup(t *testing.T) {
	tab, a := sealTestAlloc(t)
	trueBase := a.Base
	addr := a.AddrOf(10)

	if err := tab.CorruptDescriptor(a.ID, 17); err != nil {
		t.Fatalf("corrupt: %v", err)
	}
	if a.Base == trueBase {
		t.Fatal("corruption did not change the base")
	}
	got, off, err := tab.Lookup(addr)
	if err != nil {
		t.Fatalf("lookup after corruption: %v", err)
	}
	if got != a || off != 10 {
		t.Errorf("lookup resolved (%v, %d), want the repaired allocation at offset 10", got, off)
	}
	if a.Base != trueBase {
		t.Errorf("base not repaired: %#x want %#x", a.Base, trueBase)
	}
	_, repairs, refusals := tab.DescriptorStats()
	if repairs == 0 {
		t.Error("no repair counted")
	}
	if refusals != 0 {
		t.Errorf("refusals = %d, want 0", refusals)
	}
}

func TestCorruptedDTypeRepaired(t *testing.T) {
	tab, a := sealTestAlloc(t)
	if err := tab.CorruptDescriptor(a.ID, 64); err != nil {
		t.Fatalf("corrupt: %v", err)
	}
	if err := tab.VerifyDescriptor(a); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if a.DType != bitflip.Float32 {
		t.Errorf("dtype not repaired: %v", a.DType)
	}
}

// Damage spread across more shards than the parity can reconstruct must be
// refused, never silently resolved to a wrong address.
func TestUnrecoverableDescriptorRefused(t *testing.T) {
	tab, a := sealTestAlloc(t)
	addr := a.AddrOf(3)
	// The base occupies eight consecutive encoding bytes, which byte
	// interleaving spreads across all four shards; corrupting three distinct
	// bytes corrupts three shards > sealM parity shards.
	for _, bit := range []int{0, 8, 16} {
		if err := tab.CorruptDescriptor(a.ID, bit); err != nil {
			t.Fatalf("corrupt bit %d: %v", bit, err)
		}
	}
	_, _, err := tab.Lookup(addr)
	if !errors.Is(err, ErrMetadataCorrupt) {
		t.Fatalf("lookup err = %v, want ErrMetadataCorrupt", err)
	}
	if err := tab.VerifyDescriptor(a); !errors.Is(err, ErrMetadataCorrupt) {
		t.Errorf("verify err = %v, want ErrMetadataCorrupt", err)
	}
	if _, _, refusals := tab.DescriptorStats(); refusals == 0 {
		t.Error("no refusal counted")
	}
}

// FuzzDescriptorSealRoundTrip corrupts arbitrary byte positions of a sealed
// descriptor encoding and checks the invariant the recovery path depends
// on: verification either returns the bit-exact original encoding or
// refuses with ErrMetadataCorrupt — it never hands back a different,
// plausible-looking descriptor.
func FuzzDescriptorSealRoundTrip(f *testing.F) {
	arr := ndarray.New(6, 5)
	tab := NewTable()
	a, err := tab.RegisterTenant("t0", "field", arr, bitflip.Float32, RecoverAny().WithRange(-1, 1))
	if err != nil {
		f.Fatalf("register: %v", err)
	}
	enc := encodeDescriptor(fieldsOf(a))
	seal := sealDescriptor(enc)

	f.Add([]byte{0}, byte(0x01))
	f.Add([]byte{9, 10, 11}, byte(0xFF))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, byte(0x80))
	f.Fuzz(func(t *testing.T, positions []byte, mask byte) {
		if mask == 0 {
			mask = 1
		}
		mut := append([]byte(nil), enc...)
		for _, p := range positions {
			mut[int(p)%len(mut)] ^= mask
		}
		got, repaired, err := verifySealed(mut, seal)
		if err != nil {
			if !errors.Is(err, ErrMetadataCorrupt) {
				t.Fatalf("unexpected error type: %v", err)
			}
			return
		}
		if !bytes.Equal(got, enc) {
			t.Fatalf("verification returned a non-original encoding (repaired=%v):\n got %x\nwant %x", repaired, got, enc)
		}
		if _, derr := decodeDescriptor(got); derr != nil {
			t.Fatalf("reconstructed encoding fails decode: %v", derr)
		}
	})
}

// FuzzDescriptorDecode throws arbitrary bytes at the decoder: it must
// return an error or a value, never panic or over-allocate.
func FuzzDescriptorDecode(f *testing.F) {
	arr := ndarray.New(3, 3)
	tab := NewTable()
	a, _ := tab.RegisterTenant("t", "n", arr, bitflip.Float64, RecoverAny())
	f.Add(encodeDescriptor(fieldsOf(a)))
	f.Add([]byte{})
	f.Add([]byte{sealVersion, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		f, err := decodeDescriptor(data)
		if err == nil {
			// A successful decode must re-encode without panicking.
			_ = encodeDescriptor(f)
		}
	})
}

// TestRepairLeavesIntactFieldsUnwritten: a repair writes back only the
// fields the corruption changed. Recovery workers read an allocation's
// name, tenant and policy without the table lock while descriptor repairs
// run under it; under -race a rewrite of those unchanged fields is a
// reported data race.
func TestRepairLeavesIntactFieldsUnwritten(t *testing.T) {
	tab, a := sealTestAlloc(t)
	name, tenant, policy := a.Name, a.Tenant, a.Policy
	addr := a.AddrOf(10)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if a.Name != name || a.Tenant != tenant || a.Policy.Range != policy.Range {
				t.Error("repair changed an intact field")
				return
			}
		}
	}()
	for bit := 0; bit < DescriptorBits; bit += 9 {
		if err := tab.CorruptDescriptor(a.ID, bit); err != nil {
			t.Fatalf("corrupt bit %d: %v", bit, err)
		}
		if _, _, err := tab.Lookup(addr); err != nil {
			t.Fatalf("lookup after corrupting bit %d: %v", bit, err)
		}
	}
	close(stop)
	wg.Wait()
	if _, repairs, _ := tab.DescriptorStats(); repairs == 0 {
		t.Fatal("no repair counted")
	}
}
