// Package registry implements Section 3.2 of the paper: a table of all
// important memory allocations. Registering a region records its base
// address, element data type, dimensionality, and (optionally) a
// domain-specific recovery method. When the machine-check architecture
// reports a DUE at a raw memory address, the table relates the address back
// to an array element so that localized, low-cost recovery can run; an
// unregistered address forces the expensive checkpoint-restart path
// (Section 3.3).
//
// The repository has no real MCA hardware, so allocations live in a
// simulated physical address space: every registration is assigned a
// page-aligned base address separated by guard gaps, and lookups translate
// simulated addresses to (allocation, element index) pairs exactly the way
// the real system translates MCi_ADDR contents.
package registry

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
	"sync/atomic"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/ndarray"
	"spatialdue/internal/predict"
)

// ErrNotRegistered is returned by Lookup when no allocation covers an
// address — the caller must fall back to checkpoint-restart.
var ErrNotRegistered = errors.New("registry: address not registered")

// ErrDims is returned when the registered dimensions disagree with the
// array being protected.
var ErrDims = errors.New("registry: dimension mismatch")

// ErrNameTaken is returned by RegisterTenant when the tenant already has an
// allocation registered under the requested name. Tenant-scoped names must
// be unique so that remote clients can address allocations by name alone.
var ErrNameTaken = errors.New("registry: allocation name already registered in tenant")

const (
	// pageSize is the simulated page granularity for base addresses.
	pageSize = 4096
	// guardGap separates consecutive allocations so off-by-one addresses
	// never silently resolve into a neighboring region.
	guardGap = 4 * pageSize
	// baseStart is the first simulated physical address handed out; keeping
	// it non-zero mimics real systems and catches zero-valued addresses.
	baseStart = 0x1000_0000
)

// ValueRange bounds the physically plausible values of an allocation,
// registered at Protect time from domain knowledge (a density is
// non-negative, a probability lies in [0,1], ...). The recovery supervisor
// rejects any reconstruction outside [Lo, Hi] and escalates instead of
// writing an implausible value into application state.
type ValueRange struct {
	// Lo and Hi are the inclusive plausibility bounds.
	Lo, Hi float64
}

// Contains reports whether v lies inside the range.
func (r ValueRange) Contains(v float64) bool { return v >= r.Lo && v <= r.Hi }

// Policy selects how a corrupted element of an allocation is recovered,
// mirroring the paper's FTI_Protect extension (Algorithm 1): either a fixed
// method chosen with domain knowledge (RECOVER_LORENZO, ...) or RECOVER_ANY,
// which triggers the local auto-tuner. An optional ValueRange adds a
// domain-knowledge plausibility bound checked on every reconstruction.
type Policy struct {
	// Any corresponds to RECOVER_ANY: auto-tune locally at recovery time.
	Any bool
	// Method is the fixed method when Any is false.
	Method predict.Method
	// Range, when non-nil, bounds plausible reconstructed values.
	Range *ValueRange
}

// RecoverAny is the RECOVER_ANY policy.
func RecoverAny() Policy { return Policy{Any: true} }

// RecoverWith fixes the recovery method.
func RecoverWith(m predict.Method) Policy { return Policy{Method: m} }

// WithRange returns a copy of the policy carrying a plausibility range for
// reconstructed values, e.g. RecoverAny().WithRange(0, 1) for a probability
// field.
func (p Policy) WithRange(lo, hi float64) Policy {
	p.Range = &ValueRange{Lo: lo, Hi: hi}
	return p
}

// String implements fmt.Stringer.
func (p Policy) String() string {
	s := "RECOVER_" + p.Method.String()
	if p.Any {
		s = "RECOVER_ANY"
	}
	if p.Range != nil {
		s += fmt.Sprintf(" range=[%g,%g]", p.Range.Lo, p.Range.Hi)
	}
	return s
}

// Allocation describes one registered memory region.
type Allocation struct {
	// ID is the registration handle (stable for the table's lifetime).
	ID int
	// Name is a user label (typically the variable name).
	Name string
	// Tenant is the namespace the allocation was registered into. Direct
	// library use leaves it empty; the networked front end scopes every
	// registration to the reporting client's tenant so fleets sharing one
	// recovery authority cannot address each other's state.
	Tenant string
	// Base is the simulated physical base address.
	Base uint64
	// DType is the element representation used for address math and for
	// choosing which bits a fault can flip.
	DType bitflip.DType
	// Array is the protected data.
	Array *ndarray.Array
	// Policy is the recovery policy recorded at registration.
	Policy Policy

	// seal is the Reed-Solomon parity block protecting the descriptor
	// fields above (see seal.go). Written at registration, consulted by
	// every verified lookup.
	seal *descriptorSeal
}

// QualifiedName returns the tenant-qualified identity of the allocation:
// "tenant/name" for tenant-scoped registrations, the bare name otherwise.
// Use it wherever allocations from different tenants must not collide
// (circuit-breaker keys, metrics labels, log lines).
func (a *Allocation) QualifiedName() string {
	if a.Tenant == "" {
		return a.Name
	}
	return a.Tenant + "/" + a.Name
}

// SizeBytes returns the region size in bytes.
func (a *Allocation) SizeBytes() uint64 {
	return uint64(a.Array.Len()) * uint64(a.DType.Size())
}

// End returns one past the last byte of the region.
func (a *Allocation) End() uint64 { return a.Base + a.SizeBytes() }

// AddrOf returns the simulated address of element off (the address of its
// first byte).
func (a *Allocation) AddrOf(off int) uint64 {
	return a.Base + uint64(off)*uint64(a.DType.Size())
}

// Contains reports whether addr falls inside the region.
func (a *Allocation) Contains(addr uint64) bool {
	return addr >= a.Base && addr < a.End()
}

// ElementAt translates an address inside the region to the linear element
// offset containing that byte.
func (a *Allocation) ElementAt(addr uint64) (int, error) {
	if !a.Contains(addr) {
		return 0, ErrNotRegistered
	}
	return int((addr - a.Base) / uint64(a.DType.Size())), nil
}

// String implements fmt.Stringer.
func (a *Allocation) String() string {
	return fmt.Sprintf("alloc %d %q base=%#x dims=%v dtype=%v policy=%v",
		a.ID, a.Name, a.Base, a.Array.Dims(), a.DType, a.Policy)
}

// Table is the registry of protected allocations. It is safe for concurrent
// use: registration happens during application setup while lookups happen
// from the (simulated) machine-check handler.
type Table struct {
	mu      sync.RWMutex
	allocs  []*Allocation // sorted by Base
	nextID  int
	nextTop uint64

	// Descriptor-parity accounting (spatialdue_registry_descriptor_*).
	descVerifies atomic.Int64
	descRepairs  atomic.Int64
	descRefusals atomic.Int64
}

// NewTable creates an empty registry.
func NewTable() *Table {
	return &Table{nextTop: baseStart}
}

// Register adds an allocation to the table, assigning it a page-aligned
// simulated base address, and returns the allocation handle. The dims
// recorded are taken from the array itself (the paper's FTI_Protect call
// passes them explicitly; here the ndarray already carries them, and a
// mismatch between caller expectation and array shape is checked by
// RegisterDims).
func (t *Table) Register(name string, arr *ndarray.Array, dtype bitflip.DType, policy Policy) *Allocation {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.registerLocked("", name, arr, dtype, policy)
}

// RegisterTenant registers an allocation into a tenant namespace. Unlike
// Register, names are unique within a tenant (ErrNameTaken otherwise), so
// networked clients can address allocations by (tenant, name) alone. All
// tenants share one simulated physical address space — an MCE carries a raw
// address, and tenancy is a property of the reporting path, not of the
// memory — so Lookup stays global while name resolution is scoped.
func (t *Table) RegisterTenant(tenant, name string, arr *ndarray.Array, dtype bitflip.DType, policy Policy) (*Allocation, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, a := range t.allocs {
		if a.Tenant == tenant && a.Name == name {
			return nil, fmt.Errorf("%w: %q in tenant %q", ErrNameTaken, name, tenant)
		}
	}
	return t.registerLocked(tenant, name, arr, dtype, policy), nil
}

// registerLocked assigns a base address and appends the allocation; the
// caller holds t.mu.
func (t *Table) registerLocked(tenant, name string, arr *ndarray.Array, dtype bitflip.DType, policy Policy) *Allocation {
	base := (t.nextTop + pageSize - 1) / pageSize * pageSize
	a := &Allocation{
		ID:     t.nextID,
		Name:   name,
		Tenant: tenant,
		Base:   base,
		DType:  dtype,
		Array:  arr,
		Policy: policy,
	}
	t.nextID++
	t.nextTop = a.End() + guardGap
	a.seal = sealDescriptor(encodeDescriptor(fieldsOf(a)))
	t.allocs = append(t.allocs, a)
	return a
}

// Unregister removes an allocation by ID. Its address range is never reused.
func (t *Table) Unregister(id int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, a := range t.allocs {
		if a.ID == id {
			t.allocs = append(t.allocs[:i], t.allocs[i+1:]...)
			return true
		}
	}
	return false
}

// Len returns the number of registered allocations.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.allocs)
}

// Allocations returns a snapshot of the registered allocations in address
// order.
func (t *Table) Allocations() []*Allocation {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]*Allocation(nil), t.allocs...)
}

// ByTenantName returns the tenant's allocation registered under name.
func (t *Table) ByTenantName(tenant, name string) (*Allocation, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, a := range t.allocs {
		if a.Tenant == tenant && a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// TenantAllocations returns a snapshot of the tenant's allocations in
// address order.
func (t *Table) TenantAllocations(tenant string) []*Allocation {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []*Allocation
	for _, a := range t.allocs {
		if a.Tenant == tenant {
			out = append(out, a)
		}
	}
	return out
}

// Lookup relates a simulated physical address to the allocation covering it
// and the linear element offset of the affected element (Section 3.3). The
// covering allocation's descriptor is parity-verified before the translation
// is trusted: a corrupted base or dtype would otherwise misdirect the repair
// to the wrong element. A repairable descriptor is reconstructed in place
// and the lookup proceeds; unrepairable corruption yields ErrMetadataCorrupt
// (escalate to checkpoint-restore), and an address no verified-clean region
// contains yields ErrNotRegistered.
func (t *Table) Lookup(addr uint64) (*Allocation, int, error) {
	t.mu.RLock()
	// Fast path: binary search over regions sorted by base, then a pure
	// parity check of the candidate. Any anomaly — no hit, or a dirty
	// descriptor — falls through to the repairing slow path, because a
	// corrupted base may have broken the sort invariant the search needs.
	i := sort.Search(len(t.allocs), func(i int) bool { return t.allocs[i].End() > addr })
	if i < len(t.allocs) && t.allocs[i].Contains(addr) {
		a := t.allocs[i]
		if t.descriptorCleanLocked(a) {
			off, err := a.ElementAt(addr)
			t.mu.RUnlock()
			if err != nil {
				return nil, 0, err
			}
			return a, off, nil
		}
	}
	t.mu.RUnlock()
	return t.lookupRepairing(addr)
}

// lookupRepairing is the slow path: verify (and repair where the parity
// allows) every descriptor, restore the base-sorted invariant, and resolve
// the address among the provably clean allocations only.
func (t *Table) lookupRepairing(addr uint64) (*Allocation, int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	refused := false
	bad := map[*Allocation]bool{}
	for _, a := range t.allocs {
		if _, err := t.verifyLocked(a); err != nil {
			refused = true
			bad[a] = true
		}
	}
	sort.Slice(t.allocs, func(i, j int) bool { return t.allocs[i].Base < t.allocs[j].Base })
	for _, a := range t.allocs {
		if bad[a] || !a.Contains(addr) {
			continue
		}
		off, err := a.ElementAt(addr)
		if err != nil {
			return nil, 0, err
		}
		return a, off, nil
	}
	if refused {
		// Some descriptor is untrustworthy beyond reconstruction; the
		// address may belong to it, so "not registered" cannot be proven.
		return nil, 0, fmt.Errorf("%w: lookup of %#x refused", ErrMetadataCorrupt, addr)
	}
	return nil, 0, fmt.Errorf("%w: %#x", ErrNotRegistered, addr)
}

// descriptorCleanLocked is the pure (non-repairing) parity check: it
// re-encodes the live descriptor and compares per-shard CRCs against the
// seal. Caller holds t.mu (read or write).
func (t *Table) descriptorCleanLocked(a *Allocation) bool {
	t.descVerifies.Add(1)
	if a.seal == nil {
		return false
	}
	enc := encodeDescriptor(fieldsOf(a))
	if len(enc) != a.seal.encLen {
		return false
	}
	sz := shardSize(len(enc))
	for i, sh := range splitShards(enc, sz) {
		if crc32.ChecksumIEEE(sh) != a.seal.crcs[i] {
			return false
		}
	}
	return true
}

// verifyLocked verifies one descriptor against its seal, repairing the live
// fields in place when the parity can reconstruct them. Returns whether a
// repair happened. Caller holds t.mu for writing.
func (t *Table) verifyLocked(a *Allocation) (bool, error) {
	t.descVerifies.Add(1)
	if a.seal == nil {
		t.descRefusals.Add(1)
		return false, fmt.Errorf("%w: allocation %d has no seal", ErrMetadataCorrupt, a.ID)
	}
	enc := encodeDescriptor(fieldsOf(a))
	orig, repaired, err := verifySealed(enc, a.seal)
	if err != nil {
		t.descRefusals.Add(1)
		return false, fmt.Errorf("%w: allocation %d (%s)", ErrMetadataCorrupt, a.ID, a.QualifiedName())
	}
	if !repaired {
		return false, nil
	}
	f, derr := decodeDescriptor(orig)
	if derr != nil {
		t.descRefusals.Add(1)
		return false, fmt.Errorf("%w: allocation %d: %v", ErrMetadataCorrupt, a.ID, derr)
	}
	// Write back only the fields the repair changed: recovery workers read
	// an allocation's name, tenant and policy without the table lock, and
	// rewriting an unchanged field would race with those reads.
	if a.ID != f.ID {
		a.ID = f.ID
	}
	if a.Base != f.Base {
		a.Base = f.Base
	}
	if a.DType != f.DType {
		a.DType = f.DType
	}
	if !samePolicy(a.Policy, f.Policy) {
		a.Policy = f.Policy
	}
	if a.Name != f.Name {
		a.Name = f.Name
	}
	if a.Tenant != f.Tenant {
		a.Tenant = f.Tenant
	}
	t.descRepairs.Add(1)
	return true, nil
}

// samePolicy reports whether two policies are equal by value.
func samePolicy(a, b Policy) bool {
	if a.Any != b.Any || a.Method != b.Method || (a.Range == nil) != (b.Range == nil) {
		return false
	}
	return a.Range == nil || *a.Range == *b.Range
}

// VerifyDescriptor parity-verifies one allocation's descriptor, repairing
// it in place when possible. It returns nil when the descriptor is clean or
// was reconstructed, and ErrMetadataCorrupt when it cannot be trusted — the
// caller must refuse to repair through it. The recovery service calls this
// before replaying journaled intents and the HTTP API before name-addressed
// recoveries.
func (t *Table) VerifyDescriptor(a *Allocation) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	repaired, err := t.verifyLocked(a)
	if repaired {
		sort.Slice(t.allocs, func(i, j int) bool { return t.allocs[i].Base < t.allocs[j].Base })
	}
	return err
}

// DescriptorStats reports lifetime descriptor-parity accounting:
// verifications performed, descriptors repaired from parity, and lookups
// refused as unrecoverably corrupt.
func (t *Table) DescriptorStats() (verifies, repairs, refusals int64) {
	return t.descVerifies.Load(), t.descRepairs.Load(), t.descRefusals.Load()
}

// DescriptorBits is the corruptible bit-width of a live descriptor: 64 bits
// of Base plus the 8-bit DType byte. CorruptDescriptor accepts bits in
// [0, DescriptorBits).
const DescriptorBits = 72

// CorruptDescriptor flips one bit of the live address-generation metadata of
// allocation id — the fault-injection hook for the ClassMetadata fault
// model. Bits 0..63 land in Base, bits 64..71 in the DType byte. The seal is
// left untouched (it models ECC-protected cold storage), so a subsequent
// verified lookup detects and repairs the damage. Returns ErrNotRegistered
// for an unknown id.
func (t *Table) CorruptDescriptor(id int, bit int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, a := range t.allocs {
		if a.ID != id {
			continue
		}
		switch {
		case bit >= 0 && bit < 64:
			a.Base ^= uint64(1) << uint(bit)
		case bit >= 64 && bit < 72:
			a.DType ^= bitflip.DType(1) << uint(bit-64)
		default:
			return fmt.Errorf("registry: descriptor bit %d out of range [0,%d)", bit, DescriptorBits)
		}
		return nil
	}
	return fmt.Errorf("%w: id %d", ErrNotRegistered, id)
}
