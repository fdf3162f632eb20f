package registry

import (
	"testing"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/ndarray"
	"spatialdue/internal/predict"
)

// BenchmarkTableLookup times the address translation every RecoverAddress and
// MCA delivery starts with: a search over eight registered allocations and
// the parity check of the one that covers the address.
func BenchmarkTableLookup(b *testing.B) {
	tab := NewTable()
	var addrs []uint64
	for i := 0; i < 8; i++ {
		a := tab.Register("grid", ndarray.New(64, 64), bitflip.Float32, RecoverWith(predict.MethodLorenzo1))
		addrs = append(addrs, a.AddrOf(i*97))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tab.Lookup(addrs[i%len(addrs)]); err != nil {
			b.Fatal(err)
		}
	}
}
