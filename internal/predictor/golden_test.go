package predictor

import (
	"math"
	"testing"

	"spatialdue/internal/mca"
)

// fixtureStream is the deterministic CE fixture: a mixed workload
// of storm, precursor, and background-noise banks generated from a seeded
// LCG. Identical on every run and every platform — no wall clock, no map
// iteration, no randomness source outside the LCG.
func fixtureStream(n int) []mca.CEObservation {
	out := make([]mca.CEObservation, 0, n)
	state := uint64(0x9E3779B97F4A7C15)
	next := func(mod int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(mod))
	}
	topo := mca.Topology{Banks: 8, RowBytes: 1024, ColBytes: 8}
	for seq := uint64(1); seq <= uint64(n); seq++ {
		var bank, row, col, bit int
		switch next(10) {
		case 0, 1, 2, 3: // storm bank: clustered rows, recurring bits
			bank, row, col, bit = 2, 3+next(2), next(4), []int{1, 9, 17, 33}[next(4)]
		case 4, 5, 6: // precursor bank: two rows, few bits
			bank, row, col, bit = 5, 7+next(2), next(8), []int{4, 12}[next(2)]
		default: // background noise, everywhere
			bank, row, col, bit = next(8), next(64), next(128), next(64)
		}
		lo, _ := topo.RowSpan(bank, row)
		out = append(out, mca.CEObservation{
			Seq: seq, Addr: lo + uint64(col*8), Bank: bank, Row: row, Col: col, Bit: bit,
		})
	}
	return out
}

// TestRiskGolden pins the model's scores bit for bit: every bank's risk
// after the first 100 observations of the fixture (partly filled windows)
// and after all 600 (wrapped windows), at the package's window, thresholds,
// age scale and weights.
func TestRiskGolden(t *testing.T) {
	type bankRisk struct {
		bank int
		bits uint64
		tier Tier
	}
	for _, tc := range []struct {
		n    int
		want []bankRisk
	}{
		{100, []bankRisk{
			{0, 0x3fb2af0f193ca71e, TierNone},
			{1, 0x3fbbe3d296cae0f5, TierNone},
			{2, 0x3fef6f334936b76d, TierCritical},
			{3, 0x3fb2bc9df9ebc4a9, TierNone},
			{4, 0x3fcec641d8921248, TierNone},
			{5, 0x3fed26f04d15b995, TierCritical},
			{7, 0x3fbbe3d296cae0f5, TierNone},
		}},
		{600, []bankRisk{
			{0, 0x3fe5296a45c02d88, TierElevated},
			{1, 0x3fe67e9327c51578, TierElevated},
			{2, 0x3feff2b6cdcefa0c, TierCritical},
			{3, 0x3fe4ced0c58d7100, TierElevated},
			{4, 0x3fe7ea8e8600d88a, TierElevated},
			{5, 0x3fefed46a035ce14, TierCritical},
			{6, 0x3fe78e49f7711567, TierElevated},
			{7, 0x3fe248397066b1f3, TierElevated},
		}},
	} {
		p := New(Config{})
		for _, o := range fixtureStream(tc.n) {
			p.Observe(o)
		}
		reports := p.Report()
		if len(reports) != len(tc.want) {
			t.Fatalf("after %d observations: %d banks reported, want %d", tc.n, len(reports), len(tc.want))
		}
		for i, r := range reports {
			w := tc.want[i]
			if r.Bank != w.bank || math.Float64bits(r.Risk) != w.bits || r.Tier != w.tier {
				t.Errorf("after %d observations: bank %d risk %#x (%v) tier %v, want bank %d risk %#x tier %v",
					tc.n, r.Bank, math.Float64bits(r.Risk), r.Risk, r.Tier, w.bank, w.bits, w.tier)
			}
		}
		if p.Total() != uint64(tc.n) {
			t.Errorf("Total = %d, want %d", p.Total(), tc.n)
		}
	}
}
