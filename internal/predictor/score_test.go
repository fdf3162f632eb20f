package predictor

import (
	"testing"

	"spatialdue/internal/mca"
)

// obs builds a CEObservation with an auto-incrementing sequence.
type obsGen struct{ seq uint64 }

func (g *obsGen) at(bank, row, col, bit int) mca.CEObservation {
	g.seq++
	return mca.CEObservation{Seq: g.seq, Bank: bank, Row: row, Col: col, Bit: bit}
}

// TestScoreScenarios pins the default model's behavior to the scenarios
// the tiers are calibrated against: a silent bank scores ~0, background
// noise stays below watch, a moderate clustered precursor pattern reaches
// elevated, and a concentrated multi-bit storm reaches critical.
func TestScoreScenarios(t *testing.T) {
	t.Run("silent", func(t *testing.T) {
		p := New(Config{})
		if risk, tier := p.BankRisk(0); risk != 0 || tier != TierNone {
			t.Errorf("silent bank: risk=%v tier=%v, want 0/none", risk, tier)
		}
	})

	t.Run("background-noise-stays-none", func(t *testing.T) {
		p := New(Config{})
		g := &obsGen{}
		// Three scattered single-bit CEs, interleaved with traffic on other
		// banks (so the rate feature sees a wide span).
		for i := 0; i < 40; i++ {
			p.Observe(g.at(1+i%5, i, i%7, i%2))
		}
		p.Observe(g.at(0, 10, 1, 3))
		for i := 0; i < 40; i++ {
			p.Observe(g.at(1+i%5, i, i%7, i%2))
		}
		p.Observe(g.at(0, 55, 4, 3))
		for i := 0; i < 40; i++ {
			p.Observe(g.at(1+i%5, i, i%7, i%2))
		}
		p.Observe(g.at(0, 90, 2, 3))
		risk, tier := p.BankRisk(0)
		if tier != TierNone {
			t.Errorf("background noise: risk=%v tier=%v, want none", risk, tier)
		}
	})

	t.Run("clustered-precursors-reach-elevated", func(t *testing.T) {
		p := New(Config{})
		g := &obsGen{}
		// A dozen CEs concentrated on two rows with four distinct bit
		// positions — the Yu et al. precursor shape.
		bits := []int{3, 11, 19, 35}
		for i := 0; i < 12; i++ {
			p.Observe(g.at(2, 7+i%2, i%4, bits[i%4]))
		}
		risk, tier := p.BankRisk(2)
		if tier < TierElevated {
			t.Errorf("precursor pattern: risk=%v tier=%v, want >= elevated", risk, tier)
		}
		if tier == TierCritical {
			t.Errorf("precursor pattern already critical (risk=%v) — thresholds too hot", risk)
		}
	})

	t.Run("storm-reaches-critical", func(t *testing.T) {
		p := New(Config{})
		g := &obsGen{}
		bits := []int{1, 5, 9, 17, 23, 42}
		for i := 0; i < 40; i++ {
			p.Observe(g.at(3, 12+i%2, i%6, bits[i%6]))
		}
		risk, tier := p.BankRisk(3)
		if tier != TierCritical {
			t.Errorf("storm: risk=%v tier=%v, want critical", risk, tier)
		}
	})

	t.Run("risk-monotone-under-storm", func(t *testing.T) {
		p := New(Config{})
		g := &obsGen{}
		last := 0.0
		bits := []int{1, 5, 9, 17}
		for i := 0; i < 30; i++ {
			p.Observe(g.at(0, i%2, i%4, bits[i%4]))
			risk, _ := p.BankRisk(0)
			if risk < last-1e-9 {
				t.Fatalf("risk fell from %v to %v at observation %d", last, risk, i+1)
			}
			last = risk
		}
	})
}

func TestTierTransitionsFireInOrder(t *testing.T) {
	var changes []TierChange
	p := New(Config{OnTier: func(tc TierChange) { changes = append(changes, tc) }})
	g := &obsGen{}
	bits := []int{1, 5, 9, 17, 23, 42}
	for i := 0; i < 60; i++ {
		p.Observe(g.at(4, i%2, i%6, bits[i%6]))
	}
	if len(changes) == 0 {
		t.Fatal("no tier transitions fired")
	}
	for i, tc := range changes {
		if tc.Bank != 4 {
			t.Errorf("change %d on bank %d, want 4", i, tc.Bank)
		}
		if tc.To <= tc.From {
			t.Errorf("change %d not rising: %v -> %v", i, tc.From, tc.To)
		}
		if i > 0 && tc.From != changes[i-1].To {
			t.Errorf("change %d does not chain: %v -> %v after %v", i, tc.From, tc.To, changes[i-1].To)
		}
	}
	if final := changes[len(changes)-1].To; final != TierCritical {
		t.Errorf("final tier %v, want critical", final)
	}
}

func TestHotRowsRankedByCount(t *testing.T) {
	p := New(Config{})
	g := &obsGen{}
	for i := 0; i < 9; i++ {
		p.Observe(g.at(1, 5, i, 1)) // row 5: 9 CEs
	}
	for i := 0; i < 7; i++ {
		p.Observe(g.at(1, 2, i, 1)) // row 2: 7 CEs
	}
	for i := 0; i < 3; i++ {
		p.Observe(g.at(1, 8, i, 1)) // row 8: below the bar
	}
	p.Observe(g.at(2, 5, 0, 1)) // other bank, must not leak in

	got := p.HotRows(1, 6)
	want := []mca.RowKey{{Bank: 1, Row: 5}, {Bank: 1, Row: 2}}
	if len(got) != len(want) {
		t.Fatalf("HotRows = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("HotRows = %v, want %v", got, want)
		}
	}
	if all := p.HotRows(1, 1); len(all) != 3 {
		t.Errorf("HotRows(1,1) = %v, want 3 rows", all)
	}
}

func TestParseTier(t *testing.T) {
	for tier := TierNone; tier <= TierCritical; tier++ {
		got, err := ParseTier(tier.String())
		if err != nil || got != tier {
			t.Errorf("ParseTier(%q) = %v, %v", tier.String(), got, err)
		}
	}
	if _, err := ParseTier("bogus"); err == nil {
		t.Error("ParseTier accepted bogus input")
	}
}

func TestWindowSlides(t *testing.T) {
	p := New(Config{})
	g := &obsGen{}
	// Fill the window with a hot pattern, then push it out with benign
	// single-row, single-bit observations: risk must decay.
	bits := []int{1, 5, 9, 17}
	for i := 0; i < window; i++ {
		p.Observe(g.at(0, i%2, i%4, bits[i%4]))
	}
	hot, _ := p.BankRisk(0)
	for i := 0; i < 200; i++ {
		p.Observe(g.at(1, i, i, 0)) // stretch the global span
	}
	for i := 0; i < window; i++ {
		p.Observe(g.at(0, 40+i, 3, 2))
	}
	cooled, _ := p.BankRisk(0)
	if cooled >= hot {
		t.Errorf("risk did not decay after window slid: hot=%v cooled=%v", hot, cooled)
	}
}
