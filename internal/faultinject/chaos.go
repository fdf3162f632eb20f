package faultinject

import (
	"math/rand"
	"sync"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/ndarray"
)

// Chaos injects secondary faults while a recovery is already running — the
// double-fault scenario the recovery supervisor's quarantine and escalation
// ladder exist for. A Chaos is wired into the supervisor's StageHook: every
// time the ladder enters a stage, the hook may trigger another fault
// somewhere else in the array, up to a budget, and report it via
// Engine.MarkCorrupt. Deterministic per seed, like the Injector.
type Chaos struct {
	mu     sync.Mutex
	rng    *rand.Rand
	dtype  bitflip.DType
	arr    *ndarray.Array
	budget int
}

// NewChaos creates a secondary-fault injector against arr that will corrupt
// at most budget cells.
func NewChaos(seed int64, dtype bitflip.DType, arr *ndarray.Array, budget int) *Chaos {
	return &Chaos{rng: rand.New(rand.NewSource(seed)), dtype: dtype, arr: arr, budget: budget}
}

// Trigger applies one secondary bit flip to a random element whose offset is
// not in exclude (the element currently under recovery, typically), spending
// one unit of budget. It returns the applied trial and true, or false when
// the budget is exhausted or no eligible element exists.
func (c *Chaos) Trigger(exclude ...int) (Trial, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.budget <= 0 {
		return Trial{}, false
	}
	// Bounded rejection sampling; give up rather than spin on tiny arrays.
	for attempt := 0; attempt < 64; attempt++ {
		off := c.rng.Intn(c.arr.Len())
		if chaosExcluded(off, exclude) {
			continue
		}
		t := Trial{Offset: off, Bit: c.rng.Intn(c.dtype.Bits()), Orig: c.arr.AtOffset(off)}
		t.Corrupted = bitflip.Flip(t.Orig, c.dtype, t.Bit)
		c.budget--
		c.arr.SetOffset(t.Offset, t.Corrupted)
		return t, true
	}
	return Trial{}, false
}

func chaosExcluded(off int, exclude []int) bool {
	for _, x := range exclude {
		if off == x {
			return true
		}
	}
	return false
}
