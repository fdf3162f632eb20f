package core

import (
	"errors"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/predict"
	"spatialdue/internal/registry"
)

func TestRecoverBurstContiguousRun(t *testing.T) {
	// A cache-line-style burst: 16 consecutive elements of a row.
	eng := NewEngine(Options{Seed: 1})
	a := smoothArray(32, 32)
	alloc := eng.Protect("g", a, bitflip.Float32, registry.RecoverWith(predict.MethodLorenzo1))

	base := a.Offset(16, 8)
	offsets := make([]int, 16)
	orig := make([]float64, 16)
	for i := range offsets {
		offsets[i] = base + i
		orig[i] = a.AtOffset(offsets[i])
		a.SetOffset(offsets[i], math.NaN())
	}

	out, err := eng.RecoverBurst(alloc, offsets)
	if err != nil {
		t.Fatal(err)
	}
	if out.Method != predict.MethodLorenzo1 || out.Tuned {
		t.Errorf("outcome = %+v", out)
	}
	for i, off := range offsets {
		re := bitflip.RelErr(orig[i], a.AtOffset(off))
		if re > 0.05 {
			t.Errorf("element %d: rel err %v after burst recovery", i, re)
		}
		if !math.IsNaN(out.Old[i]) {
			t.Errorf("Old[%d] = %v, want NaN", i, out.Old[i])
		}
		if out.New[i] != a.AtOffset(off) {
			t.Errorf("New[%d] inconsistent with array", i)
		}
	}
	if out.Sweeps < 1 {
		t.Error("no refinement sweeps ran")
	}
}

func TestRecoverBurstSquareBlock(t *testing.T) {
	// A 3x3 block: the center cell has no healthy face neighbor at seed
	// time and must still come out close after refinement.
	eng := NewEngine(Options{Seed: 2})
	a := smoothArray(32, 32)
	alloc := eng.Protect("g", a, bitflip.Float32, registry.RecoverWith(predict.MethodAverage))

	var offsets []int
	origs := map[int]float64{}
	for di := -1; di <= 1; di++ {
		for dj := -1; dj <= 1; dj++ {
			off := a.Offset(15+di, 15+dj)
			offsets = append(offsets, off)
			origs[off] = a.AtOffset(off)
			a.SetOffset(off, 1e30)
		}
	}
	if _, err := eng.RecoverBurst(alloc, offsets); err != nil {
		t.Fatal(err)
	}
	for off, want := range origs {
		if re := bitflip.RelErr(want, a.AtOffset(off)); re > 0.05 {
			t.Errorf("offset %d: rel err %v", off, re)
		}
	}
}

func TestRecoverBurstAutotunes(t *testing.T) {
	eng := NewEngine(Options{Seed: 3})
	a := smoothArray(32, 32)
	alloc := eng.Protect("g", a, bitflip.Float32, registry.RecoverAny())
	offsets := []int{a.Offset(10, 10), a.Offset(10, 11)}
	orig := []float64{a.AtOffset(offsets[0]), a.AtOffset(offsets[1])}
	a.SetOffset(offsets[0], math.Inf(1))
	a.SetOffset(offsets[1], -1e20)
	out, err := eng.RecoverBurst(alloc, offsets)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Tuned {
		t.Error("RECOVER_ANY burst did not tune")
	}
	for i := range offsets {
		if re := bitflip.RelErr(orig[i], out.New[i]); re > 0.05 {
			t.Errorf("element %d rel err %v", i, re)
		}
	}
	if eng.Stats().Recovered != 2 {
		t.Errorf("stats.Recovered = %d, want 2", eng.Stats().Recovered)
	}
}

func TestRecoverBurstSingleEqualsElementPath(t *testing.T) {
	// A burst of one should be about as accurate as RecoverElement.
	mk := func() (*Engine, *registry.Allocation, int, float64) {
		eng := NewEngine(Options{Seed: 4})
		a := smoothArray(24, 24)
		alloc := eng.Protect("g", a, bitflip.Float32, registry.RecoverWith(predict.MethodLorenzo1))
		off := a.Offset(12, 12)
		orig := a.AtOffset(off)
		a.SetOffset(off, math.NaN())
		return eng, alloc, off, orig
	}
	eng1, alloc1, off1, orig := mk()
	single, err := eng1.RecoverElement(alloc1, off1)
	if err != nil {
		t.Fatal(err)
	}
	eng2, alloc2, off2, _ := mk()
	burst, err := eng2.RecoverBurst(alloc2, []int{off2})
	if err != nil {
		t.Fatal(err)
	}
	reS := bitflip.RelErr(orig, single.New)
	reB := bitflip.RelErr(orig, burst.New[0])
	if reB > reS*10+1e-6 {
		t.Errorf("burst-of-one much worse than single: %v vs %v", reB, reS)
	}
}

func TestRecoverBurstValidation(t *testing.T) {
	eng := NewEngine(Options{})
	a := smoothArray(8, 8)
	alloc := eng.Protect("g", a, bitflip.Float32, registry.RecoverAny())
	if _, err := eng.RecoverBurst(alloc, nil); !errors.Is(err, ErrCheckpointRestartRequired) {
		t.Error("empty burst accepted")
	}
	if _, err := eng.RecoverBurst(alloc, []int{-1}); !errors.Is(err, ErrCheckpointRestartRequired) {
		t.Error("negative offset accepted")
	}
	all := make([]int, a.Len())
	for i := range all {
		all[i] = i
	}
	if _, err := eng.RecoverBurst(alloc, all); !errors.Is(err, ErrCheckpointRestartRequired) {
		t.Error("fully corrupted array accepted")
	}
}

func TestRecoverBurstNormalizesUnsortedDuplicates(t *testing.T) {
	// Merged fault reports arrive unsorted and overlapping; the pipeline
	// must canonicalize them and produce bit-identical array contents to
	// the same burst submitted sorted and deduplicated.
	mk := func() (*Engine, *registry.Allocation) {
		eng := NewEngine(Options{Seed: 6})
		a := smoothArray(32, 32)
		alloc := eng.Protect("g", a, bitflip.Float32, registry.RecoverWith(predict.MethodLorenzo1))
		for i := 0; i < 8; i++ {
			a.SetOffset(a.Offset(16, 8+i), math.NaN())
		}
		return eng, alloc
	}

	eng1, alloc1 := mk()
	canonical := make([]int, 8)
	for i := range canonical {
		canonical[i] = alloc1.Array.Offset(16, 8+i)
	}
	if _, err := eng1.RecoverBurst(alloc1, canonical); err != nil {
		t.Fatal(err)
	}

	eng2, alloc2 := mk()
	messy := []int{canonical[5], canonical[0], canonical[3], canonical[0],
		canonical[7], canonical[1], canonical[6], canonical[2], canonical[4], canonical[5]}
	out, err := eng2.RecoverBurst(alloc2, messy)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range canonical {
		got, want := alloc2.Array.AtOffset(off), alloc1.Array.AtOffset(off)
		if got != want {
			t.Errorf("offset %d: messy submission recovered %v, canonical %v", off, got, want)
		}
	}
	if len(out.New) != len(messy) || len(out.Old) != len(messy) {
		t.Fatalf("outcome not indexed like the input: %d/%d values for %d offsets",
			len(out.Old), len(out.New), len(messy))
	}
	for i, off := range messy {
		if out.New[i] != alloc2.Array.AtOffset(off) {
			t.Errorf("New[%d] = %v, want array value %v", i, out.New[i], alloc2.Array.AtOffset(off))
		}
		if !math.IsNaN(out.Old[i]) {
			t.Errorf("Old[%d] = %v, want the corrupted NaN", i, out.Old[i])
		}
	}
}

func TestRecoverBurstLargeBurstDegradesGracefully(t *testing.T) {
	// A whole corrupted row: errors should stay bounded by the field's
	// local variation, not explode.
	eng := NewEngine(Options{Seed: 5})
	a := smoothArray(32, 32)
	alloc := eng.Protect("g", a, bitflip.Float32, registry.RecoverWith(predict.MethodAverage))
	offsets := make([]int, 32)
	orig := make([]float64, 32)
	for j := 0; j < 32; j++ {
		offsets[j] = a.Offset(16, j)
		orig[j] = a.AtOffset(offsets[j])
		a.SetOffset(offsets[j], math.NaN())
	}
	if _, err := eng.RecoverBurst(alloc, offsets); err != nil {
		t.Fatal(err)
	}
	for j, off := range offsets {
		if re := bitflip.RelErr(orig[j], a.AtOffset(off)); re > 0.10 {
			t.Errorf("row element %d: rel err %v", j, re)
		}
	}
}

// TestRecoverBurstConcurrentMarkCorrupt runs row wipes on one allocation
// while another goroutine reports and clears the cells bordering them, so the
// seed pass's neighbor counts go stale under it. Every burst cell must end
// either verified (out of quarantine, finite, as reported in New) or
// quarantined with the burst's error saying so; once the reporter has cleared
// its cells, Quarantined holds exactly the burst cells left unrepaired.
func TestRecoverBurstConcurrentMarkCorrupt(t *testing.T) {
	eng := NewEngine(Options{Seed: 8})
	a := smoothArray(32, 32)
	alloc := eng.Protect("g", a, bitflip.Float32, registry.RecoverWith(predict.MethodLorenzo1))

	var bursts [][]int
	var border []int // the rows above and below each burst, past its ends
	for r := 4; r < 32; r += 6 {
		burst := make([]int, 16)
		for j := range burst {
			burst[j] = a.Offset(r, 8+j)
		}
		bursts = append(bursts, burst)
		for j := 6; j < 26; j++ {
			border = append(border, a.Offset(r-1, j), a.Offset(r+1, j))
		}
		border = append(border, a.Offset(r, 7), a.Offset(r, 24))
	}

	started, stop := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			if i == 1 {
				close(started)
			}
			select {
			case <-stop:
				for _, off := range border {
					eng.ClearCorrupt(alloc, off)
				}
				return
			default:
			}
			if off := border[i%len(border)]; i/len(border)%2 == 0 {
				eng.MarkCorrupt(alloc, off)
			} else {
				eng.ClearCorrupt(alloc, off)
			}
			runtime.Gosched()
		}
	}()

	<-started
	left := map[int]bool{} // burst cells the latest burst over them left quarantined
	for lap := 0; lap < 8; lap++ {
		for _, burst := range bursts {
			for _, off := range burst {
				a.SetOffset(off, math.NaN())
			}
			out, err := eng.RecoverBurst(alloc, burst)
			if err != nil && !errors.Is(err, ErrCheckpointRestartRequired) {
				t.Fatalf("burst failed outside the ladder: %v", err)
			}
			for i, off := range burst {
				left[off] = eng.IsQuarantined(alloc, off)
				switch {
				case left[off] && err == nil:
					t.Errorf("lap %d: cell %d left quarantined by a burst that reported success", lap, off)
				case !left[off] && (!isFinite(a.AtOffset(off)) || out.New[i] != a.AtOffset(off)):
					t.Errorf("lap %d: cell %d released holding %v (outcome %v)", lap, off, a.AtOffset(off), out.New[i])
				}
			}
			runtime.Gosched() // let the reporter in between bursts at GOMAXPROCS=1
		}
	}
	close(stop)
	wg.Wait()

	var want []int
	for off, q := range left {
		if q {
			want = append(want, off)
		}
	}
	sort.Ints(want)
	if got := eng.Quarantined(alloc); !slices.Equal(got, want) {
		t.Errorf("Quarantined = %v, want the unrepaired burst cells %v", got, want)
	}
}
