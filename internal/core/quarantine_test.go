package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"spatialdue/internal/autotune"
	"spatialdue/internal/bitflip"
	"spatialdue/internal/ndarray"
	"spatialdue/internal/predict"
	"spatialdue/internal/registry"
)

// TestQuarantineViewEnumerates pins the per-array set the engine hands to
// every Env: part of the array's record, ascending range enumeration under
// one query, no answer outside the array, a decline only when the query
// would read more block counts or words than the caller's limit, and no
// cross-talk between arrays.
func TestQuarantineViewEnumerates(t *testing.T) {
	eng := NewEngine(Options{Seed: 1})
	a, b := ndarray.New(100), ndarray.New(100)
	allocA := eng.Protect("a", a, bitflip.Float64, registry.RecoverWith(predict.MethodAverage))
	allocB := eng.Protect("b", b, bitflip.Float64, registry.RecoverWith(predict.MethodAverage))
	va := &eng.liveState(a).quarantine

	for _, off := range []int{40, 7, 23, 99} {
		eng.MarkCorrupt(allocA, off)
	}
	eng.MarkCorrupt(allocB, 23)
	got, ok := va.AppendMasked([]int{-1}, 7, 40, 10)
	if want := "[-1 7 23 40]"; !ok || fmt.Sprint(got) != want {
		t.Errorf("AppendMasked(7..40) = %v, %v; want %s, true", got, ok, want)
	}
	if got, ok := eng.liveState(b).quarantine.AppendMasked(nil, 0, 99, 10); !ok || fmt.Sprint(got) != "[23]" {
		t.Errorf("array b enumerates %v, %v; want [23], true", got, ok)
	}
	if !va.Masked(99) || va.Masked(8) || va.Masked(-1) || va.Masked(100) || va.Masked(1<<40) {
		t.Error("Masked disagrees with the set")
	}

	// 0..99 is two words of one non-empty block: a limit of one declines
	// with dst untouched, a limit of two enumerates, whatever the size of
	// the set.
	if got, ok := va.AppendMasked([]int{-1}, 0, 99, 1); ok || fmt.Sprint(got) != "[-1]" {
		t.Errorf("two-word span under limit 1 = %v, %v; want [-1], false", got, ok)
	}
	if got, ok := va.AppendMasked(nil, 0, 99, 2); !ok || fmt.Sprint(got) != "[7 23 40 99]" {
		t.Errorf("two-word span under limit 2 = %v, %v; want [7 23 40 99], true", got, ok)
	}
	if got := fmt.Sprint(eng.Quarantined(allocA)); got != "[7 23 40 99]" {
		t.Errorf("Quarantined = %s, want [7 23 40 99]", got)
	}
	if eng.QuarantineCount() != 5 {
		t.Errorf("QuarantineCount = %d, want 5", eng.QuarantineCount())
	}

	if err := eng.Unprotect(allocA); err != nil {
		t.Fatal(err)
	}
	if eng.IsQuarantined(allocA, 7) || len(eng.Quarantined(allocA)) != 0 || eng.QuarantineCount() != 1 {
		t.Error("Unprotect left quarantine entries behind")
	}
}

// TestQuarantineBitmapMatchesModel drives one array's set with random adds
// and removes — weighted toward the word edges 0, 63 and 64, the edges of
// AppendMasked's four-word groups, and the last, partial word — and after
// every step compares each query with a map.
func TestQuarantineBitmapMatchesModel(t *testing.T) {
	const cells = 16*64 + 17
	eng := NewEngine(Options{Seed: 1})
	a := ndarray.New(cells)
	eng.Protect("model", a, bitflip.Float64, registry.RecoverWith(predict.MethodAverage))
	q := &eng.liveState(a).quarantine
	model := map[int]bool{}
	edges := []int{0, 1, 62, 63, 64, 65, 127, 128, 255, 256, 511, 512, cells - 2, cells - 1}
	rng := rand.New(rand.NewSource(31))
	pick := func() int {
		if rng.Intn(2) == 0 {
			return edges[rng.Intn(len(edges))]
		}
		return rng.Intn(cells)
	}
	inModel := func(lo, hi int) []int {
		var out []int
		for off := range model {
			if off >= lo && off <= hi {
				out = append(out, off)
			}
		}
		slices.Sort(out)
		return out
	}
	for step := 0; step < 4000; step++ {
		off := pick()
		if rng.Intn(3) == 0 {
			q.remove(off)
			delete(model, off)
		} else {
			q.add(off)
			model[off] = true
		}

		probe := pick()
		if q.Masked(probe) != model[probe] {
			t.Fatalf("step %d: Masked(%d) = %v, model %v", step, probe, q.Masked(probe), model[probe])
		}
		if n := q.count.Load(); n != int64(len(model)) {
			t.Fatalf("step %d: count %d, model %d", step, n, len(model))
		}
		lo, hi := pick()-rng.Intn(300), pick()+rng.Intn(300)
		got, ok := q.AppendMasked([]int{-7}, lo, hi, 64)
		want := append([]int{-7}, inModel(lo, hi)...)
		if !ok || !slices.Equal(got, want) {
			t.Fatalf("step %d: AppendMasked(%d..%d) = %v, %v; want %v", step, lo, hi, got, ok, want)
		}
		if got, want := q.offsets(), inModel(0, cells); !slices.Equal(got, want) {
			t.Fatalf("step %d: offsets %v, model %v", step, got, want)
		}
	}
}

// TestQuarantineBlockCountsUnderWriters is the model test of the indexed
// bitmap. Writers add and remove random cells — most in a few hot blocks,
// so adds, removes and count updates of one block and one word race — while
// readers query random spans. At quiescence every block count equals the set
// bits of its words, the total equals their sum, and AppendMasked over
// random spans and limits equals a per-cell Masked scan, declining (dst
// untouched) exactly when it would read more than limit block counts or
// more than limit words of non-empty blocks.
func TestQuarantineBlockCountsUnderWriters(t *testing.T) {
	const cells = 40*64*blockWords + 77 // 40 blocks and a partial one
	var q quarantine
	q.init(cells)
	hot := []int{0, 3*64*blockWords + 5, cells - 1} // a few cells to center the hot spots on
	pick := func(rng *rand.Rand) int {
		if rng.Intn(3) > 0 {
			return min(max(hot[rng.Intn(len(hot))]+rng.Intn(200)-100, 0), cells-1)
		}
		return rng.Intn(cells)
	}

	for round := 0; round < 6; round++ {
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 3000; i++ {
					if off := pick(rng); rng.Intn(2) == 0 {
						q.add(off)
					} else {
						q.remove(off)
					}
				}
			}(int64(100*round + g))
		}
		var readers sync.WaitGroup
		readers.Add(1)
		go func() { // queries racing the writers must stay in the span and ascending
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(round)))
			var dst []int
			for {
				select {
				case <-stop:
					return
				default:
				}
				lo := pick(rng)
				hi := lo + rng.Intn(5000)
				var ok bool
				if dst, ok = q.AppendMasked(dst[:0], lo, hi, 1+rng.Intn(64)); ok {
					for i, off := range dst {
						if off < lo || off > hi || (i > 0 && off <= dst[i-1]) {
							t.Errorf("AppendMasked(%d..%d) returned %v", lo, hi, dst)
							return
						}
					}
				}
			}
		}()
		wg.Wait()
		close(stop)
		readers.Wait()

		total := 0
		for b := range q.blocks {
			set := 0
			for w := b * blockWords; w < min((b+1)*blockWords, len(q.words)); w++ {
				set += bits.OnesCount64(q.words[w].Load())
			}
			if got := int(q.blocks[b].Load()); got != set {
				t.Fatalf("round %d: block %d counts %d, its words hold %d bits", round, b, got, set)
			}
			total += set
		}
		if n := q.count.Load(); n != int64(total) {
			t.Fatalf("round %d: count %d, bits set %d", round, n, total)
		}

		rng := rand.New(rand.NewSource(int64(1000 + round)))
		for i := 0; i < 2000; i++ {
			lo := pick(rng) - rng.Intn(64*blockWords)
			hi := lo + rng.Intn(8*64*blockWords)
			limit := 1 + rng.Intn(3*blockWords)
			var want []int
			counts, words := 0, 0
			clo, chi := max(lo, 0), min(hi, cells-1)
			for off := clo; off <= chi; off++ {
				if q.Masked(off) {
					want = append(want, off)
				}
			}
			if clo <= chi {
				first, last := clo>>6, chi>>6
				for b := first / blockWords; b <= last/blockWords; b++ {
					counts++
					if q.blocks[b].Load() != 0 {
						words += min((b+1)*blockWords-1, last) - max(b*blockWords, first) + 1
					}
				}
			}
			got, ok := q.AppendMasked([]int{-1}, lo, hi, limit)
			if wantOK := counts <= limit && words <= limit; ok != wantOK {
				t.Fatalf("round %d: AppendMasked(%d..%d, limit %d) ok = %v; it reads %d counts and %d words", round, lo, hi, limit, ok, counts, words)
			}
			if !ok {
				if !slices.Equal(got, []int{-1}) {
					t.Fatalf("round %d: a declined AppendMasked(%d..%d) left dst %v", round, lo, hi, got)
				}
				continue
			}
			if !slices.Equal(got[1:], want) || got[0] != -1 {
				t.Fatalf("round %d: AppendMasked(%d..%d, limit %d) = %v; per-cell scan %v", round, lo, hi, limit, got, want)
			}
		}
	}
}

// TestQuarantineConcurrentSharedWord flips neighbouring bits of one word
// that straddles a stripe boundary — MarkCorrupt and ClearCorrupt hold no
// stripe — while recoveries on both sides of the boundary read the word
// (LocalRegression enumerates it, verification asks per cell) and flip their
// own bits in it. Every bit ends where its last writer left it and the count
// is exact.
func TestQuarantineConcurrentSharedWord(t *testing.T) {
	eng := NewEngine(Options{Seed: 4})
	a := smoothArray(44, 10) // stripes of 11 rows: 110 cells, so word 1 (64..127) straddles 110
	alloc := eng.Protect("shared", a, bitflip.Float64, registry.RecoverWith(predict.MethodLocalLinReg))
	if st := eng.liveState(a); st.stripeOf(109) == st.stripeOf(110) || 109>>6 != 110>>6 {
		t.Fatal("fixture: cells 109 and 110 must share a word across a stripe boundary")
	}

	const flippers, flips = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < flippers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			offs := []int{102 + 2*g, 103 + 2*g} // 102..117, across the boundary at 110
			for i := 0; i < flips; i++ {
				for _, off := range offs {
					eng.MarkCorrupt(alloc, off)
					if i < flips-1 || g%2 == 1 {
						eng.ClearCorrupt(alloc, off)
					}
				}
			}
		}(g)
	}
	done := make(chan struct{})
	errs := make(chan error, 2)
	for _, off := range []int{a.Offset(9, 5), a.Offset(12, 5)} { // 95 and 125: both in word 1
		go func(off int) {
			var err error
			for n := 0; ; n++ {
				if n >= 20 { // at least 20 recoveries, and on until the flips end
					select {
					case <-done:
						errs <- err
						return
					default:
					}
				}
				if _, rerr := eng.RecoverElement(alloc, off); rerr != nil && err == nil {
					err = rerr
				}
			}
		}(off)
	}
	wg.Wait()
	close(done)
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatalf("recovery beside the flipped word: %v", err)
		}
	}

	var want []int
	for g := 0; g < flippers; g += 2 {
		want = append(want, 102+2*g, 103+2*g)
	}
	if got := eng.Quarantined(alloc); !slices.Equal(got, want) {
		t.Errorf("final bits %v, want %v", got, want)
	}
	if n := eng.QuarantineCount(); n != len(want) {
		t.Errorf("QuarantineCount = %d, want %d", n, len(want))
	}
}

// BenchmarkQuarantineMasked is the per-read mask query every small-stencil
// read, tuner probe and verification cell pays, through the Env as the
// predictors ask it: one goroutine, and one per core on one array. Span is
// the one query a LocalRegression prediction makes instead: the linear span
// of a radius-3 box in a 20 x 50 x 50 array (the bench's lib_any field),
// with only the recovery target at its centre quarantined.
func BenchmarkQuarantineMasked(b *testing.B) {
	b.Run("span", func(b *testing.B) {
		var q quarantine
		q.init(20 * 50 * 50)
		centre := 10*2500 + 25*50 + 25
		q.add(centre)
		lo, hi := centre-3*2500-3*50-3, centre+3*2500+3*50+3
		dst := make([]int, 0, 8)
		for i := 0; i < b.N; i++ {
			dst, _ = q.AppendMasked(dst[:0], lo, hi, 7*7*7)
		}
		sinkInt = len(dst)
	})

	eng := NewEngine(Options{Seed: 7})
	a := smoothArray(256, 64)
	alloc := eng.Protect("grid", a, bitflip.Float32, registry.RecoverWith(predict.MethodLorenzo1))
	for off := 0; off < a.Len(); off += 97 {
		eng.MarkCorrupt(alloc, off)
	}
	st := eng.liveState(a)
	const mask = 1<<14 - 1 // a.Len() is 2^14
	b.Run("serial", func(b *testing.B) {
		env := eng.envFor(a, st, 1)
		n := 0
		for i := 0; i < b.N; i++ {
			if env.Masked(i & mask) {
				n++
			}
		}
		sinkInt = n
	})
	b.Run("parallel", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			env := eng.envFor(a, st, 1)
			n, i := 0, 0
			for pb.Next() {
				if env.Masked(i & mask) {
					n++
				}
				i += 31
			}
			sinkInt = n
		})
	})
}

var sinkInt int

// TestMaskContractMidRecoveryReport is the ladder-level statement of the mask
// contract: a neighbour that goes bad (NaN) and is reported through
// MarkCorrupt from the StagePrimary hook — after the recovery started, before
// the tune rung's predictions do — is read by none of them, so the tune-rung
// result equals, bit for bit, the run in which that neighbour was quarantined
// up front. Run with the default candidates and with LocalRegression alone
// (the method that asks the quarantine set once per prediction).
func TestMaskContractMidRecoveryReport(t *testing.T) {
	for _, methods := range [][]predict.Method{nil, {predict.MethodLocalLinReg}} {
		run := func(midRecovery bool) Outcome {
			t.Helper()
			a := ndarray.New(14, 14, 14)
			a.FillFunc(func(idx []int) float64 {
				return 30 + 4*math.Sin(float64(idx[0])/3) + 2*math.Cos(float64(idx[1])/4) + 0.1*float64(idx[2]*idx[2])
			})
			eng := NewEngine(Options{Seed: 3, Tune: autotune.Config{Methods: methods}})
			// Zero always violates the registered range: primary fails, the
			// tune rung decides.
			alloc := eng.Protect("cube", a, bitflip.Float64,
				registry.RecoverWith(predict.MethodZero).WithRange(20, 60))
			target, neighbour := a.Offset(7, 7, 7), a.Offset(7, 8, 6)
			report := func() {
				a.SetOffset(neighbour, math.NaN())
				eng.MarkCorrupt(alloc, neighbour)
			}
			if midRecovery {
				eng.opts.StageHook = func(ev StageEvent) {
					if ev.Stage == StagePrimary {
						report()
					}
				}
			} else {
				report()
			}
			a.SetOffset(target, math.NaN())
			out, err := eng.RecoverElement(alloc, target)
			if err != nil {
				t.Fatalf("midRecovery=%v: %v", midRecovery, err)
			}
			if out.Stage != StageTune {
				t.Fatalf("midRecovery=%v: repaired at stage %v, want tune", midRecovery, out.Stage)
			}
			if !eng.IsQuarantined(alloc, neighbour) {
				t.Fatalf("midRecovery=%v: reported neighbour left quarantine", midRecovery)
			}
			return out
		}
		upFront, mid := run(false), run(true)
		if mid.Method != upFront.Method || math.Float64bits(mid.New) != math.Float64bits(upFront.New) {
			t.Errorf("methods %v: reported mid-recovery -> %v %v, quarantined up front -> %v %v",
				methods, mid.Method, mid.New, upFront.Method, upFront.New)
		}
	}
}
