package core

import (
	"errors"
	"math"
	"testing"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/detect"
	"spatialdue/internal/fti"
	"spatialdue/internal/mca"
	"spatialdue/internal/ndarray"
	"spatialdue/internal/predict"
	"spatialdue/internal/registry"
)

func smoothArray(ny, nx int) *ndarray.Array {
	a := ndarray.New(ny, nx)
	a.FillFunc(func(idx []int) float64 {
		return 30 + 5*math.Sin(float64(idx[0])/5) + 3*math.Cos(float64(idx[1])/4)
	})
	return a
}

func TestRecoverAddressFixedMethod(t *testing.T) {
	eng := NewEngine(Options{Seed: 1})
	a := smoothArray(20, 20)
	alloc := eng.Protect("grid", a, bitflip.Float32, registry.RecoverWith(predict.MethodLorenzo1))

	off := a.Offset(10, 10)
	orig := a.AtOffset(off)
	a.SetOffset(off, math.Inf(1))

	out, err := eng.RecoverAddress(alloc.AddrOf(off))
	if err != nil {
		t.Fatal(err)
	}
	if out.Method != predict.MethodLorenzo1 || out.Tuned {
		t.Errorf("outcome = %+v, want fixed Lorenzo", out)
	}
	if out.Offset != off || out.Allocation != alloc {
		t.Errorf("outcome location wrong: %+v", out)
	}
	if !math.IsInf(out.Old, 1) {
		t.Errorf("Old = %v, want the corrupted value", out.Old)
	}
	got := a.AtOffset(off)
	if got != out.New || bitflip.RelErr(orig, got) > 0.05 {
		t.Errorf("recovered %v, true %v", got, orig)
	}
}

func TestRecoverAddressAutotunes(t *testing.T) {
	eng := NewEngine(Options{Seed: 2})
	a := smoothArray(20, 20)
	alloc := eng.Protect("grid", a, bitflip.Float32, registry.RecoverAny())
	off := a.Offset(5, 7)
	orig := a.AtOffset(off)
	a.SetOffset(off, -1e30)

	out, err := eng.RecoverAddress(alloc.AddrOf(off))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Tuned {
		t.Error("RECOVER_ANY did not tune")
	}
	if bitflip.RelErr(orig, out.New) > 0.05 {
		t.Errorf("tuned recovery %v far from %v", out.New, orig)
	}
	st := eng.Stats()
	if st.Recovered != 1 || st.Tuned != 1 || st.Fallbacks != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRecoverAddressUnregistered(t *testing.T) {
	eng := NewEngine(Options{})
	_, err := eng.RecoverAddress(0xdead)
	if !errors.Is(err, ErrCheckpointRestartRequired) {
		t.Errorf("error = %v, want ErrCheckpointRestartRequired", err)
	}
	if eng.Stats().Fallbacks != 1 {
		t.Error("fallback not counted")
	}
}

func TestRecoverElementBadOffset(t *testing.T) {
	eng := NewEngine(Options{})
	a := smoothArray(4, 4)
	alloc := eng.Protect("g", a, bitflip.Float32, registry.RecoverAny())
	if _, err := eng.RecoverElement(alloc, -1); !errors.Is(err, ErrCheckpointRestartRequired) {
		t.Errorf("negative offset error = %v", err)
	}
	if _, err := eng.RecoverElement(alloc, a.Len()); !errors.Is(err, ErrCheckpointRestartRequired) {
		t.Errorf("overflow offset error = %v", err)
	}
}

func TestRecoverFailureRestoresOldValue(t *testing.T) {
	// A 1x1 array supports no method; the corrupted value must be left in
	// place (the caller will checkpoint-restart, which needs consistency).
	eng := NewEngine(Options{})
	a := ndarray.New(1, 1)
	a.Fill(5)
	alloc := eng.Protect("tiny", a, bitflip.Float32, registry.RecoverWith(predict.MethodAverage))
	a.SetOffset(0, 1e9)
	if _, err := eng.RecoverElement(alloc, 0); !errors.Is(err, ErrCheckpointRestartRequired) {
		t.Fatalf("error = %v", err)
	}
	if a.AtOffset(0) != 1e9 {
		t.Errorf("failed recovery altered the element: %v", a.AtOffset(0))
	}
}

func TestAttachMCAEndToEnd(t *testing.T) {
	eng := NewEngine(Options{Seed: 3})
	a := smoothArray(16, 16)
	alloc := eng.Protect("grid", a, bitflip.Float32, registry.RecoverAny())
	m := mca.New(2)
	eng.AttachMCA(m)

	off := a.Offset(8, 8)
	orig := a.AtOffset(off)
	a.SetOffset(off, bitflip.Flip(orig, bitflip.Float32, 31))
	m.Plant(alloc.AddrOf(off), 31)
	faulted, err := m.Touch(alloc.AddrOf(off), 4)
	if !faulted || err != nil {
		t.Fatalf("Touch = %v, %v", faulted, err)
	}
	if bitflip.RelErr(orig, a.AtOffset(off)) > 0.05 {
		t.Errorf("MCA-driven recovery left %v, true %v", a.AtOffset(off), orig)
	}
}

func TestAttachMCAUnregisteredEscalates(t *testing.T) {
	eng := NewEngine(Options{})
	m := mca.New(1)
	eng.AttachMCA(m)
	if err := m.RaiseMemoryDUE(0x42, 0); err == nil {
		t.Error("unregistered DUE should escalate")
	}
}

func TestFTIRepairer(t *testing.T) {
	eng := NewEngine(Options{Seed: 4})
	a := smoothArray(16, 16)
	ds := &fti.Dataset{ID: 0, Name: "g", Array: a, DType: bitflip.Float32,
		Policy: fti.RecoveryPolicy{Method: predict.MethodAverage}}
	off := a.Offset(4, 4)
	orig := a.AtOffset(off)
	a.SetOffset(off, math.NaN())
	v, err := eng.FTIRepairer()(ds, off)
	if err != nil {
		t.Fatal(err)
	}
	if bitflip.RelErr(orig, v) > 0.05 {
		t.Errorf("FTI repair %v far from %v", v, orig)
	}
}

func TestFTIRepairerWithSDCCheck(t *testing.T) {
	eng := NewEngine(Options{Seed: 5})
	w, err := fti.NewWorld(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	a := smoothArray(16, 16)
	if err := w.Rank(0).Protect(0, "g", a, bitflip.Float32,
		fti.RecoveryPolicy{Any: true}); err != nil {
		t.Fatal(err)
	}
	off := a.Offset(8, 8)
	orig := a.AtOffset(off)
	a.SetOffset(off, 1e15)
	rep, err := w.SDCCheck(&detect.SpatialDetector{Theta: 10}, eng.FTIRepairer())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired != 1 || rep.RolledBack {
		t.Errorf("report = %+v", rep)
	}
	if bitflip.RelErr(orig, a.AtOffset(off)) > 0.05 {
		t.Errorf("value after SDCCheck = %v, true %v", a.AtOffset(off), orig)
	}
}

func TestTuneDefaults(t *testing.T) {
	eng := NewEngine(Options{})
	if eng.opts.Tune.K != 3 || eng.opts.Tune.Tolerance != 0.01 {
		t.Errorf("tune defaults = %+v", eng.opts.Tune)
	}
}

func TestLetGoRepair(t *testing.T) {
	a := smoothArray(4, 4)
	// Finite corruption: LetGo leaves it.
	a.SetOffset(0, 123456)
	if got := LetGoRepair(a, 0); got != 123456 || a.AtOffset(0) != 123456 {
		t.Error("LetGo altered a finite value")
	}
	// Non-finite: squashed to zero.
	a.SetOffset(1, math.NaN())
	if got := LetGoRepair(a, 1); got != 0 || a.AtOffset(1) != 0 {
		t.Error("LetGo did not squash NaN")
	}
	a.SetOffset(2, math.Inf(-1))
	if got := LetGoRepair(a, 2); got != 0 {
		t.Error("LetGo did not squash -Inf")
	}
}

func TestZeroRepair(t *testing.T) {
	a := smoothArray(4, 4)
	a.SetOffset(3, 99)
	if got := ZeroRepair(a, 3); got != 0 || a.AtOffset(3) != 0 {
		t.Error("ZeroRepair did not zero")
	}
}

func TestEngineSeedDeterminism(t *testing.T) {
	run := func() float64 {
		eng := NewEngine(Options{Seed: 9})
		a := smoothArray(16, 16)
		alloc := eng.Protect("g", a, bitflip.Float32, registry.RecoverWith(predict.MethodRandom))
		off := a.Offset(7, 7)
		a.SetOffset(off, math.NaN())
		out, err := eng.RecoverElement(alloc, off)
		if err != nil {
			t.Fatal(err)
		}
		return out.New
	}
	if run() != run() {
		t.Error("same-seed engines produced different Random recoveries")
	}
}

func TestTuneCacheSpeedsRepeatRecoveries(t *testing.T) {
	eng := NewEngine(Options{Seed: 7, TuneCacheBlock: 8})
	a := smoothArray(32, 32)
	alloc := eng.Protect("g", a, bitflip.Float32, registry.RecoverAny())

	// Two corruptions in the same lock stripe (cache regions are stripes):
	// the second must reuse the first's tuning decision.
	off1, off2 := a.Offset(10, 10), a.Offset(9, 12)
	orig1, orig2 := a.AtOffset(off1), a.AtOffset(off2)
	a.SetOffset(off1, math.NaN())
	out1, err := eng.RecoverElement(alloc, off1)
	if err != nil {
		t.Fatal(err)
	}
	a.SetOffset(off2, math.NaN())
	out2, err := eng.RecoverElement(alloc, off2)
	if err != nil {
		t.Fatal(err)
	}
	if out1.Method != out2.Method {
		t.Errorf("cached tuning changed method: %v vs %v", out1.Method, out2.Method)
	}
	hits, misses := eng.stateFor(a).cache.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("cache stats = %d/%d, want 1/1", hits, misses)
	}
	if bitflip.RelErr(orig1, out1.New) > 0.05 || bitflip.RelErr(orig2, out2.New) > 0.05 {
		t.Error("cached recovery inaccurate")
	}
}
