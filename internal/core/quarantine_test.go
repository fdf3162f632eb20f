package core

import (
	"fmt"
	"math"
	"testing"

	"spatialdue/internal/autotune"
	"spatialdue/internal/bitflip"
	"spatialdue/internal/ndarray"
	"spatialdue/internal/predict"
	"spatialdue/internal/registry"
)

// TestQuarantineViewEnumerates pins the per-array view the engine hands to
// every Env: ascending range enumeration under one query, a refusal once the
// set outgrows the caller's limit (the map never shrinks, so the refusal
// holds until the array's set empties), and no cross-talk between arrays.
func TestQuarantineViewEnumerates(t *testing.T) {
	var q quarantineSet
	a, b := ndarray.New(100), ndarray.New(100)
	va := q.view(a)
	if va != q.view(a) {
		t.Fatal("view(a) is not allocated once per array")
	}

	q.addAll(a, []int{40, 7, 23, 99})
	q.addAll(b, []int{23})
	got, ok := va.AppendMasked([]int{-1}, 7, 40, 10)
	if want := "[-1 7 23 40]"; !ok || fmt.Sprint(got) != want {
		t.Errorf("AppendMasked(7..40) = %v, %v; want %s, true", got, ok, want)
	}
	if got, ok := q.view(b).AppendMasked(nil, 0, 99, 10); !ok || fmt.Sprint(got) != "[23]" {
		t.Errorf("array b enumerates %v, %v; want [23], true", got, ok)
	}
	if !va.Masked(99) || va.Masked(8) {
		t.Error("Masked disagrees with the set")
	}

	// Four offsets against a limit of three: decline, dst untouched.
	if got, ok := va.AppendMasked([]int{-1}, 0, 99, 3); ok || fmt.Sprint(got) != "[-1]" {
		t.Errorf("over-limit AppendMasked = %v, %v; want [-1], false", got, ok)
	}
	// Still declined at one remaining offset: the map is as large as ever.
	for _, off := range []int{40, 7, 23} {
		q.remove(a, off)
	}
	if _, ok := va.AppendMasked(nil, 0, 99, 3); ok {
		t.Error("enumeration resumed while the oversized map is still in use")
	}
	// Emptied, the set starts over.
	q.remove(a, 99)
	q.addAll(a, []int{5})
	if got, ok := va.AppendMasked(nil, 0, 99, 3); !ok || fmt.Sprint(got) != "[5]" {
		t.Errorf("after emptying: %v, %v; want [5], true", got, ok)
	}
	if q.size() != 2 {
		t.Errorf("size = %d, want 2", q.size())
	}

	q.removeArray(a)
	if q.contains(a, 5) || q.size() != 1 {
		t.Error("removeArray left entries behind")
	}
}

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
