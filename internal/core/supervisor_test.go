package core

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/faultinject"
	"spatialdue/internal/fti"
	"spatialdue/internal/ndarray"
	"spatialdue/internal/predict"
	"spatialdue/internal/registry"
)

// TestChaosBurstWithSecondaryFault is the acceptance scenario of the
// hardened supervisor: a burst of neighboring corrupt elements, a policy
// whose fixed method (Zero) always fails the registered value range so
// every element must climb the escalation ladder, and a secondary fault
// injected mid-recovery through the StageHook. Everything must come back
// repaired with zero checkpoint-restarts, and the audit log and metrics
// must show the per-stage escalation counts.
func TestChaosBurstWithSecondaryFault(t *testing.T) {
	a := smoothArray(32, 32)
	chaos := faultinject.NewChaos(11, bitflip.Float32, a, 1)

	eng := NewEngine(Options{Seed: 10})
	alloc := eng.Protect("grid", a, bitflip.Float32,
		registry.RecoverWith(predict.MethodZero).WithRange(20, 40))

	// k = 3 neighboring corrupt elements.
	offsets := []int{a.Offset(16, 10), a.Offset(16, 11), a.Offset(16, 12)}

	var secondary []int
	eng.opts.StageHook = func(ev StageEvent) {
		if tr, ok := chaos.Trigger(append([]int{ev.Offset}, offsets...)...); ok {
			secondary = append(secondary, tr.Offset)
			eng.MarkCorrupt(alloc, tr.Offset)
		}
	}

	orig := map[int]float64{}
	for _, off := range offsets {
		orig[off] = a.AtOffset(off)
		a.SetOffset(off, math.NaN())
	}

	out, err := eng.RecoverBurst(alloc, offsets)
	if err != nil {
		t.Fatalf("burst recovery failed: %v", err)
	}
	if out.Escalated != len(offsets) {
		t.Errorf("Escalated = %d, want %d (Zero violates the range for every cell)", out.Escalated, len(offsets))
	}
	for _, off := range offsets {
		got := a.AtOffset(off)
		if bitflip.RelErr(orig[off], got) > 0.05 {
			t.Errorf("burst element %d recovered to %v, true %v", off, got, orig[off])
		}
	}

	// The chaos hook must have fired exactly its budget mid-recovery.
	if len(secondary) != 1 {
		t.Fatalf("secondary faults fired = %d, want 1", len(secondary))
	}
	// The secondary fault's cell is quarantined until its own recovery.
	if got := eng.Quarantined(alloc); len(got) != 1 || got[0] != secondary[0] {
		t.Errorf("quarantine = %v, want [%d]", got, secondary[0])
	}
	if _, err := eng.RecoverElement(alloc, secondary[0]); err != nil {
		t.Fatalf("secondary-fault recovery failed: %v", err)
	}
	if v := a.AtOffset(secondary[0]); v < 20 || v > 40 {
		t.Errorf("secondary fault recovered to out-of-range %v", v)
	}

	// Zero checkpoint-restarts, nothing left quarantined.
	if st := eng.Stats(); st.Fallbacks != 0 {
		t.Errorf("Fallbacks = %d, want 0", st.Fallbacks)
	}
	if n := eng.QuarantineCount(); n != 0 {
		t.Errorf("QuarantineCount = %d, want 0", n)
	}

	// Ladder activity is observable: counters and metrics per stage.
	esc := eng.Escalations()
	if esc[StagePrimary] == 0 || esc[StageTune] == 0 {
		t.Errorf("escalation counters = %v, want primary and tune entries", esc)
	}
	var b bytes.Buffer
	if err := eng.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`spatialdue_escalations_total{stage="primary"}`,
		`spatialdue_escalations_total{stage="tune"}`,
		`spatialdue_quarantined 0`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, b.String())
		}
	}
	// The audit trail records which stage repaired each escalated element.
	staged := 0
	for _, entry := range eng.Audit() {
		if entry.OK && entry.Stage != StagePrimary {
			staged++
		}
	}
	if staged == 0 {
		t.Error("no audit entry records an escalated stage")
	}
}

// TestEscalationRestoreStage drives the ladder all the way to the
// checkpoint rung: both neighbors of the corrupted element are quarantined,
// so no predictor and no tuner probe can run, and the value must come back
// from the attached checkpoint world — from the local blob, or from the
// partner copy when the local blob no longer passes its CRC.
func TestEscalationRestoreStage(t *testing.T) {
	for _, tc := range []struct {
		name      string
		level     fti.Level
		corruptL1 bool
	}{
		{"L1 checkpoint", fti.L1, false},
		{"L2 checkpoint with the L1 file corrupted", fti.L2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := ndarray.New(3)
			a.SetOffset(0, 10)
			a.SetOffset(1, 20)
			a.SetOffset(2, 30)

			dir := t.TempDir()
			w, err := fti.NewWorld(dir, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Rank(0).Protect(0, "line", a, bitflip.Float64, fti.RecoveryPolicy{}); err != nil {
				t.Fatal(err)
			}
			if err := w.Checkpoint(1, tc.level); err != nil {
				t.Fatal(err)
			}
			if tc.corruptL1 {
				path := filepath.Join(dir, "rank000", "ckpt000001.fti")
				blob, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				blob[len(blob)/2] ^= 0xff
				if err := os.WriteFile(path, blob, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			eng := NewEngine(Options{Seed: 1})
			eng.AttachCheckpoints(w, 0)
			alloc := eng.Protect("line", a, bitflip.Float64, registry.RecoverWith(predict.MethodAverage))

			// Double fault: both neighbors corrupt, then the middle element dies.
			eng.MarkCorrupt(alloc, 0)
			eng.MarkCorrupt(alloc, 2)
			a.SetOffset(1, math.NaN())

			out, err := eng.RecoverElement(alloc, 1)
			if err != nil {
				t.Fatalf("restore-stage recovery failed: %v", err)
			}
			if out.Stage != StageRestore {
				t.Errorf("Stage = %v, want restore", out.Stage)
			}
			if out.New != 20 || a.AtOffset(1) != 20 {
				t.Errorf("restored value = %v, want 20 (checkpointed)", out.New)
			}
			if esc := eng.Escalations(); esc[StageRestore] != 1 {
				t.Errorf("restore stage entries = %d, want 1", esc[StageRestore])
			}
		})
	}
}

// TestEscalationExhausted is the deliberately unrecoverable case: no usable
// neighbors, no checkpoint. The ladder must run out and report
// ErrCheckpointRestartRequired — without panicking, with the corrupted
// value left in place, and with the element still quarantined.
func TestEscalationExhausted(t *testing.T) {
	a := ndarray.New(3)
	a.SetOffset(0, 10)
	a.SetOffset(1, 20)
	a.SetOffset(2, 30)

	eng := NewEngine(Options{Seed: 1})
	alloc := eng.Protect("line", a, bitflip.Float64, registry.RecoverWith(predict.MethodAverage))
	eng.MarkCorrupt(alloc, 0)
	eng.MarkCorrupt(alloc, 2)
	a.SetOffset(1, 999)

	_, err := eng.RecoverElement(alloc, 1)
	if !errors.Is(err, ErrCheckpointRestartRequired) {
		t.Fatalf("error = %v, want ErrCheckpointRestartRequired", err)
	}
	if a.AtOffset(1) != 999 {
		t.Errorf("exhausted ladder altered the element: %v", a.AtOffset(1))
	}
	if got := eng.Quarantined(alloc); len(got) != 3 {
		t.Errorf("quarantine = %v, want all three offsets", got)
	}
	if esc := eng.Escalations(); esc[StageExhausted] != 1 {
		t.Errorf("exhausted stage entries = %d, want 1", esc[StageExhausted])
	}
	// The failure cause is recorded in the audit trail.
	log := eng.Audit()
	last := log[len(log)-1]
	if last.OK || last.Err == "" {
		t.Errorf("fallback audit entry missing error cause: %+v", last)
	}
	var b bytes.Buffer
	if err := eng.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `spatialdue_escalations_total{stage="exhausted"} 1`) {
		t.Errorf("metrics missing exhausted count:\n%s", b.String())
	}
}

// TestPredictorPanicIsolated registers a policy with an out-of-range method
// value: predict.New panics on it, and the supervisor must treat the panic
// as a failed attempt and escalate instead of crashing.
func TestPredictorPanicIsolated(t *testing.T) {
	eng := NewEngine(Options{Seed: 6})
	a := smoothArray(16, 16)
	alloc := eng.Protect("grid", a, bitflip.Float32, registry.RecoverWith(predict.Method(4242)))

	off := a.Offset(8, 8)
	orig := a.AtOffset(off)
	a.SetOffset(off, math.NaN())

	out, err := eng.RecoverElement(alloc, off) // must not panic
	if err != nil {
		t.Fatalf("recovery after predictor panic failed: %v", err)
	}
	if out.Stage == StagePrimary {
		t.Errorf("Stage = %v, want an escalated stage", out.Stage)
	}
	if bitflip.RelErr(orig, out.New) > 0.05 {
		t.Errorf("escalated recovery %v far from %v", out.New, orig)
	}
}

// TestQuarantineMaskingKeepsGarbageOutOfStencils verifies the correctness
// fix quarantine exists for: a neighbor holding plausible-looking garbage
// (finite, but wrong by 30 orders of magnitude) is reported corrupt, and
// the subsequent recovery of the cell next to it must not read it.
func TestQuarantineMaskingKeepsGarbageOutOfStencils(t *testing.T) {
	eng := NewEngine(Options{Seed: 2})
	a := smoothArray(16, 16)
	alloc := eng.Protect("grid", a, bitflip.Float32, registry.RecoverWith(predict.MethodAverage))

	bad := a.Offset(8, 9) // face neighbor of the cell under recovery
	a.SetOffset(bad, 1e30)
	eng.MarkCorrupt(alloc, bad)

	off := a.Offset(8, 8)
	orig := a.AtOffset(off)
	a.SetOffset(off, math.NaN())

	out, err := eng.RecoverElement(alloc, off)
	if err != nil {
		t.Fatal(err)
	}
	if bitflip.RelErr(orig, out.New) > 0.05 {
		t.Errorf("recovery read quarantined garbage: got %v, true %v", out.New, orig)
	}
	// The garbage neighbor is still quarantined (not yet repaired).
	if !eng.IsQuarantined(alloc, bad) {
		t.Error("reported-corrupt neighbor left quarantine without being repaired")
	}
}

// TestValueRangeEscalates: a fixed method whose output violates the
// registered plausibility range must escalate rather than write the value.
func TestValueRangeEscalates(t *testing.T) {
	eng := NewEngine(Options{Seed: 3})
	a := smoothArray(16, 16)
	alloc := eng.Protect("grid", a, bitflip.Float32,
		registry.RecoverWith(predict.MethodZero).WithRange(20, 40))

	off := a.Offset(8, 8)
	orig := a.AtOffset(off)
	a.SetOffset(off, math.NaN())

	out, err := eng.RecoverElement(alloc, off)
	if err != nil {
		t.Fatal(err)
	}
	if out.Method == predict.MethodZero || out.Stage == StagePrimary {
		t.Errorf("out-of-range Zero reconstruction was accepted: %+v", out)
	}
	if bitflip.RelErr(orig, out.New) > 0.05 {
		t.Errorf("escalated recovery %v far from %v", out.New, orig)
	}
}

// TestStageStrings pins the metric label names.
func TestStageStrings(t *testing.T) {
	want := map[Stage]string{
		StagePrimary:   "primary",
		StageTune:      "tune",
		StageAlternate: "alternate",
		StageRestore:   "restore",
		StageExhausted: "exhausted",
	}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("Stage(%d).String() = %q, want %q", int(s), s.String(), name)
		}
	}
	if Stage(99).String() != "Stage(99)" {
		t.Errorf("unknown stage string = %q", Stage(99).String())
	}
}
