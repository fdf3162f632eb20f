package service

import (
	"math"
	"path/filepath"
	"testing"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/core"
	"spatialdue/internal/faultinject"
	"spatialdue/internal/mca"
	"spatialdue/internal/ndarray"
	"spatialdue/internal/predict"
	"spatialdue/internal/registry"
	"spatialdue/internal/trace"
)

// newCrashEnv builds a fresh engine over arr registered as "grid" — the
// "process restart" half of the crash tests re-registers the same array
// under the same name, exactly as a restarted application would re-Protect
// its allocations.
func newCrashEnv(arr *ndarray.Array) (*core.Engine, *registry.Allocation) {
	eng := core.NewEngine(core.Options{Seed: 21})
	alloc := eng.Protect("grid", arr, bitflip.Float32, registry.RecoverWith(predict.MethodLorenzo1))
	return eng, alloc
}

// TestCrashReplayEveryPoint injects a simulated process death at every
// journal/service crash point and verifies the WAL contract: a quarantined
// offset is never lost — on restart, every unfinished intent is replayed
// (re-quarantined before the pool starts, recovered after).
func TestCrashReplayEveryPoint(t *testing.T) {
	cases := []struct {
		point string
		// submitCrashes: the crash fires synchronously on the submitting
		// goroutine (intake-side point) rather than in a worker.
		submitCrashes bool
		// wantReplay: the intent is dangling after the crash.
		wantReplay bool
		// runHere: the DUE is a marked MCA delivery that runs on the
		// submitting goroutine, so the crash has fired when it returns.
		runHere bool
	}{
		{point: "journal/intent-written", submitCrashes: true, wantReplay: true},
		{point: "service/recovery-done", wantReplay: true},
		{point: "service/recovery-done", wantReplay: true, runHere: true},
		{point: "journal/outcome-unwritten", wantReplay: true},
		{point: "journal/outcome-written", wantReplay: false},
	}
	for _, tc := range cases {
		name := tc.point
		if tc.runHere {
			name += "/run-here"
		}
		t.Run(name, func(t *testing.T) {
			defer faultinject.DisarmCrashes()
			jpath := filepath.Join(t.TempDir(), "recovery.jsonl")
			arr := smoothArray(16, 16)
			off := arr.Offset(8, 8)
			orig := arr.AtOffset(off)

			// --- first life: submit one DUE, die at the armed crash point.
			eng1, alloc1 := newCrashEnv(arr)
			svc1, err := New(eng1, Config{
				Workers: 1, JournalPath: jpath, JournalSync: true, Seed: 22,
			})
			if err != nil {
				t.Fatal(err)
			}
			svc1.Start()
			arr.SetOffset(off, math.NaN())
			faultinject.ArmCrash(tc.point)

			switch {
			case tc.runHere:
				m := mca.New(1)
				svc1.AttachMCA(m)
				svc1.StageTrace(alloc1.AddrOf(off), trace.New(), true)
				if err := m.RaiseMemoryDUE(alloc1.AddrOf(off), 0); err != nil {
					t.Fatal(err)
				}
				if point, crashed := svc1.Crashed(); !crashed || point != tc.point {
					t.Fatalf("after the run-here delivery: crashed=%v at %q, want %q", crashed, point, tc.point)
				}
			case tc.submitCrashes:
				func() {
					defer func() {
						r := recover()
						if r == nil {
							t.Fatal("armed crash point did not fire during submit")
						}
						if _, ok := faultinject.IsCrash(r); !ok {
							panic(r)
						}
					}()
					_ = svc1.Submit(alloc1, off)
				}()
			default:
				if err := svc1.Submit(alloc1, off); err != nil {
					t.Fatal(err)
				}
				waitFor(t, "worker to hit the crash point", func() bool {
					_, crashed := svc1.Crashed()
					return crashed
				})
				if point, _ := svc1.Crashed(); point != tc.point {
					t.Fatalf("crashed at %q, want %q", point, tc.point)
				}
			}
			// The dead service is abandoned, like the process it models: no
			// Drain, no journal Close. The file on disk is all that survives.

			// --- second life: fresh engine, same array re-registered, same
			// journal path.
			eng2, alloc2 := newCrashEnv(arr)
			svc2, err := New(eng2, Config{
				Workers: 1, JournalPath: jpath, JournalSync: true, Seed: 23,
			})
			if err != nil {
				t.Fatal(err)
			}
			replayed := svc2.Stats().Replayed
			if tc.wantReplay {
				if replayed != 1 {
					t.Fatalf("Replayed = %d, want 1", replayed)
				}
				// Before the pool even starts, the replayed offset must be
				// back in quarantine — the crash may have left the cell
				// corrupt, and nothing may trust it.
				if q := eng2.Quarantined(alloc2); len(q) != 1 || q[0] != off {
					t.Fatalf("quarantine after replay = %v, want [%d]", q, off)
				}
			} else if replayed != 0 {
				t.Fatalf("Replayed = %d, want 0 (outcome was durable)", replayed)
			}

			svc2.Start()
			if tc.wantReplay {
				waitFor(t, "replayed recovery to complete", func() bool {
					return svc2.Stats().Recovered == 1
				})
			}
			if err := svc2.Close(); err != nil {
				t.Fatal(err)
			}
			if got := arr.AtOffset(off); bitflip.RelErr(orig, got) > 0.05 {
				t.Errorf("element after replay = %v, true %v", got, orig)
			}
			if n := eng2.QuarantineCount(); n != 0 {
				t.Errorf("quarantine not empty after replay: %d", n)
			}

			// --- third life: the journal converged; nothing replays.
			eng3, _ := newCrashEnv(arr)
			svc3, err := New(eng3, Config{JournalPath: jpath, JournalSync: true, Seed: 24})
			if err != nil {
				t.Fatal(err)
			}
			if got := svc3.Stats().Replayed; got != 0 {
				t.Errorf("third life Replayed = %d, want 0", got)
			}
			if err := svc3.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCrashedServiceRefusesWork: after a simulated crash the service
// behaves like a dead process — submissions fail, queued work is dropped,
// and Drain does not touch the journal.
func TestCrashedServiceRefusesWork(t *testing.T) {
	defer faultinject.DisarmCrashes()
	jpath := filepath.Join(t.TempDir(), "recovery.jsonl")
	arr := smoothArray(16, 16)
	eng, alloc := newCrashEnv(arr)
	svc, err := New(eng, Config{Workers: 1, JournalPath: jpath, JournalSync: true, Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()

	off := arr.Offset(4, 4)
	arr.SetOffset(off, math.NaN())
	faultinject.ArmCrash("service/recovery-done")
	if err := svc.Submit(alloc, off); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "crash", func() bool { _, c := svc.Crashed(); return c })

	if err := svc.Submit(alloc, arr.Offset(5, 5)); err == nil {
		t.Error("submit to crashed service succeeded")
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	// The intent from the crashed recovery is dangling: a restart replays it.
	eng2, _ := newCrashEnv(arr)
	svc2, err := New(eng2, Config{JournalPath: jpath, JournalSync: true, Seed: 26})
	if err != nil {
		t.Fatal(err)
	}
	if got := svc2.Stats().Replayed; got != 1 {
		t.Errorf("Replayed = %d, want 1", got)
	}
	if err := svc2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplayOrphanedAllocation: an intent whose allocation is not
// re-registered after restart cannot be replayed; it must be closed out in
// the journal (not looped forever) and not crash the service.
func TestReplayOrphanedAllocation(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "recovery.jsonl")
	arr := smoothArray(16, 16)
	eng, alloc := newCrashEnv(arr)
	svc, err := New(eng, Config{Workers: 1, JournalPath: jpath, JournalSync: true, Seed: 27})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	off := arr.Offset(4, 4)
	arr.SetOffset(off, math.NaN())
	defer faultinject.DisarmCrashes()
	faultinject.ArmCrash("journal/outcome-unwritten")
	if err := svc.Submit(alloc, off); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "crash", func() bool { _, c := svc.Crashed(); return c })

	// Restart WITHOUT re-registering "grid": the intent is orphaned.
	eng2 := core.NewEngine(core.Options{Seed: 28})
	svc2, err := New(eng2, Config{JournalPath: jpath, JournalSync: true, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	if got := svc2.Stats().Replayed; got != 0 {
		t.Errorf("Replayed = %d, want 0 for orphaned intent", got)
	}
	if err := svc2.Close(); err != nil {
		t.Fatal(err)
	}

	// The orphan was closed out with a failure outcome: a third open finds a
	// converged journal.
	eng3, _ := newCrashEnv(arr)
	svc3, err := New(eng3, Config{JournalPath: jpath, JournalSync: true, Seed: 30})
	if err != nil {
		t.Fatal(err)
	}
	if got := svc3.Stats().Replayed; got != 0 {
		t.Errorf("third open Replayed = %d, want 0 (orphan closed out)", got)
	}
	if err := svc3.Close(); err != nil {
		t.Fatal(err)
	}
}
