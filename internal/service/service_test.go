package service

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/core"
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

// waitFor polls cond until it holds or the test times out.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestSubmitCountsEveryAttempt: Stats.Submitted counts all submission
// attempts, so an out-of-range offset raises it by one through every entry
// point while Accepted stays put.
func TestSubmitCountsEveryAttempt(t *testing.T) {
	eng := core.NewEngine(core.Options{Seed: 1})
	a := smoothArray(8, 8)
	alloc := eng.Protect("grid", a, bitflip.Float32, registry.RecoverWith(predict.MethodAverage))
	svc, err := New(eng, Config{Workers: 1, QueueDepth: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for _, tc := range []struct {
		name   string
		submit func() error
	}{
		{"Submit", func() error { return svc.Submit(alloc, a.Len()) }},
		{"SubmitReplayed", func() error { return svc.SubmitReplayed(alloc, 0, -1) }},
		{"SubmitAddress", func() error { return svc.SubmitAddress(1) }},
	} {
		before := svc.Stats()
		if err := tc.submit(); !errors.Is(err, core.ErrCheckpointRestartRequired) {
			t.Fatalf("%s: err = %v, want ErrCheckpointRestartRequired", tc.name, err)
		}
		after := svc.Stats()
		if after.Submitted != before.Submitted+1 || after.Accepted != before.Accepted {
			t.Errorf("%s: Submitted %d -> %d, Accepted %d -> %d; want +1 and unchanged",
				tc.name, before.Submitted, after.Submitted, before.Accepted, after.Accepted)
		}
	}
}

func TestServiceRecoversSubmittedDUEs(t *testing.T) {
	eng := core.NewEngine(core.Options{Seed: 1})
	a := smoothArray(32, 32)
	alloc := eng.Protect("grid", a, bitflip.Float32, registry.RecoverWith(predict.MethodLorenzo1))

	var mu sync.Mutex
	var results []Result
	svc, err := New(eng, Config{
		Workers: 2, QueueDepth: 8, Seed: 7,
		OnOutcome: func(r Result) { mu.Lock(); results = append(results, r); mu.Unlock() },
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()

	offs := []int{a.Offset(5, 5), a.Offset(10, 20), a.Offset(25, 7)}
	orig := map[int]float64{}
	for _, off := range offs {
		orig[off] = a.AtOffset(off)
		a.SetOffset(off, math.NaN())
		if err := svc.Submit(alloc, off); err != nil {
			t.Fatalf("submit %d: %v", off, err)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	st := svc.Stats()
	if st.Accepted != 3 || st.Recovered != 3 || st.Failed != 0 {
		t.Errorf("stats = %+v, want 3 accepted/recovered", st)
	}
	if len(results) != 3 {
		t.Fatalf("OnOutcome fired %d times, want 3", len(results))
	}
	for _, off := range offs {
		got := a.AtOffset(off)
		if bitflip.RelErr(orig[off], got) > 0.05 {
			t.Errorf("element %d recovered to %v, true %v", off, got, orig[off])
		}
	}
	if n := eng.QuarantineCount(); n != 0 {
		t.Errorf("quarantine not empty after drain: %d", n)
	}
	if err := svc.Submit(alloc, offs[0]); !errors.Is(err, ErrStopped) {
		t.Errorf("submit after Close = %v, want ErrStopped", err)
	}
}

// TestOverloadRejectsNotBlocks is the overload acceptance scenario: with
// every worker wedged and the queue full, further MCA events must be
// rejected with ErrOverloaded (delivery stays non-blocking, the record
// stays latched in its bank) and be redelivered once capacity frees up.
func TestOverloadRejectsNotBlocks(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan string, 2)
	var startOnce sync.Once
	var startOnceB sync.Once

	eng := core.NewEngine(core.Options{Seed: 2, StageHook: func(ev core.StageEvent) {
		switch ev.Alloc {
		case "slowA":
			startOnce.Do(func() { started <- ev.Alloc })
			<-gate
		case "slowB":
			startOnceB.Do(func() { started <- ev.Alloc })
			<-gate
		}
	}})
	aA := smoothArray(16, 16)
	aB := smoothArray(16, 16)
	aC := smoothArray(16, 16)
	allocA := eng.Protect("slowA", aA, bitflip.Float32, registry.RecoverWith(predict.MethodAverage))
	allocB := eng.Protect("slowB", aB, bitflip.Float32, registry.RecoverWith(predict.MethodAverage))
	allocC := eng.Protect("grid", aC, bitflip.Float32, registry.RecoverWith(predict.MethodAverage))

	const depth = 2
	svc, err := New(eng, Config{Workers: 2, QueueDepth: depth, Deadline: -1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	machine := mca.New(2)
	svc.AttachMCA(machine)

	// Wedge both workers.
	aA.SetOffset(aA.Offset(8, 8), math.NaN())
	aB.SetOffset(aB.Offset(8, 8), math.NaN())
	if err := svc.Submit(allocA, aA.Offset(8, 8)); err != nil {
		t.Fatal(err)
	}
	if err := svc.Submit(allocB, aB.Offset(8, 8)); err != nil {
		t.Fatal(err)
	}
	<-started
	<-started

	// Fill the queue to its admission bound.
	for i := 0; i < depth; i++ {
		off := aC.Offset(4+i, 4)
		aC.SetOffset(off, math.NaN())
		if err := svc.Submit(allocC, off); err != nil {
			t.Fatalf("queued submit %d: %v", i, err)
		}
	}

	// Past the bound: direct submission is rejected, not blocked.
	if err := svc.Submit(allocC, aC.Offset(12, 12)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit past bound = %v, want ErrOverloaded", err)
	}

	// Past the bound via the MCA: the handler fails, the record stays
	// latched for later redelivery — not dropped, not blocking.
	off := aC.Offset(13, 3)
	aC.SetOffset(off, math.NaN())
	machine.Plant(allocC.AddrOf(off), 1)
	faulted, terr := machine.Touch(allocC.AddrOf(off), 4)
	if !faulted || !errors.Is(terr, ErrOverloaded) {
		t.Fatalf("overloaded MCA delivery: faulted=%v err=%v, want ErrOverloaded", faulted, terr)
	}
	if latched := machine.LatchedBanks(); len(latched) != 1 {
		t.Fatalf("latched banks = %v, want exactly one", latched)
	}

	// Free the pool: everything accepted or latched must eventually recover.
	close(gate)
	waitFor(t, "all recoveries to complete", func() bool {
		return svc.Stats().Recovered == 5
	})
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Rejected < 2 {
		t.Errorf("Rejected = %d, want >= 2", st.Rejected)
	}
	if st.Failed != 0 {
		t.Errorf("Failed = %d, want 0", st.Failed)
	}
	if latched := machine.LatchedBanks(); len(latched) != 0 {
		t.Errorf("banks still latched after redelivery: %v", latched)
	}
	if n := eng.QuarantineCount(); n != 0 {
		t.Errorf("quarantine not empty: %d", n)
	}
}

// TestDeadlineUnwedgesWorker: a stuck predictor (simulated by a sleeping
// stage hook) must not wedge the single worker — the recovery is abandoned
// at its deadline and the next task (on another allocation) completes.
func TestDeadlineUnwedgesWorker(t *testing.T) {
	const stall = 400 * time.Millisecond
	eng := core.NewEngine(core.Options{Seed: 4, StageHook: func(ev core.StageEvent) {
		if ev.Alloc == "stuck" {
			time.Sleep(stall)
		}
	}})
	aS := smoothArray(16, 16)
	aF := smoothArray(16, 16)
	allocS := eng.Protect("stuck", aS, bitflip.Float32, registry.RecoverWith(predict.MethodAverage))
	allocF := eng.Protect("fine", aF, bitflip.Float32, registry.RecoverWith(predict.MethodAverage))

	done := make(chan Result, 2)
	svc, err := New(eng, Config{
		Workers: 1, QueueDepth: 4, Deadline: 40 * time.Millisecond,
		MaxRetries: -1, BreakerThreshold: -1, Seed: 5,
		OnOutcome: func(r Result) { done <- r },
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()

	offS, offF := aS.Offset(8, 8), aF.Offset(8, 8)
	aS.SetOffset(offS, math.NaN())
	origF := aF.AtOffset(offF)
	aF.SetOffset(offF, math.NaN())
	if err := svc.Submit(allocS, offS); err != nil {
		t.Fatal(err)
	}
	if err := svc.Submit(allocF, offF); err != nil {
		t.Fatal(err)
	}

	r1 := <-done
	if r1.Alloc != "stuck" || !errors.Is(r1.Err, core.ErrRecoveryAbandoned) {
		t.Fatalf("first outcome = %q err=%v, want abandoned stuck recovery", r1.Alloc, r1.Err)
	}
	r2 := <-done
	if r2.Alloc != "fine" || r2.Err != nil {
		t.Fatalf("second outcome = %q err=%v, want clean recovery on the other allocation", r2.Alloc, r2.Err)
	}
	if bitflip.RelErr(origF, aF.AtOffset(offF)) > 0.05 {
		t.Errorf("fine element recovered to %v, true %v", aF.AtOffset(offF), origF)
	}

	// The abandoned element must still be quarantined, never trusted.
	if q := eng.Quarantined(allocS); len(q) != 1 || q[0] != offS {
		t.Errorf("abandoned element quarantine = %v, want [%d]", q, offS)
	}
	st := svc.Stats()
	if st.Abandoned != 1 {
		t.Errorf("Abandoned = %d, want 1", st.Abandoned)
	}
	// Let the background climb release the lock before tearing down.
	time.Sleep(stall)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRetryBackoffRecovers: a transient stall (first attempt times out,
// later attempts succeed) is absorbed by the retry ladder.
func TestRetryBackoffRecovers(t *testing.T) {
	var mu sync.Mutex
	stalls := 1
	eng := core.NewEngine(core.Options{Seed: 6, StageHook: func(ev core.StageEvent) {
		mu.Lock()
		s := stalls
		if s > 0 {
			stalls--
		}
		mu.Unlock()
		if s > 0 {
			time.Sleep(100 * time.Millisecond)
		}
	}})
	a := smoothArray(16, 16)
	alloc := eng.Protect("grid", a, bitflip.Float32, registry.RecoverWith(predict.MethodAverage))

	done := make(chan Result, 1)
	svc, err := New(eng, Config{
		Workers: 1, Deadline: 30 * time.Millisecond, MaxRetries: 5,
		BackoffBase: 20 * time.Millisecond, BackoffMax: 40 * time.Millisecond, Seed: 7,
		OnOutcome: func(r Result) { done <- r },
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()

	off := a.Offset(8, 8)
	orig := a.AtOffset(off)
	a.SetOffset(off, math.NaN())
	if err := svc.Submit(alloc, off); err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.Err != nil {
		t.Fatalf("outcome err = %v, want recovered after retry", r.Err)
	}
	if r.Attempts < 2 {
		t.Errorf("Attempts = %d, want >= 2 (first attempt stalls past the deadline)", r.Attempts)
	}
	if bitflip.RelErr(orig, a.AtOffset(off)) > 0.05 {
		t.Errorf("recovered to %v, true %v", a.AtOffset(off), orig)
	}
	if st := svc.Stats(); st.Retries < 1 {
		t.Errorf("Retries = %d, want >= 1", st.Retries)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBreakerTripsAndProbes is the degradation acceptance scenario: an
// allocation whose recoveries keep failing trips its breaker, subsequent
// DUEs are degraded straight to checkpoint-restart, and after the cooldown
// a successful probe restores service.
func TestBreakerTripsAndProbes(t *testing.T) {
	eng := core.NewEngine(core.Options{Seed: 8})
	a := smoothArray(16, 16)
	// Impossible plausibility range: every reconstruction fails, the ladder
	// exhausts, the recovery is a permanent failure.
	alloc := eng.Protect("flaky", a, bitflip.Float32,
		registry.RecoverWith(predict.MethodAverage).WithRange(1000, 2000))

	done := make(chan Result, 8)
	const cooldown = 60 * time.Millisecond
	svc, err := New(eng, Config{
		Workers: 1, BreakerThreshold: 2, BreakerCooldown: cooldown, Seed: 9,
		OnOutcome: func(r Result) { done <- r },
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()

	// Two consecutive failures trip the breaker.
	for i := 0; i < 2; i++ {
		off := a.Offset(4+i, 4)
		a.SetOffset(off, math.NaN())
		if err := svc.Submit(alloc, off); err != nil {
			t.Fatal(err)
		}
		r := <-done
		if !errors.Is(r.Err, core.ErrCheckpointRestartRequired) {
			t.Fatalf("failure %d: err = %v, want checkpoint-restart", i, r.Err)
		}
	}
	waitFor(t, "breaker to open", func() bool { return svc.BreakerState("flaky") == BreakerOpen })

	// Degraded: submissions go straight to checkpoint-restart.
	err = svc.Submit(alloc, a.Offset(10, 10))
	if !errors.Is(err, ErrCircuitOpen) || !errors.Is(err, core.ErrCheckpointRestartRequired) {
		t.Fatalf("degraded submit = %v, want ErrCircuitOpen wrapping checkpoint-restart", err)
	}
	if st := svc.Stats(); st.BreakerTrips != 1 || st.BreakerRejected != 1 {
		t.Errorf("stats = %+v, want 1 trip and 1 breaker rejection", st)
	}

	// Fix the allocation (drop the impossible range) and wait out the
	// cooldown: the next submission is the probe, and its success closes
	// the breaker.
	alloc.Policy.Range = nil
	time.Sleep(cooldown + 10*time.Millisecond)
	off := a.Offset(12, 5)
	orig := a.AtOffset(off)
	a.SetOffset(off, math.NaN())
	if err := svc.Submit(alloc, off); err != nil {
		t.Fatalf("probe submit: %v", err)
	}
	r := <-done
	if !r.Probe {
		t.Errorf("probe result not marked: %+v", r)
	}
	if r.Err != nil {
		t.Fatalf("probe failed: %v", r.Err)
	}
	if bitflip.RelErr(orig, a.AtOffset(off)) > 0.05 {
		t.Errorf("probe recovered to %v, true %v", a.AtOffset(off), orig)
	}
	waitFor(t, "breaker to close", func() bool { return svc.BreakerState("flaky") == BreakerClosed })

	// Normal service resumed.
	off2 := a.Offset(3, 12)
	a.SetOffset(off2, math.NaN())
	if err := svc.Submit(alloc, off2); err != nil {
		t.Fatalf("post-probe submit: %v", err)
	}
	if r := <-done; r.Err != nil {
		t.Fatalf("post-probe recovery: %v", r.Err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFailedProbeReopensBreaker: a failing half-open probe re-opens the
// breaker immediately.
func TestFailedProbeReopensBreaker(t *testing.T) {
	eng := core.NewEngine(core.Options{Seed: 10})
	a := smoothArray(16, 16)
	alloc := eng.Protect("flaky", a, bitflip.Float32,
		registry.RecoverWith(predict.MethodAverage).WithRange(1000, 2000))

	done := make(chan Result, 4)
	svc, err := New(eng, Config{
		Workers: 1, BreakerThreshold: 1, BreakerCooldown: 20 * time.Millisecond, Seed: 11,
		OnOutcome: func(r Result) { done <- r },
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()

	a.SetOffset(a.Offset(4, 4), math.NaN())
	if err := svc.Submit(alloc, a.Offset(4, 4)); err != nil {
		t.Fatal(err)
	}
	<-done
	waitFor(t, "breaker to open", func() bool { return svc.BreakerState("flaky") == BreakerOpen })

	time.Sleep(30 * time.Millisecond)
	a.SetOffset(a.Offset(5, 5), math.NaN())
	if err := svc.Submit(alloc, a.Offset(5, 5)); err != nil {
		t.Fatalf("probe submit: %v", err)
	}
	r := <-done
	if !r.Probe || r.Err == nil {
		t.Fatalf("probe result = %+v, want failed probe", r)
	}
	if got := svc.BreakerState("flaky"); got != BreakerOpen {
		t.Errorf("breaker after failed probe = %v, want open", got)
	}
	if st := svc.Stats(); st.BreakerTrips != 2 {
		t.Errorf("BreakerTrips = %d, want 2 (initial + failed probe)", st.BreakerTrips)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServiceHammerAtAdmissionLimit drives the pool at and past its
// admission limit from many goroutines under -race: every submission must
// resolve to accepted (and eventually terminal) or ErrOverloaded — never a
// block, never a lost task.
func TestServiceHammerAtAdmissionLimit(t *testing.T) {
	eng := core.NewEngine(core.Options{Seed: 12})
	a := smoothArray(64, 64)
	alloc := eng.Protect("grid", a, bitflip.Float32, registry.RecoverWith(predict.MethodAverage))

	svc, err := New(eng, Config{Workers: 4, QueueDepth: 8, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()

	const submitters = 6
	const perSubmitter = 40
	var accepted, rejected int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				off := (g*perSubmitter + i) * 13 % a.Len()
				switch err := svc.Submit(alloc, off); {
				case err == nil:
					mu.Lock()
					accepted++
					mu.Unlock()
				case errors.Is(err, ErrOverloaded):
					mu.Lock()
					rejected++
					mu.Unlock()
				default:
					t.Errorf("unexpected submit error: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
	waitFor(t, "queue to drain", func() bool {
		st := svc.Stats()
		return st.Recovered+st.Failed == uint64(accepted)
	})
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	st := svc.Stats()
	if st.Accepted != uint64(accepted) || st.Rejected != uint64(rejected) {
		t.Errorf("stats = %+v, local accepted=%d rejected=%d", st, accepted, rejected)
	}
	if st.Submitted != uint64(submitters*perSubmitter) {
		t.Errorf("Submitted = %d, want %d", st.Submitted, submitters*perSubmitter)
	}
	t.Logf("hammer: %d accepted, %d rejected, %d recovered, %d failed",
		accepted, rejected, st.Recovered, st.Failed)
}

func TestServiceMetricsExport(t *testing.T) {
	eng := core.NewEngine(core.Options{Seed: 14})
	a := smoothArray(16, 16)
	alloc := eng.Protect("grid", a, bitflip.Float32, registry.RecoverWith(predict.MethodAverage))
	svc, err := New(eng, Config{Workers: 1, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	a.SetOffset(a.Offset(8, 8), math.NaN())
	if err := svc.Submit(alloc, a.Offset(8, 8)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "recovery", func() bool { return svc.Stats().Recovered == 1 })
	var buf strings.Builder
	if err := svc.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"spatialdue_service_recovered_total 1",
		"spatialdue_service_queue_depth 0",
		`spatialdue_service_breaker_state{alloc="grid",state="closed"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDrainBounded: Drain respects its context when a worker is wedged
// beyond the deadline machinery (deadlines disabled).
func TestDrainBounded(t *testing.T) {
	gate := make(chan struct{})
	eng := core.NewEngine(core.Options{Seed: 16, StageHook: func(core.StageEvent) { <-gate }})
	a := smoothArray(16, 16)
	alloc := eng.Protect("grid", a, bitflip.Float32, registry.RecoverWith(predict.MethodAverage))
	svc, err := New(eng, Config{Workers: 1, Deadline: -1, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	a.SetOffset(a.Offset(8, 8), math.NaN())
	if err := svc.Submit(alloc, a.Offset(8, 8)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := svc.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("bounded drain = %v, want deadline exceeded", err)
	}
	close(gate)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitUnregisteredAddress(t *testing.T) {
	eng := core.NewEngine(core.Options{Seed: 18})
	svc, err := New(eng, Config{Workers: 1, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	if err := svc.SubmitAddress(0xdeadbeef); !errors.Is(err, core.ErrCheckpointRestartRequired) {
		t.Errorf("unregistered address = %v, want checkpoint-restart", err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}
