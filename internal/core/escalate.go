package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"spatialdue/internal/autotune"
	"spatialdue/internal/bitflip"
	"spatialdue/internal/predict"
	"spatialdue/internal/trace"
)

// The escalation ladder is the supervisor's answer to "the reconstruction
// is wrong or impossible": instead of either trusting a bad value or
// immediately giving up to checkpoint-restart, each recovery climbs a
// bounded sequence of increasingly expensive rungs until one produces a
// verified value:
//
//	primary   — the allocation's own policy (fixed method, or the
//	            auto-tuner's pick for RECOVER_ANY);
//	tune      — a fresh, cache-bypassing auto-tune run over the masked
//	            neighborhood, trying its winner;
//	alternate — the tuner's next-best candidates, in rank order, up to
//	            maxAlternates (3) attempts;
//	restore   — the single affected element re-read from the newest
//	            surviving checkpoint (fti.RestoreElement), when a
//	            checkpoint world is attached;
//	exhausted — give up: the corrupted value is restored (the caller
//	            rolls back whole-state), the element stays quarantined,
//	            and ErrCheckpointRestartRequired is returned.
//
// Every stage entry increments a per-stage counter (exported as
// spatialdue_escalations_total{stage=...}) and fires the StageHook, and the
// stage that finally produced the written value is recorded in the audit
// entry. Predictor execution is panic-isolated: a panicking method is an
// escalation, never a crash.

// Stage identifies a rung of the escalation ladder.
type Stage int

const (
	// StagePrimary is the allocation's recorded policy.
	StagePrimary Stage = iota
	// StageTune is a fresh auto-tune run after the primary failed.
	StageTune
	// StageAlternate tries the tuner's next-best candidates.
	StageAlternate
	// StageRestore re-reads the element from the newest surviving checkpoint.
	StageRestore
	// StageExhausted means the ladder ran out of rungs.
	StageExhausted
	// StageOfflined means the value was restored bit-exactly from the
	// predictive-health tier's migration shadow: the row was proactively
	// copied out and offlined before the DUE, so no reconstruction ran.
	StageOfflined

	numStages
)

// String implements fmt.Stringer.
func (s Stage) String() string {
	switch s {
	case StagePrimary:
		return "primary"
	case StageTune:
		return "tune"
	case StageAlternate:
		return "alternate"
	case StageRestore:
		return "restore"
	case StageExhausted:
		return "exhausted"
	case StageOfflined:
		return "offlined"
	}
	return fmt.Sprintf("Stage(%d)", int(s))
}

// StageEvent describes one ladder-stage entry during a recovery.
type StageEvent struct {
	// Alloc names the allocation under recovery ("burst" for burst elements,
	// "fti:<name>" for checkpoint-library repairs).
	Alloc string
	// Offset is the element being recovered.
	Offset int
	// Stage is the rung being entered.
	Stage Stage
	// Method is the method about to be attempted, when the stage has one.
	Method predict.Method
	// Err is the failure that caused escalation into this stage (nil for
	// StagePrimary).
	Err error
}

// ladderResult is the outcome of a successful climb.
type ladderResult struct {
	method predict.Method
	tuned  bool
	stage  Stage
	old    float64
	value  float64
	// residual is the accepted value's relative deviation from the
	// provisional (neighbor-mean) estimate — the spatial-analytics error
	// signal, NaN when no provisional was available. Pure function of the
	// data, so journal replay reproduces it bit for bit.
	residual float64
	// verifyFails counts verification rejections across the whole climb
	// (every rung), whether or not the climb eventually succeeded.
	verifyFails int
}

// methodSet is the set of methods one climb has attempted: a bitmask over the
// 14 predict.Method values. A value outside the enumeration (a bogus policy
// method, which safePredict turns into an error) is never a member; nothing
// ever asks about one, since the tuner only ranks real methods.
type methodSet uint32

func (s *methodSet) add(m predict.Method) {
	if m >= 0 && m < 32 {
		*s |= 1 << uint(m)
	}
}

func (s methodSet) has(m predict.Method) bool {
	return m >= 0 && m < 32 && s&(1<<uint(m)) != 0
}

// safePredict runs one predictor with panic isolation: a method that
// panics (including an out-of-range Method value, which predict.New
// rejects by panicking) is reported as an error so the ladder escalates
// instead of the recovery path crashing the application it is supposed to
// keep alive.
func safePredict(m predict.Method, env *predict.Env, idx []int) (v float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: predictor %v panicked: %v", m, r)
		}
	}()
	return predict.New(m).Predict(env, idx)
}

// enterStage counts a stage entry and fires the hook. The hook runs on the
// recovering goroutine while the array lock is held: it must not call back
// into recovery on the same engine (MarkCorrupt is the supported way to
// report secondary faults from a hook).
func (e *Engine) enterStage(alloc string, off int, st Stage, m predict.Method, cause error) {
	e.mu.Lock()
	e.escal[st]++
	hook := e.opts.StageHook
	e.mu.Unlock()
	if hook != nil {
		hook(StageEvent{Alloc: alloc, Offset: off, Stage: st, Method: m, Err: cause})
	}
}

// reconstruct supervises the recovery of one element: quarantine, masked
// prediction, plausibility verification, and the escalation ladder. The
// caller must hold the element's stripe range (or every stripe) of st, the
// array's live record; see stripes.go. On success the verified value
// has been written in place and the element released from quarantine; on
// failure the pre-recovery value is back in place and the element remains
// quarantined.
//
// The context is checked cooperatively at every stage entry and before
// every attempt: once it expires the climb aborts with
// ErrRecoveryAbandoned, restoring the pre-recovery value and keeping the
// element quarantined (same invariant as ladder exhaustion, minus the
// exhausted-stage accounting — the recovery was cut short, not beaten).
// The caller supplies the prediction environment (see Engine.envFor): a
// live quarantine mask plus the array's shared statistics, already seeded
// with this member's deterministic seed.
func (e *Engine) reconstruct(ctx context.Context, t *target, st *arrayState, m *member, env *predict.Env, clk time.Time) (ladderResult, error) {
	arr, off, tr, vr := t.arr, m.off, m.tr, t.policy.Range
	if off < 0 || off >= arr.Len() {
		return ladderResult{}, errOutOfRange(off)
	}
	if err := ctx.Err(); err != nil {
		return ladderResult{}, fmt.Errorf("%w: %s[%d]: %v", ErrRecoveryAbandoned, t.name, off, err)
	}
	old := arr.AtOffset(off)
	idx := arr.Coords(off)

	// Quarantine first: from here on no stencil, probe, or verification
	// neighborhood on this array may read the corrupted cell, and its
	// snapshot contribution leaves the shared statistics.
	st.quarantineCells(off)

	// Patch the cell with a provisional estimate. Predictors never read it
	// (it is masked), but concurrent readers of the raw array see something
	// bounded instead of NaN/garbage while the ladder climbs.
	// clk chains through the ladder: each stage boundary is one clock read,
	// shared between the ending span and the starting one. The caller seeds
	// the chain with its last boundary (typically the stripe-wait end).
	prov, provOK := 0.0, false
	if p, perr := safePredict(provisionalMethod, env, idx); perr == nil && isFinite(p) {
		arr.SetOffset(off, p)
		prov, provOK = p, true
	} else {
		arr.SetOffset(off, 0)
	}
	clk = tr.ObserveSince(trace.StageProvisional, clk)

	var tried methodSet
	vFails := 0
	// attempt runs one predict+verify try, recording the two halves as
	// separate spans (predStage/verStage name the ladder rung).
	attempt := func(predStage, verStage string, m predict.Method) (float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		tried.add(m)
		v, err := safePredict(m, env, idx)
		clk = tr.ObserveSince(predStage, clk)
		if err != nil {
			return 0, err
		}
		err = verifyValue(env, idx, off, v, vr)
		clk = tr.ObserveSince(verStage, clk)
		if err != nil {
			vFails++
			return 0, err
		}
		return v, nil
	}
	succeed := func(stage Stage, m predict.Method, tuned bool, v float64) (ladderResult, error) {
		arr.SetOffset(off, v)
		st.quarantine.remove(off)
		residual := math.NaN()
		if provOK {
			residual = bitflip.RelErr(v, prov)
		}
		return ladderResult{method: m, tuned: tuned, stage: stage, old: old, value: v,
			residual: residual, verifyFails: vFails}, nil
	}
	// abort cuts the climb short when the context expires: pre-recovery
	// value back in place, element still quarantined.
	abort := func(cause error) (ladderResult, error) {
		arr.SetOffset(off, old)
		return ladderResult{old: old, verifyFails: vFails}, fmt.Errorf("%w: %s[%d]: %v", ErrRecoveryAbandoned, t.name, off, cause)
	}

	// --- Stage: primary ---
	var (
		lastErr error
		ranked  []autotune.Score // best-first candidates from the latest tune
	)
	tuneAny := t.policy.Any
	method, tuned := t.policy.Method, false
	cachingOn := tuneAny && e.opts.TuneCacheBlock > 0
	if tuneAny {
		if cachingOn {
			if best, hit, terr := st.cache.Select(env, idx, e.opts.Tune); terr == nil {
				method, tuned = best, true
				if hit {
					tr.SetTuneCache("hit")
				} else {
					tr.SetTuneCache("miss")
				}
			} else {
				lastErr = fmt.Errorf("auto-tune failed: %w", terr)
			}
		} else if res, terr := autotune.Select(env, idx, e.opts.Tune); terr == nil {
			method, tuned, ranked = res.Best, true, res.Scores
		} else {
			lastErr = fmt.Errorf("auto-tune failed: %w", terr)
		}
		clk = tr.ObserveSince(trace.StageTune, clk)
	}
	if !tuneAny || tuned {
		e.enterStage(t.name, off, StagePrimary, method, nil)
		v, aerr := attempt(trace.StagePredictPrimary, trace.StageVerifyPrimary, method)
		if aerr == nil {
			return succeed(StagePrimary, method, tuned, v)
		}
		lastErr = aerr
	} else {
		// RECOVER_ANY with no usable tuner result: the primary rung has no
		// method to try, but it is still entered (and counted) so the ladder
		// trace is complete.
		e.enterStage(t.name, off, StagePrimary, method, lastErr)
	}

	// --- Stage: tune (fresh, cache-bypassing run) ---
	if err := ctx.Err(); err != nil {
		return abort(err)
	}
	e.enterStage(t.name, off, StageTune, 0, lastErr)
	clk = time.Now()
	res, terr := autotune.Select(env, idx, e.opts.Tune)
	clk = tr.ObserveSince(trace.StageTune, clk)
	if terr == nil {
		ranked = res.Scores
		if !tried.has(res.Best) {
			v, aerr := attempt(trace.StagePredictTune, trace.StageVerifyTune, res.Best)
			if aerr == nil {
				if cachingOn {
					// Stale-entry fix: the cached method (if any) just
					// failed this region, and the fresh tune's winner
					// verified. Publish it so the region's next recovery
					// hits the corrected entry instead of re-walking the
					// ladder.
					st.cache.Update(idx, res.Best, res.Scores)
				}
				return succeed(StageTune, res.Best, true, v)
			}
			lastErr = aerr
		}
	} else if lastErr == nil {
		lastErr = fmt.Errorf("auto-tune failed: %w", terr)
	}

	// --- Stage: alternate (next-best tuner candidates) ---
	if err := ctx.Err(); err != nil {
		return abort(err)
	}
	if len(ranked) > 0 {
		e.enterStage(t.name, off, StageAlternate, 0, lastErr)
		attempts := 0
		for _, sc := range ranked {
			if attempts >= maxAlternates {
				break
			}
			if cerr := ctx.Err(); cerr != nil {
				return abort(cerr)
			}
			if tried.has(sc.Method) || sc.Probes == 0 {
				continue
			}
			attempts++
			v, aerr := attempt(trace.StagePredictAlternate, trace.StageVerifyAlternate, sc.Method)
			if aerr == nil {
				if cachingOn {
					// Same correction as the tune rung: the alternate that
					// finally verified is the region's best current answer.
					st.cache.Update(idx, sc.Method, ranked)
				}
				return succeed(StageAlternate, sc.Method, true, v)
			}
			lastErr = aerr
		}
	}

	// --- Stage: restore (newest surviving checkpoint) ---
	if err := ctx.Err(); err != nil {
		return abort(err)
	}
	e.mu.Lock()
	w, rank := e.ckptWorld, e.ckptRank
	e.mu.Unlock()
	if w != nil {
		e.enterStage(t.name, off, StageRestore, 0, lastErr)
		clk = time.Now()
		v, rerr := w.RestoreElement(rank, arr, off)
		clk = tr.ObserveSince(trace.StageRestore, clk)
		if rerr == nil {
			// Checkpoint data is from an earlier timestep: require it finite
			// and inside the registered range, but do not hold it to the
			// current neighbor envelope.
			if isFinite(v) && (vr == nil || vr.Contains(v)) {
				return succeed(StageRestore, 0, false, v)
			}
			vFails++
			lastErr = errImplausible{fmt.Sprintf("checkpoint value %v fails plausibility", v)}
		} else {
			lastErr = fmt.Errorf("checkpoint restore failed: %w", rerr)
		}
	}

	// --- Stage: exhausted ---
	e.enterStage(t.name, off, StageExhausted, 0, lastErr)
	// Leave the corrupted value in place (the caller will checkpoint-restart,
	// which needs consistency) and keep the element quarantined so neighbors
	// recovering later never trust it.
	arr.SetOffset(off, old)
	if lastErr == nil {
		lastErr = fmt.Errorf("no recovery method applies")
	}
	return ladderResult{old: old, verifyFails: vFails}, fmt.Errorf("%w: ladder exhausted for %s[%d]: %w",
		ErrCheckpointRestartRequired, t.name, off, lastErr)
}

// Escalations returns the lifetime count of ladder-stage entries per stage.
func (e *Engine) Escalations() map[Stage]int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[Stage]int64, numStages)
	for s := Stage(0); s < numStages; s++ {
		out[s] = e.escal[s]
	}
	return out
}
