package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Phase shape shared by every workload (see README "Load shape"):
//
//	setup x setupReps -> quality pass -> warm-up -> timed windows -> checks
//
// The timed phase is a closed loop: each client issues its next operation
// only after the previous one completed, because the callers being modelled
// (an MCE handler, an application rank) wait for the repaired value.
const (
	// timedWindows is fixed: every windowed metric is reduced from this
	// many per-window values. A tighter time cap shortens the windows, never
	// their count.
	timedWindows = 5
	// setupReps is how many times the set-up is performed at least; setup_s
	// is the median, which keeps one cold page-cache miss out of the number.
	// Cheap set-ups repeat up to setupRepsMax times within setupBudget.
	setupReps    = 5
	setupRepsMax = 25
	setupBudget  = 500 * time.Millisecond
	// warmupShare is the warm-up length as a share of the timed phase.
	warmupShare = 0.1
)

// runCtx carries one invocation's parameters to the workload.
type runCtx struct {
	seed    int64
	seconds float64 // length of the timed phase
	clients int     // closed-loop client goroutines (min(nproc, 4))
	scratch string  // private temp dir; removed on exit
	smoke   bool    // shrink plans so a whole run takes a fraction of a second
	spans   *spanLog
}

// fieldSide is the edge length of the generated fields.
func (c *runCtx) fieldSide() int {
	if c.smoke {
		return smokeSide
	}
	return fieldSide
}

// numClients sizes the load to the machine: one closed-loop client per
// core, capped at four so a large box does not turn every workload into a
// contention test.
func numClients() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	if n < 1 {
		n = 1
	}
	return n
}

// recoveryRecord is one reconstruction observed in the quality pass.
type recoveryRecord struct {
	offset int
	want   float64 // the element's value before the fault
	got    float64 // what recovery wrote
	stage  string  // escalation-ladder rung that produced it
	method string
	ok     bool
}

// instance is one set-up workload, ready to serve.
type instance interface {
	// quality runs the fixed, sequential, single-client quality plan on the
	// freshly set-up system and returns every reconstruction in plan order.
	quality() ([]recoveryRecord, error)
	// reference replays the quality plan through a fresh in-process
	// core.Engine and returns the reconstructed values in the same order —
	// the oracle the quality pass must match bit for bit.
	reference() ([]float64, error)
	// clients is the number of closed-loop clients the timed phase runs.
	clients() int
	// op performs client c's i-th operation, recording latencies (one per
	// recovery) and returning how many recoveries completed correctly and
	// how many were attempted.
	op(c, i int, rec *clientLog) (done, attempted int)
	// finish runs the post-run invariants (nothing left quarantined, no
	// dangling journal intents, replica caught up) and returns one error
	// per violated invariant.
	finish() []error
	// counters returns the layer counters this instance can read from the
	// public surface of the layers it runs, keyed by per-layer metric name.
	counters() map[string]float64
	// ladder hands the traced run what it needs to replay this workload's
	// events at every depth of the stack.
	ladder() ladderSpec
	// close tears the instance down (servers stopped, files removed).
	close()
}

// clientLog is one client's private record of the timed phase. Only its
// owner writes it, so the hot loop takes no lock.
type clientLog struct {
	spans *spanLog // nil when the run is untraced

	lat     sampleLog         // latency of every recovery, microseconds
	preWarm int               // lat.n when warm-up ended
	winEnd  [timedWindows]int // lat.n when each window closed
	done    [timedWindows]int // correct recoveries per window
	tried   [timedWindows]int // attempted recoveries per window
	curWin  int               // window the client believes is open (-1 warm-up)

	// Recoveries outside the timed windows (warm-up, the operation in
	// flight when the last window closed) still count as attempted work.
	attempts, failures int

	sides map[string][]float64 // workload-specific samples (upload ms, ...)
	// otherFailed counts failed operations that are not recoveries (a field
	// transfer); each is one attempted and one failed operation of the run.
	otherFailed int
}

// add records one recovery latency.
func (l *clientLog) add(d time.Duration) { l.lat.add(float64(d) / float64(time.Microsecond)) }

// sampleLog is an append-only list of samples kept in fixed-size chunks:
// growing it never copies, so the log's own allocations stay a small,
// steady trickle instead of landing as multi-megabyte bursts in one window's
// allocs/bytes_per_recovery or in peak_rss_mb.
type sampleLog struct {
	chunks [][]float64
	n      int
}

const sampleChunk = 1 << 14

func (s *sampleLog) add(v float64) {
	if k := len(s.chunks); k == 0 || len(s.chunks[k-1]) == sampleChunk {
		s.chunks = append(s.chunks, make([]float64, 0, sampleChunk))
	}
	k := len(s.chunks) - 1
	s.chunks[k] = append(s.chunks[k], v)
	s.n++
}

// appendRange appends samples [lo, hi) to dst.
func (s *sampleLog) appendRange(dst []float64, lo, hi int) []float64 {
	if hi > s.n {
		hi = s.n
	}
	for lo < hi {
		c, i := lo/sampleChunk, lo%sampleChunk
		end := sampleChunk
		if rest := hi - lo; i+rest < end {
			end = i + rest
		}
		dst = append(dst, s.chunks[c][i:end]...)
		lo += end - i
	}
	return dst
}

// side records a workload-specific sample outside the recovery latency
// stream (for example one upload's duration).
func (l *clientLog) side(name string, v float64) {
	if l.sides == nil {
		l.sides = map[string][]float64{}
	}
	l.sides[name] = append(l.sides[name], v)
}

// timedResult is the raw outcome of the timed phase.
type timedResult struct {
	logs    []*clientLog
	windows [timedWindows]usageDelta // process-wide cost of each window
	total   usageDelta
}

// sides pools one side-sample stream across clients.
func (r timedResult) sides(name string) []float64 {
	var out []float64
	for _, lg := range r.logs {
		out = append(out, lg.sides[name]...)
	}
	return out
}

// runTimed drives the closed loop: warm-up, then timedWindows windows of
// equal length. Window boundaries are set by this coordinator's clock; an
// operation belongs, whole, to the window in which it completed.
func runTimed(inst instance, seconds float64, spans *spanLog) timedResult {
	n := inst.clients()
	res := timedResult{logs: make([]*clientLog, n)}
	var phase atomic.Int32 // -1 warm-up, 0..timedWindows-1 open window, timedWindows stop
	phase.Store(-1)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		lg := &clientLog{spans: spans, curWin: -1}
		res.logs[c] = lg
		wg.Add(1)
		go func(c int, lg *clientLog) {
			defer wg.Done()
			for i := 0; ; i++ {
				before := lg.lat.n
				done, tried := inst.op(c, i, lg)
				w := int(phase.Load())
				for lg.curWin < w {
					// Close every window that ended while this operation
					// ran; its samples go to the window now open.
					if lg.curWin < 0 {
						lg.preWarm = before
					} else {
						lg.winEnd[lg.curWin] = before
					}
					lg.curWin++
				}
				if w < 0 || w >= timedWindows {
					lg.attempts += tried
					lg.failures += tried - done
					if w >= timedWindows {
						return
					}
					continue
				}
				lg.done[w] += done
				lg.tried[w] += tried
			}
		}(c, lg)
	}

	warm := time.Duration(seconds * warmupShare * float64(time.Second))
	win := time.Duration(seconds / timedWindows * float64(time.Second))
	time.Sleep(warm)
	first := readUsage()
	prev := first
	phase.Store(0)
	for w := 0; w < timedWindows; w++ {
		time.Sleep(time.Until(first.at.Add(time.Duration(w+1) * win)))
		now := readUsage()
		phase.Store(int32(w + 1))
		res.windows[w] = now.since(prev)
		prev = now
	}
	res.total = prev.since(first)
	wg.Wait()
	return res
}

// windowLatencies returns the pooled, sorted latencies of window w.
func (r timedResult) windowLatencies(w int) []float64 {
	var all []float64
	for _, lg := range r.logs {
		lo := lg.preWarm
		if w > 0 {
			lo = lg.winEnd[w-1]
		}
		all = lg.lat.appendRange(all, lo, lg.winEnd[w])
	}
	sort.Float64s(all)
	return all
}

// allLatencies returns every timed-phase latency, sorted.
func (r timedResult) allLatencies() []float64 {
	var all []float64
	for w := 0; w < timedWindows; w++ {
		all = append(all, r.windowLatencies(w)...)
	}
	sort.Float64s(all)
	return all
}

// windowSeries reduces the timed phase to one value per window for each of
// the windowed end-to-end metrics.
type windowSeries struct {
	perS, p50, p95, cpuUS, allocs, bytes []float64
	samples                              []int // latency samples per window
	done, tried                          int
}

func (r timedResult) series() windowSeries {
	var s windowSeries
	for w := 0; w < timedWindows; w++ {
		done, tried := 0, 0
		for _, lg := range r.logs {
			done += lg.done[w]
			tried += lg.tried[w]
		}
		s.done += done
		s.tried += tried
		d := r.windows[w]
		lat := r.windowLatencies(w)
		s.samples = append(s.samples, len(lat))
		if done == 0 || d.wall <= 0 {
			for _, dst := range []*[]float64{&s.perS, &s.p50, &s.p95, &s.cpuUS, &s.allocs, &s.bytes} {
				*dst = append(*dst, math.NaN())
			}
			continue
		}
		n := float64(done)
		s.perS = append(s.perS, n/d.wall.Seconds())
		s.p50 = append(s.p50, percentile(lat, 0.50))
		s.p95 = append(s.p95, percentile(lat, 0.95))
		s.cpuUS = append(s.cpuUS, float64(d.cpu)/float64(time.Microsecond)/n)
		s.allocs = append(s.allocs, float64(d.mallocs)/n)
		s.bytes = append(s.bytes, float64(d.bytes)/n)
	}
	return s
}

// qualityScore is the quality pass reduced to the paper's thresholds.
type qualityScore struct {
	n                      int
	within1, within10, loc float64 // percentages
	mismatches             int     // oracle disagreements
	notOK                  int     // recoveries that reported failure
}

// scoreQuality grades the quality pass against the pre-fault values and the
// reference engine. A reconstruction counts as local when a spatial
// prediction rung produced it (primary, tune, alternate) — the paper's
// DUE-to-DCE conversion — and not a checkpoint restore or exhaustion.
func scoreQuality(recs []recoveryRecord, ref []float64) (qualityScore, error) {
	if len(ref) != len(recs) {
		return qualityScore{}, fmt.Errorf("oracle replayed %d recoveries, quality pass made %d", len(ref), len(recs))
	}
	q := qualityScore{n: len(recs)}
	w1, w10, loc := 0, 0, 0
	for i, r := range recs {
		if !r.ok {
			q.notOK++
			continue
		}
		if math.Float64bits(r.got) != math.Float64bits(ref[i]) {
			q.mismatches++
		}
		re := relErr(r.want, r.got)
		if re <= 0.01 {
			w1++
		}
		if re <= 0.10 {
			w10++
		}
		switch r.stage {
		case "primary", "tune", "alternate":
			loc++
		}
	}
	if q.n > 0 {
		q.within1 = 100 * float64(w1) / float64(q.n)
		q.within10 = 100 * float64(w10) / float64(q.n)
		q.loc = 100 * float64(loc) / float64(q.n)
	}
	return q, nil
}
