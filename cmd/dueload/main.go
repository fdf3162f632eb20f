// Command dueload is a load generator for the networked recovery server
// (duerecover -listen). It runs N concurrent clients, each in its own
// tenant: register an allocation → upload a smooth field → storm the
// server with inject-then-ingest DUE bursts → wait for every corruption to
// recover. It reports ingest and end-to-end recovery latency histograms,
// recovery-quality counters and the server's hot-path metrics, and
// verifies the run ends with zero quarantined cells and every recovered
// value close to the original. Every mode drives the same client
// lifecycle (run.go), and runs can repeat against one server.
//
// With -storm the clients instead share ONE tenant and ONE allocation and
// hammer disjoint offset partitions of the same field through the NDJSON
// stream endpoint — the same-array DUE storm that exercises the server's
// stripe-locked RecoverBatch fast path.
//
// -storm-profile runs one single-tenant profile instead: bit, burst, row,
// column or metadata a structured-fault storm (runStormProfile), predicted
// the predictive memory-health tier on a -predictor server
// (runPredictedProfile), hotspot the spatial-analytics feedback loop into
// the tune cache (runHotspotProfile). predicted and hotspot read
// server-wide state, so each needs a freshly started server.
//
// With -addrs (comma-separated node URLs) the load runs against a cluster:
// clients spread across entry nodes and ride the 307 shard redirects; when
// a node dies mid-storm each client rotates to the next node, waits out the
// partner's promotion, and redelivers every DUE that never produced an
// outcome — the client-side half of the zero-lost-recoveries contract
// (replicated-journal replay on the partner is the server-side half).
//
// Usage:
//
//	dueload [-addr http://127.0.0.1:8080] [-clients 8] [-events 96]
//	        [-burst 16] [-pause 25ms] [-rows 64] [-cols 64]
//	        [-settle 60s] [-seed 1] [-tol 0.01] [-storm]
//	        [-storm-profile bit|burst|row|column|metadata] [-span N]
//	        [-addrs http://node-a:8080,http://node-b:8080]
package main

import (
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
	"unicode"

	"spatialdue/internal/httpapi"
	"spatialdue/internal/httpapi/client"
	"spatialdue/internal/metrics"
	"spatialdue/internal/stats"
)

// config is one invocation's flags.
type config struct {
	addr                   string // first entry node; the profiles run against it
	addrs                  []string
	clients, events, burst int
	pause, settle          time.Duration
	rows, cols, span       int
	seed                   int64
	tol                    float64
	storm                  bool
	profile                string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "http://127.0.0.1:8080", "recovery server base URL")
	addrs := flag.String("addrs", "", "comma-separated cluster node base URLs: clients spread across entry nodes, ride shard redirects, fail over when a node dies, and redeliver unresolved DUEs to the promoted partner")
	flag.IntVar(&cfg.clients, "clients", 8, "concurrent clients (one tenant each)")
	flag.IntVar(&cfg.events, "events", 96, "DUE events per client (capped at rows*cols)")
	flag.IntVar(&cfg.burst, "burst", 16, "events per back-to-back burst")
	flag.DurationVar(&cfg.pause, "pause", 25*time.Millisecond, "pause between bursts")
	flag.IntVar(&cfg.rows, "rows", 64, "field rows")
	flag.IntVar(&cfg.cols, "cols", 64, "field cols")
	flag.DurationVar(&cfg.settle, "settle", 60*time.Second, "max wait for all recoveries to land and quarantine to clear")
	flag.Int64Var(&cfg.seed, "seed", 1, "base random seed")
	flag.Float64Var(&cfg.tol, "tol", 0.01, "relative-error bound counted as a high-quality recovery")
	flag.BoolVar(&cfg.storm, "storm", false, "same-array storm: all clients share one tenant+allocation, partitioned offsets, NDJSON stream ingest")
	flag.StringVar(&cfg.profile, "storm-profile", "", "structured-fault storm: bit, burst, row, column, or metadata (single tenant; zero-lost-recoveries exit assertions); predicted (CE-precursor storm scoring the server's predictive-health tier: confusion matrix, ROC, proactive-offline assertions — needs a -predictor server); or hotspot (spatially concentrated storm scoring the spatial-analytics feedback loop: hot-spot detection, tune-cache convergence, probe-skip speedup)")
	flag.IntVar(&cfg.span, "span", 0, "storm-profile fault span: burst bit-width or row cells-per-wipe (0 = class default)")
	flag.Parse()
	if err := dispatch(cfg, *addrs); err != nil {
		fmt.Fprintf(os.Stderr, "dueload: %v\n", err)
		os.Exit(1)
	}
}

// dispatch checks the flags and runs the selected mode.
func dispatch(cfg config, addrs string) error {
	if cfg.clients < 1 || cfg.events < 1 || cfg.rows < 2 || cfg.cols < 2 {
		return errors.New("need -clients >= 1, -events >= 1, -rows/-cols >= 2")
	}
	// Cluster mode: -addrs supplies the membership list; -addr becomes the
	// first entry so setup and the metrics scrape have a starting point.
	if addrs != "" {
		cfg.addrs = strings.FieldsFunc(addrs, func(c rune) bool { return c == ',' || unicode.IsSpace(c) })
		if len(cfg.addrs) == 0 {
			return errors.New("-addrs given but empty")
		}
		cfg.addr = cfg.addrs[0]
	} else {
		cfg.addrs = []string{cfg.addr}
	}
	cfg.events = min(cfg.events, cfg.rows*cfg.cols)
	cfg.burst = max(cfg.burst, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 2*cfg.settle+5*time.Minute)
	defer cancel()
	switch cfg.profile {
	case "":
		return runClients(ctx, cfg)
	case "predicted":
		return runPredictedProfile(ctx, cfg)
	case "hotspot":
		return runHotspotProfile(ctx, cfg)
	}
	return runStormProfile(ctx, cfg)
}

// runClients is the isolated-tenant and -storm mode: cfg.clients runs in
// parallel, each through every phase, then one merged report.
func runClients(ctx context.Context, cfg config) error {
	mode := "isolated tenants"
	if cfg.storm {
		mode = "same-array storm"
	}
	fmt.Printf("dueload: %d clients x %d events against %s (%dx%d fields, burst %d, %s)\n",
		cfg.clients, cfg.events, cfg.addr, cfg.rows, cfg.cols, cfg.burst, mode)

	var shared *run
	var all []int
	if cfg.storm {
		// One shared tenant + allocation, registered and uploaded once up
		// front; each client owns a disjoint partition of one shuffled offset
		// permutation, so every ingest->outcome mapping stays exact even
		// though all clients storm the same array.
		if cfg.clients*cfg.events > cfg.rows*cfg.cols {
			cfg.events = cfg.rows * cfg.cols / cfg.clients
			fmt.Printf("dueload: capping at %d events/client (field has %d elements)\n", cfg.events, cfg.rows*cfg.cols)
		}
		shared = newRun(cfg.addrs, 0, "storm")
		if _, err := shared.setup(ctx, cfg.rows, cfg.cols, "float32", cfg.seed); err != nil {
			return fmt.Errorf("storm allocation: %w", err)
		}
		all = distinctOffsets(cfg.clients*cfg.events, cfg.rows*cfg.cols, cfg.seed)
	}

	runs := make([]*run, cfg.clients)
	errs := make([]error, cfg.clients)
	var wg sync.WaitGroup
	for i := range runs {
		seed := cfg.seed + int64(i)*7919
		var offsets []int
		if cfg.storm {
			runs[i] = newRun(cfg.addrs, i, "storm")
			runs[i].orig, runs[i].cursor = shared.orig, shared.cursor
			offsets = all[i*cfg.events : (i+1)*cfg.events]
		} else {
			runs[i] = newRun(cfg.addrs, i, fmt.Sprintf("load-%02d", i))
			offsets = distinctOffsets(cfg.events, cfg.rows*cfg.cols, seed)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = runClient(ctx, cfg, runs[i], offsets, seed)
		}(i)
	}
	wg.Wait()

	total := newReport()
	failedClients := 0
	for i, err := range errs {
		if err != nil {
			failedClients++
			fmt.Fprintf(os.Stderr, "dueload: client %d: %v\n", i, err)
			continue
		}
		total.merge(runs[i].rep)
	}
	if cfg.storm {
		// Every client downloaded the one shared field at its own moment,
		// so merged digests would depend on timing (and an even number of
		// equal ones XOR to zero): digest one download taken after all of
		// them returned.
		q, err := shared.verify(ctx, nil, cfg.tol)
		if err != nil {
			return fmt.Errorf("storm field: %w", err)
		}
		total.q.sum = q.sum
	}

	fmt.Printf("\n== ingest results ==\n")
	fmt.Printf("accepted  %6d\n", total.accepted)
	fmt.Printf("latched   %6d  (429/503 backpressure; server-side redelivery, never resent)\n", total.latched)
	fmt.Printf("rejected  %6d\n", total.rejected)
	if len(cfg.addrs) > 1 {
		fmt.Printf("failovers %6d  (node rotations; %d DUEs redelivered to the promoted partner)\n",
			total.failovers, total.redelivered)
	}

	fmt.Printf("\n== recovery quality ==\n")
	fmt.Printf("recovered %6d  (%d auto-tuned, %d via post-settle repair sweep)\n",
		total.recovered, total.tuned, total.swept)
	fmt.Printf("failed-attempt outcomes %d\n", total.failedOutcomes)
	for _, k := range byCount(total.byMethod) {
		fmt.Printf("  method %-24s %6d\n", k, total.byMethod[k])
	}
	for _, k := range byCount(total.byCode) {
		fmt.Printf("  failure code %-24s %6d\n", k, total.byCode[k])
	}
	fmt.Printf("within %.2g rel err: %d/%d (max rel err %.3g)\n",
		cfg.tol, total.q.within, total.q.cells, total.q.maxRelErr)
	fmt.Printf("quarantined at end: %d\n", total.q.quarantined)
	fmt.Printf("field valbits sum: %016x  (compare across runs, e.g. -field-store=heap vs mmap)\n",
		total.q.sum)

	fmt.Printf("\n== ingest latency (HTTP round trip) ==\n")
	printHist(total.ingest)
	fmt.Printf("\n== end-to-end recovery latency (ingest -> outcome) ==\n")
	printHist(total.e2e)

	for _, a := range cfg.addrs {
		printServerMetrics(a)
	}

	if failedClients > 0 {
		return fmt.Errorf("%d client(s) failed", failedClients)
	}
	if total.q.quarantined > 0 {
		return fmt.Errorf("run ended with %d unresolved quarantined cells", total.q.quarantined)
	}
	// Every owned cell is recovered either from the feed or by the sweep.
	recovered := total.recovered + total.swept
	if unresolved := total.q.cells - recovered; unresolved > 0 {
		return fmt.Errorf("%d injected DUEs never produced a successful outcome", unresolved)
	}
	fmt.Printf("\nOK: all %d injected DUEs recovered, zero quarantined cells\n", recovered)
	return nil
}

// runClient drives one client's run through every phase; a storm client's
// run arrives set up. In cluster mode (len(cfg.addrs) > 1) a redelivery
// phase re-ingests any DUE whose first delivery died with its node.
func runClient(ctx context.Context, cfg config, r *run, offsets []int, seed int64) error {
	if r.orig == nil {
		if _, err := r.setup(ctx, cfg.rows, cfg.cols, "float32", seed); err != nil {
			return err
		}
	}
	// Storm, one burst at a time: plant the whole burst's latent faults
	// first (injection serializes against in-flight recoveries on the
	// array's recovery lock), then blast the DUE events back-to-back so
	// admission control — not the injector — is what gets exercised.
	for start := 0; start < len(offsets); start += cfg.burst {
		if start > 0 && cfg.pause > 0 {
			time.Sleep(cfg.pause)
		}
		var cells []httpapi.InjectCell
		for n := start; n < min(start+cfg.burst, len(offsets)); n++ {
			off := offsets[n]
			inj, err := r.inject(ctx, httpapi.InjectRequest{Offset: &off, Seed: seed + int64(n)})
			if err != nil {
				return fmt.Errorf("inject offset %d: %w", off, err)
			}
			cells = append(cells, inj...)
		}
		if err := r.ingest(ctx, cells, cfg.storm); err != nil {
			return err
		}
	}

	deadline := time.Now().Add(cfg.settle)
	dl, cluster := deadline, len(cfg.addrs) > 1
	if cluster {
		// Leave budget for redelivery rounds: events queued or latched on a
		// node that died were never journaled there, so no replica replays
		// them — the client is the durable party and must deliver again.
		dl = time.Now().Add(cfg.settle / 4)
	}
	for {
		if err := r.settle(ctx, dl); err != nil {
			return err
		}
		// Cluster redelivery: re-ingest every offset with no outcome at all
		// against whichever node answers (the promoted partner after a
		// kill). Offset events are node-portable, and redelivering an offset
		// that was merely slow is harmless — prediction masks the target
		// cell, so a duplicate recovery rewrites the same value.
		missing := r.owned(func(off int) bool { _, ok := r.ok[off]; return !ok && !r.failed[off] })
		if !cluster || len(missing) == 0 || !time.Now().Before(deadline) {
			break
		}
		for _, off := range missing {
			_, err := call(ctx, r.f, func(c *client.Client) (*httpapi.EventResult, error) {
				return c.Ingest(ctx, r.event(httpapi.InjectCell{Offset: off}))
			})
			// A rejection mid-promotion is retried by the next round.
			if ingestStatus(err) != httpapi.StatusRejected {
				r.rep.redelivered++
			}
		}
		if dl = time.Now().Add(time.Second); dl.After(deadline) {
			dl = deadline
		}
	}
	if err := r.sweep(ctx, deadline); err != nil {
		return err
	}

	q, err := r.verify(ctx, r.owned(nil), cfg.tol)
	if err != nil {
		return err
	}
	r.rep.q = q
	r.rep.failovers = r.f.moved
	return nil
}

// report is what runClients prints: one client's counts, or their merge.
type report struct {
	accepted, latched, rejected int
	recovered, tuned            int
	failedOutcomes              int
	byCode, byMethod            map[string]int
	swept                       int
	// redelivered counts DUEs re-ingested against a promoted partner after
	// their first delivery died with an owner node; failovers counts node
	// rotations the client performed.
	redelivered, failovers int
	ingest, e2e            *stats.Histogram
	// q is the client's verify. Its sum digests the final field: two runs
	// (e.g. -field-store=heap vs mmap servers) produced bit-identical
	// fields iff the sums match.
	q quality
}

func newReport() *report {
	return &report{
		ingest: newLatencyHist(), e2e: newLatencyHist(),
		byCode: map[string]int{}, byMethod: map[string]int{},
	}
}

// valbitsSum folds a field's exact bit patterns into an FNV-1a digest.
func valbitsSum(vals []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		_, _ = h.Write(b[:])
	}
	return h.Sum64()
}

func (r *report) merge(o *report) {
	r.accepted += o.accepted
	r.latched += o.latched
	r.rejected += o.rejected
	r.recovered += o.recovered
	r.tuned += o.tuned
	r.failedOutcomes += o.failedOutcomes
	r.q.cells += o.q.cells
	r.q.within += o.q.within
	r.q.quarantined += o.q.quarantined
	r.swept += o.swept
	r.redelivered += o.redelivered
	r.failovers += o.failovers
	r.q.maxRelErr = math.Max(r.q.maxRelErr, o.q.maxRelErr)
	// Isolated clients digest distinct tenants' fields. XOR, so the digest
	// does not depend on merge order; main merges the clients' reports by
	// client index after all of them have returned.
	r.q.sum ^= o.q.sum
	for k, v := range o.byCode {
		r.byCode[k] += v
	}
	for k, v := range o.byMethod {
		r.byMethod[k] += v
	}
	mergeHist(r.ingest, o.ingest)
	mergeHist(r.e2e, o.e2e)
}

// smoothField builds the uploaded test field: smooth with a seed-derived
// phase, so spatial prediction recovers every injection in-range.
func smoothField(rows, cols int, seed int64) []float64 {
	orig := make([]float64, rows*cols)
	phase := float64(seed%17) / 17 * 2 * math.Pi
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			orig[i*cols+j] = 100 +
				10*math.Sin(2*math.Pi*float64(i)/float64(rows)+phase)*
					math.Cos(2*math.Pi*float64(j)/float64(cols)) +
				5*float64(i+j)/float64(rows+cols)
		}
	}
	return orig
}

// scrapeMetrics fetches and parses one server's /metrics page.
func scrapeMetrics(base string) (map[string]float64, error) {
	page, err := client.New(client.Config{BaseURL: base}).Metrics(context.Background())
	if err != nil {
		return nil, err
	}
	return metrics.Parse(strings.NewReader(page))
}

// printServerMetrics summarizes one server's /metrics: the recovery
// hot-path counters (stripe lock contention, batch coalescing, server-side
// latching), then a per-stage p50/p95/p99 table from the stage-duration
// histograms — where each recovery's time actually went. Best-effort: a
// server without /metrics (or already gone) just skips the section.
func printServerMetrics(base string) {
	vals, err := scrapeMetrics(base)
	if err != nil {
		fmt.Printf("\n(metrics scrape skipped: %v)\n", err)
		return
	}
	fmt.Printf("\n== server hot-path metrics ==\n")
	fmt.Printf("stripe lock wait   %v over %.0f acquisitions\n",
		time.Duration(vals["spatialdue_stripe_wait_seconds"]*float64(time.Second)).Round(time.Microsecond),
		vals["spatialdue_stripe_acquisitions_total"])
	calls, members := vals["spatialdue_batch_size_count"], vals["spatialdue_batch_size_sum"]
	fmt.Printf("batch calls        %.0f (%.0f members, mean size %.1f)\n", calls, members, members/max(calls, 1))
	fmt.Printf("batched recoveries %.0f\n", vals["spatialdue_service_batched_total"])
	fmt.Printf("latched events     %.0f\n", vals["spatialdue_http_events_latched_total"])

	stages := metrics.LabelValues(vals, "spatialdue_stage_duration_seconds_count", "stage")
	e2e := metrics.Buckets(vals, "spatialdue_recovery_duration_seconds")
	if len(stages) == 0 && len(e2e) == 0 {
		fmt.Printf("\n(no stage-duration histograms on /metrics)\n")
		return
	}
	fmt.Printf("\n== per-stage latency (server histograms) ==\n")
	fmt.Printf("  %-18s %8s %10s %10s %10s\n", "stage", "count", "p50", "p95", "p99")
	row := func(name string, b []metrics.Bucket) {
		if len(b) == 0 {
			return
		}
		q := func(p float64) string { return fmtDur(metrics.HistogramQuantile(p, b)) }
		fmt.Printf("  %-18s %8.0f %10s %10s %10s\n", name, b[len(b)-1].Count, q(0.50), q(0.95), q(0.99))
	}
	for _, stage := range stages {
		row(stage, metrics.Buckets(vals, "spatialdue_stage_duration_seconds", "stage", stage))
	}
	row("end-to-end", e2e)
}

// distinctOffsets deals n distinct offsets out of [0, limit), shuffled
// deterministically by seed.
func distinctOffsets(n, limit int, seed int64) []int {
	perm := make([]int, limit)
	for i := range perm {
		perm[i] = i
	}
	// Fisher-Yates with a tiny LCG keeps the dependency surface zero.
	state := uint64(seed)*6364136223846793005 + 1442695040888963407
	for i := limit - 1; i > 0; i-- {
		state = state*6364136223846793005 + 1442695040888963407
		j := int(state>>33) % (i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[:n]
}

func newLatencyHist() *stats.Histogram {
	// 10us .. 100s, log-spaced: covers loopback round trips through long
	// redelivery tails.
	return stats.NewLogHistogram(10e-6, 100, 35)
}

func mergeHist(dst, src *stats.Histogram) {
	for i, c := range src.Counts {
		dst.Counts[i] += c
	}
	dst.Under += src.Under
	dst.Over += src.Over
}

// printHist renders the non-empty span of a log histogram with bars.
func printHist(h *stats.Histogram) {
	if h.Total()+h.Under+h.Over == 0 {
		fmt.Println("  (no observations)")
		return
	}
	lo, hi, maxC := len(h.Counts), -1, slices.Max(h.Counts)
	for i, c := range h.Counts {
		if c > 0 {
			lo, hi = min(lo, i), i
		}
	}
	if h.Under > 0 {
		fmt.Printf("  %12s < %-9s %6d\n", "", fmtDur(h.Edges[0]), h.Under)
	}
	for i := lo; i <= hi; i++ {
		bar := strings.Repeat("#", int(math.Ceil(40*float64(h.Counts[i])/float64(maxC))))
		fmt.Printf("  %9s - %-9s %6d %s\n", fmtDur(h.Edges[i]), fmtDur(h.Edges[i+1]), h.Counts[i], bar)
	}
	if h.Over > 0 {
		fmt.Printf("  %12s > %-9s %6d\n", "", fmtDur(h.Edges[len(h.Edges)-1]), h.Over)
	}
}

func fmtDur(secs float64) string {
	return time.Duration(secs * float64(time.Second)).Round(time.Microsecond).String()
}

// byCount lists m's keys, largest count first.
func byCount(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return m[keys[i]] > m[keys[j]] })
	return keys
}
