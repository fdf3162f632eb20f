// Command dueload is a load generator for the networked recovery server
// (duerecover -serve -listen). It runs N concurrent clients, each in its
// own tenant: register an allocation → upload a smooth field → storm the
// server with inject-then-ingest DUE bursts → wait for every corruption to
// recover. It reports ingest and end-to-end recovery latency histograms,
// recovery-quality counters, and verifies the run ends with zero
// quarantined cells and every recovered value close to the original.
//
// Backpressure discipline: a 429/latched ingest is counted, never resent —
// the server keeps the event bank-latched and redelivers it itself; the
// settle phase proves those events were delivered late, not dropped.
//
// With -storm the clients instead share ONE tenant and ONE allocation and
// hammer disjoint offset partitions of the same field through the NDJSON
// stream endpoint — the same-array DUE storm that exercises the server's
// stripe-locked RecoverBatch fast path. The run ends by scraping the
// server's /metrics for the hot-path counters (stripe lock wait, batch
// size histogram, coalesced recoveries).
//
// Usage:
//
// With -storm-profile {bit,burst,row,column,metadata} it runs a
// structured-fault storm instead: one tenant, one allocation, N fault
// events of the selected physical shape (multi-bit bursts, row wipes,
// column failures, or descriptor corruption paired with a data DUE), every
// corrupted cell ingested as a DUE. The run exits nonzero unless every
// corrupted cell was recovered in place or checkpoint-restored — zero lost
// recoveries — and, for the metadata profile, unless the server's parity
// actually repaired descriptors without a single refusal.
//
// With -storm-profile predicted it scores the server's predictive
// memory-health tier instead (the server must run with -predictor): CE
// precursor storms are planted in DUE-designated banks and background noise
// in the rest, the client waits for the health tiers to react — at least
// one row must be proactively offlined BEFORE its DUE arrives — then the
// structured DUEs land and the run reports a bank-level confusion matrix
// (predicted = tier >= elevated, actual = bank took a DUE) plus ROC points
// over the risk scores. The run exits nonzero unless recall >= 0.8, at
// least one planted DUE was mitigated from the migration shadow, every
// corruption recovered, and no critical-tier bank took an unmitigated DUE.
//
// With -storm-profile hotspot it scores the spatial-analytics feedback loop
// (internal/spatial → autotune cache): DUEs concentrate in one narrow row
// band, harsher than the background, and the run exits nonzero unless the
// server's GET /v1/analytics/spatial classifies the stormed stripe hot
// (with clustered global Moran's I), the tune cache converges (hit rate and
// a measured cold-vs-warm probe-skip speedup), and zero recoveries are
// lost. The server must run with the tune cache enabled (the duerecover
// -tune-cache flag defaults on).
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
	"sort"
	"strings"
	"sync"
	"time"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/httpapi"
	"spatialdue/internal/httpapi/client"
	"spatialdue/internal/metrics"
	"spatialdue/internal/service"
	"spatialdue/internal/stats"
)

func main() {
	var (
		addr    = flag.String("addr", "http://127.0.0.1:8080", "recovery server base URL")
		addrs   = flag.String("addrs", "", "comma-separated cluster node base URLs: clients spread across entry nodes, ride shard redirects, fail over when a node dies, and redeliver unresolved DUEs to the promoted partner")
		clients = flag.Int("clients", 8, "concurrent clients (one tenant each)")
		events  = flag.Int("events", 96, "DUE events per client (capped at rows*cols)")
		burst   = flag.Int("burst", 16, "events per back-to-back burst")
		pause   = flag.Duration("pause", 25*time.Millisecond, "pause between bursts")
		rows    = flag.Int("rows", 64, "field rows")
		cols    = flag.Int("cols", 64, "field cols")
		settle  = flag.Duration("settle", 60*time.Second, "max wait for all recoveries to land and quarantine to clear")
		seed    = flag.Int64("seed", 1, "base random seed")
		tol     = flag.Float64("tol", 0.01, "relative-error bound counted as a high-quality recovery")
		storm   = flag.Bool("storm", false, "same-array storm: all clients share one tenant+allocation, partitioned offsets, NDJSON stream ingest")
		profile = flag.String("storm-profile", "", "structured-fault storm: bit, burst, row, column, or metadata (single tenant; zero-lost-recoveries exit assertions); predicted (CE-precursor storm scoring the server's predictive-health tier: confusion matrix, ROC, proactive-offline assertions — needs a -predictor server); or hotspot (spatially concentrated storm scoring the spatial-analytics feedback loop: hot-spot detection, tune-cache convergence, probe-skip speedup)")
		span    = flag.Int("span", 0, "storm-profile fault span: burst bit-width or row cells-per-wipe (0 = class default)")
	)
	flag.Parse()
	if *clients < 1 || *events < 1 || *rows < 2 || *cols < 2 {
		fatalf("need -clients >= 1, -events >= 1, -rows/-cols >= 2")
	}
	// Cluster mode: -addrs supplies the membership list; -addr becomes the
	// first entry so setup and the metrics scrape have a starting point.
	var addrList []string
	if *addrs != "" {
		for _, a := range strings.Split(*addrs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrList = append(addrList, a)
			}
		}
		if len(addrList) == 0 {
			fatalf("-addrs given but empty")
		}
		*addr = addrList[0]
	} else {
		addrList = []string{*addr}
	}
	if *events > *rows**cols {
		*events = *rows * *cols
	}

	if *profile == "predicted" {
		runPredictedProfile(*addr, *rows, *cols, *settle, *seed, *tol)
		return
	}
	if *profile == "hotspot" {
		runHotspotProfile(*addr, *events, *rows, *cols, *settle, *seed, *tol)
		return
	}
	if *profile != "" {
		runStormProfile(*addr, *profile, *events, *rows, *cols, *span, *settle, *seed, *tol)
		return
	}

	mode := "isolated tenants"
	if *storm {
		mode = "same-array storm"
	}
	fmt.Printf("dueload: %d clients x %d events against %s (%dx%d fields, burst %d, %s)\n",
		*clients, *events, *addr, *rows, *cols, *burst, mode)

	ctx, cancel := context.WithTimeout(context.Background(), 2**settle+5*time.Minute)
	defer cancel()

	params := make([]clientParams, *clients)
	if *storm {
		// One shared tenant + allocation, registered and uploaded once up
		// front; each client owns a disjoint partition of one shuffled offset
		// permutation, so every ingest->outcome mapping stays exact even
		// though all clients storm the same array.
		const tenant, allocName = "storm", "field"
		total := *clients * *events
		if total > *rows**cols {
			*events = *rows * *cols / *clients
			total = *clients * *events
			fmt.Printf("dueload: capping at %d events/client (field has %d elements)\n", *events, *rows**cols)
		}
		setup := newFailover(addrList, 0, tenant)
		if err := setup.do(ctx, func(c *client.Client) error {
			_, err := c.Register(ctx, httpapi.RegisterRequest{
				Name: allocName, Dims: []int{*rows, *cols}, DType: "float32",
				Policy: httpapi.PolicyInfo{Any: true, Range: &httpapi.RangeInfo{Lo: 50, Hi: 150}},
			})
			return err
		}); err != nil {
			fatalf("register storm allocation: %v", err)
		}
		orig := smoothField(*rows, *cols, *seed)
		if err := setup.do(ctx, func(c *client.Client) error {
			return c.Upload(ctx, allocName, orig)
		}); err != nil {
			fatalf("upload storm field: %v", err)
		}
		all := distinctOffsets(total, *rows**cols, *seed)
		for i := range params {
			params[i] = clientParams{
				addrs: addrList, entry: i, tenant: tenant, alloc: allocName,
				rows: *rows, cols: *cols, orig: orig,
				offsets: all[i**events : (i+1)**events],
				burst:   *burst, stream: true,
				pause: *pause, settle: *settle, seed: *seed + int64(i)*7919, tol: *tol,
			}
		}
	} else {
		for i := range params {
			params[i] = clientParams{
				addrs: addrList, entry: i, tenant: fmt.Sprintf("load-%02d", i), alloc: "field",
				setup: true, rows: *rows, cols: *cols,
				offsets: distinctOffsets(*events, *rows**cols, *seed+int64(i)*7919),
				burst:   *burst,
				pause:   *pause, settle: *settle, seed: *seed + int64(i)*7919, tol: *tol,
			}
		}
	}

	reports := make([]*report, *clients)
	errs := make([]error, *clients)
	var wg sync.WaitGroup
	for i := 0; i < *clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i], errs[i] = runClient(ctx, params[i])
		}(i)
	}
	wg.Wait()

	total := report{
		ingest: newLatencyHist(), e2e: newLatencyHist(),
		byCode: map[string]int{}, byMethod: map[string]int{},
	}
	failedClients := 0
	for i, err := range errs {
		if err != nil {
			failedClients++
			fmt.Fprintf(os.Stderr, "dueload: client %d: %v\n", i, err)
			continue
		}
		total.merge(reports[i])
	}

	fmt.Printf("\n== ingest results ==\n")
	fmt.Printf("accepted  %6d\n", total.accepted)
	fmt.Printf("latched   %6d  (429/503 backpressure; server-side redelivery, never resent)\n", total.latched)
	fmt.Printf("rejected  %6d\n", total.rejected)
	if len(addrList) > 1 {
		fmt.Printf("failovers %6d  (node rotations; %d DUEs redelivered to the promoted partner)\n",
			total.failovers, total.redelivered)
	}

	fmt.Printf("\n== recovery quality ==\n")
	fmt.Printf("recovered %6d  (%d auto-tuned, %d via post-settle repair sweep)\n",
		total.recovered, total.tuned, total.swept)
	fmt.Printf("failed-attempt outcomes %d\n", total.failedOutcomes)
	for _, kv := range sortedCounts(total.byMethod) {
		fmt.Printf("  method %-24s %6d\n", kv.k, kv.v)
	}
	for _, kv := range sortedCounts(total.byCode) {
		fmt.Printf("  failure code %-24s %6d\n", kv.k, kv.v)
	}
	fmt.Printf("within %.2g rel err: %d/%d (max rel err %.3g)\n",
		*tol, total.withinTol, total.verified, total.maxRelErr)
	fmt.Printf("quarantined at end: %d\n", total.quarantined)
	fmt.Printf("field valbits sum: %016x  (compare across runs, e.g. -field-store=heap vs mmap)\n",
		total.fieldSum)

	fmt.Printf("\n== ingest latency (HTTP round trip) ==\n")
	printHist(total.ingest)
	fmt.Printf("\n== end-to-end recovery latency (ingest -> outcome) ==\n")
	printHist(total.e2e)

	for _, a := range addrList {
		printServerMetrics(a)
	}

	if failedClients > 0 {
		fatalf("%d client(s) failed", failedClients)
	}
	if total.quarantined > 0 {
		fatalf("run ended with %d unresolved quarantined cells", total.quarantined)
	}
	if total.unresolved > 0 {
		fatalf("%d injected DUEs never produced a successful outcome", total.unresolved)
	}
	fmt.Printf("\nOK: all %d injected DUEs recovered, zero quarantined cells\n",
		total.recoveredOffsets)
}

type clientParams struct {
	// addrs is the cluster entry-node list (one element outside cluster
	// mode); entry picks this client's starting node so clients spread.
	addrs         []string
	entry         int
	tenant, alloc string
	// setup registers and uploads the allocation (isolated-tenant mode);
	// storm mode pre-registers the shared allocation once in main.
	setup      bool
	rows, cols int
	// offsets is the partition of elements this client injects and owns:
	// outcome tracking, the repair sweep, and verification are all filtered
	// to it, so storm clients never claim each other's recoveries.
	offsets []int
	// orig is the uploaded field (storm mode); nil means generate+upload.
	orig  []float64
	burst int
	// stream ingests each burst through the NDJSON stream endpoint instead
	// of one request per event.
	stream        bool
	pause, settle time.Duration
	seed          int64
	tol           float64
}

type report struct {
	accepted, latched, rejected int
	recovered, tuned            int
	failedOutcomes              int
	byCode, byMethod            map[string]int
	verified, withinTol         int
	maxRelErr                   float64
	quarantined                 int
	unresolved                  int
	recoveredOffsets            int
	swept                       int
	// redelivered counts DUEs re-ingested against a promoted partner after
	// their first delivery died with an owner node; failovers counts node
	// rotations the client performed.
	redelivered, failovers int
	ingest, e2e            *stats.Histogram
	// fieldSum is an FNV-1a digest over the IEEE-754 valbits of every
	// client's final downloaded field: two runs (e.g. -field-store=heap vs
	// mmap servers) produced bit-identical fields iff the sums match.
	fieldSum uint64
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
	r.verified += o.verified
	r.withinTol += o.withinTol
	r.quarantined += o.quarantined
	r.unresolved += o.unresolved
	r.recoveredOffsets += o.recoveredOffsets
	r.swept += o.swept
	r.redelivered += o.redelivered
	r.failovers += o.failovers
	r.maxRelErr = math.Max(r.maxRelErr, o.maxRelErr)
	// XOR, so the digest does not depend on merge order; main merges the
	// clients' reports by client index after all of them have returned.
	r.fieldSum ^= o.fieldSum
	for k, v := range o.byCode {
		r.byCode[k] += v
	}
	for k, v := range o.byMethod {
		r.byMethod[k] += v
	}
	mergeHist(r.ingest, o.ingest)
	mergeHist(r.e2e, o.e2e)
}

// runClient drives one tenant through the full lifecycle. In cluster mode
// (len(p.addrs) > 1) every call goes through the failover wrapper, DUE
// events are addressed by alloc+offset (simulated addresses are node-local
// and do not survive a failover), and a redelivery phase re-ingests any DUE
// whose first delivery died with its node.
func runClient(ctx context.Context, p clientParams) (*report, error) {
	f := newFailover(p.addrs, p.entry, p.tenant)
	cluster := len(p.addrs) > 1
	rep := &report{
		ingest: newLatencyHist(), e2e: newLatencyHist(),
		byCode: map[string]int{}, byMethod: map[string]int{},
	}

	allocName := p.alloc
	orig := p.orig
	if p.setup {
		err := f.do(ctx, func(c *client.Client) error {
			_, err := c.Register(ctx, httpapi.RegisterRequest{
				Name: allocName, Dims: []int{p.rows, p.cols}, DType: "float32",
				Policy: httpapi.PolicyInfo{Any: true, Range: &httpapi.RangeInfo{Lo: 50, Hi: 150}},
			})
			return err
		})
		if err != nil {
			return rep, fmt.Errorf("register: %w", err)
		}
		orig = smoothField(p.rows, p.cols, p.seed)
		if err := f.do(ctx, func(c *client.Client) error {
			return c.Upload(ctx, allocName, orig)
		}); err != nil {
			return rep, fmt.Errorf("upload: %w", err)
		}
	}

	// own filters the shared outcome feed, repair sweep, and quarantine
	// report down to this client's offset partition.
	own := make(map[int]bool, len(p.offsets))
	for _, off := range p.offsets {
		own[off] = true
	}

	// Storm, one burst at a time: plant the whole burst's latent faults
	// first (injection serializes against in-flight recoveries on the
	// array's recovery lock), then blast the DUE events back-to-back so
	// admission control — not the injector — is what gets exercised.
	// Distinct offsets keep the ingest->outcome latency map exact.
	offsets := p.offsets
	ingestAt := make(map[int]time.Time, len(offsets))
	burst := p.burst
	if burst < 1 {
		burst = 1
	}
	// event builds the ingest request for one injection. Cluster runs
	// address by alloc+offset — portable across a failover — while
	// single-node runs keep the simulated physical-address path hot.
	event := func(inj *httpapi.InjectReport) httpapi.EventRequest {
		if cluster {
			off := inj.Offset
			return httpapi.EventRequest{Alloc: allocName, Offset: &off}
		}
		return httpapi.EventRequest{Addr: inj.Addr, Bit: inj.Bit}
	}
	for start := 0; start < len(offsets); start += burst {
		if start > 0 && p.pause > 0 {
			time.Sleep(p.pause)
		}
		end := start + burst
		if end > len(offsets) {
			end = len(offsets)
		}
		injected := make([]*httpapi.InjectReport, 0, end-start)
		for n := start; n < end; n++ {
			off := offsets[n]
			var inj *httpapi.InjectReport
			err := f.do(ctx, func(c *client.Client) error {
				var e error
				inj, e = c.Inject(ctx, allocName, httpapi.InjectRequest{
					Offset: &off, Seed: p.seed + int64(n),
				})
				return e
			})
			if err != nil {
				return rep, fmt.Errorf("inject offset %d: %w", off, err)
			}
			injected = append(injected, inj)
		}
		if p.stream {
			// Whole burst down the NDJSON stream: the server admits the run
			// back-to-back, which is what feeds the workers' RecoverBatch
			// coalescing.
			evs := make([]httpapi.EventRequest, len(injected))
			for i, inj := range injected {
				evs[i] = event(inj)
			}
			t0 := time.Now()
			var results []httpapi.EventResult
			err := f.do(ctx, func(c *client.Client) error {
				var e error
				results, e = c.IngestBatch(ctx, evs)
				return e
			})
			rtt := time.Since(t0).Seconds() / float64(len(evs))
			if err != nil {
				return rep, fmt.Errorf("ingest stream: %w", err)
			}
			for i, res := range results {
				rep.ingest.Add(rtt)
				ingestAt[injected[i].Offset] = t0
				switch res.Status {
				case httpapi.StatusAccepted:
					rep.accepted++
				case httpapi.StatusLatched:
					rep.latched++
				default:
					rep.rejected++
					return rep, fmt.Errorf("ingest offset %d rejected: %v", injected[i].Offset, res.Error)
				}
			}
			continue
		}
		for _, inj := range injected {
			t0 := time.Now()
			err := f.do(ctx, func(c *client.Client) error {
				_, e := c.Ingest(ctx, event(inj))
				return e
			})
			rep.ingest.Add(time.Since(t0).Seconds())
			ingestAt[inj.Offset] = t0
			switch {
			case err == nil:
				rep.accepted++
			case errors.Is(err, service.ErrOverloaded), errors.Is(err, service.ErrCircuitOpen):
				// Backpressure: the event is latched server-side and will
				// be redelivered. Counting it is all a correct client does.
				rep.latched++
			default:
				rep.rejected++
				return rep, fmt.Errorf("ingest offset %d: %w", inj.Offset, err)
			}
		}
	}

	// Settle: follow the outcome feed until every injected offset has a
	// successful recovery (latched events arrive late — that is the point).
	// In storm mode the feed is shared by every client of the tenant, so
	// records for offsets outside this client's partition are skipped.
	deadline := time.Now().Add(p.settle)
	okAt := make(map[int]bool, len(offsets))
	failedAt := make(map[int]bool)
	var cursor uint64
	drainOutcomes := func(dl time.Time) error {
		for len(okAt) < len(offsets) && time.Now().Before(dl) {
			moves := f.moved
			var page *httpapi.OutcomesPage
			err := f.do(ctx, func(c *client.Client) error {
				var e error
				page, e = c.Outcomes(ctx, cursor, allocName, 1000)
				return e
			})
			if err != nil {
				return fmt.Errorf("outcomes: %w", err)
			}
			if f.moved != moves {
				// The page came from a different node whose feed is a
				// different sequence: drop it and restart from the head
				// (okAt dedups records already counted).
				cursor = 0
				continue
			}
			cursor = page.Next
			for _, rec := range page.Outcomes {
				if !own[rec.Offset] {
					continue
				}
				if rec.OK {
					delete(failedAt, rec.Offset)
					if okAt[rec.Offset] {
						continue // counted before a cursor reset re-read it
					}
					okAt[rec.Offset] = true
					rep.recovered++
					rep.byMethod[rec.Method]++
					if rec.Tuned {
						rep.tuned++
					}
					if t0, seen := ingestAt[rec.Offset]; seen {
						rep.e2e.Add(time.Unix(0, rec.UnixNano).Sub(t0).Seconds())
					}
				} else {
					rep.failedOutcomes++
					rep.byCode[rec.Code]++
					if !okAt[rec.Offset] {
						failedAt[rec.Offset] = true
					}
				}
			}
			if len(page.Outcomes) == 0 {
				// Feed quiet: once every offset is either recovered or known
				// permanently failed, stop waiting — the repair sweep below
				// owns the failures (and needs the remaining time budget).
				if len(okAt)+len(failedAt) >= len(offsets) {
					return nil
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
		return nil
	}
	settleDL := deadline
	if cluster {
		// Leave budget for redelivery rounds: events queued or latched on a
		// node that died were never journaled there, so no replica replays
		// them — the client is the durable party and must deliver again.
		settleDL = time.Now().Add(p.settle / 4)
		if settleDL.After(deadline) {
			settleDL = deadline
		}
	}
	if err := drainOutcomes(settleDL); err != nil {
		return rep, err
	}
	// Cluster redelivery: re-ingest every offset with no outcome at all
	// against whichever node answers (the promoted partner after a kill).
	// Offset events are node-portable, and redelivering an offset that was
	// merely slow is harmless — prediction masks the target cell, so a
	// duplicate recovery rewrites the same value.
	unaccounted := func() int {
		n := 0
		for _, off := range offsets {
			if !okAt[off] && !failedAt[off] {
				n++
			}
		}
		return n
	}
	for cluster && unaccounted() > 0 && time.Now().Before(deadline) {
		for _, off := range offsets {
			if okAt[off] || failedAt[off] {
				continue
			}
			o := off
			ierr := f.do(ctx, func(c *client.Client) error {
				_, e := c.Ingest(ctx, httpapi.EventRequest{Alloc: allocName, Offset: &o})
				return e
			})
			switch {
			case ierr == nil,
				errors.Is(ierr, service.ErrOverloaded),
				errors.Is(ierr, service.ErrCircuitOpen):
				rep.redelivered++
			default:
				// Mid-promotion rejection; the next round retries.
			}
		}
		round := time.Now().Add(time.Second)
		if round.After(deadline) {
			round = deadline
		}
		if err := drainOutcomes(round); err != nil {
			return rep, err
		}
	}
	// Repair sweep + quarantine drain. A recovery that ran while its
	// neighborhood was still corrupt can fail verification permanently and
	// leave the cell quarantined; once the storm has settled and the
	// neighbors are repaired, a synchronous re-recovery succeeds. This is
	// the operator loop: poll /v1/quarantine, POST recover for survivors.
	for {
		var q *httpapi.QuarantineReport
		err := f.do(ctx, func(c *client.Client) error {
			var e error
			q, e = c.Quarantine(ctx)
			return e
		})
		if err != nil {
			return rep, fmt.Errorf("quarantine: %w", err)
		}
		// Only this client's partition counts (and gets swept): in storm
		// mode the quarantine report covers every client's cells.
		ownQ := 0
		for _, off := range q.Allocations[allocName] {
			if own[off] {
				ownQ++
			}
		}
		rep.quarantined = ownQ
		if ownQ == 0 || !time.Now().Before(deadline) {
			break
		}
		for _, off := range q.Allocations[allocName] {
			if !own[off] || okAt[off] {
				continue // not ours, or transiently quarantined mid-recovery
			}
			o := off
			rerr := f.do(ctx, func(c *client.Client) error {
				_, e := c.Recover(ctx, allocName, o)
				return e
			})
			if rerr == nil {
				okAt[off] = true
				rep.swept++
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	rep.recoveredOffsets = len(okAt)
	rep.unresolved = len(offsets) - len(okAt)

	// Verify quality: the recovered field must match the uploaded one.
	var final []float64
	err := f.do(ctx, func(c *client.Client) error {
		var e error
		final, e = c.Download(ctx, allocName)
		return e
	})
	if err != nil {
		return rep, fmt.Errorf("download: %w", err)
	}
	rep.failovers = f.moved
	rep.fieldSum = valbitsSum(final)
	for _, off := range offsets {
		re := bitflip.RelErr(orig[off], final[off])
		rep.verified++
		if re <= p.tol {
			rep.withinTol++
		}
		rep.maxRelErr = math.Max(rep.maxRelErr, re)
	}
	return rep, nil
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
	total := h.Total() + h.Under + h.Over
	if total == 0 {
		fmt.Println("  (no observations)")
		return
	}
	maxC := 1
	lo, hi := -1, -1
	for i, c := range h.Counts {
		if c > 0 {
			if lo < 0 {
				lo = i
			}
			hi = i
			if c > maxC {
				maxC = c
			}
		}
	}
	if h.Under > 0 {
		fmt.Printf("  %12s < %-9s %6d\n", "", fmtDur(h.Edges[0]), h.Under)
	}
	for i := lo; i >= 0 && i <= hi; i++ {
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

type kv struct {
	k string
	v int
}

func sortedCounts(m map[string]int) []kv {
	out := make([]kv, 0, len(m))
	for k, v := range m {
		out = append(out, kv{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].v > out[j].v })
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dueload: "+format+"\n", args...)
	os.Exit(1)
}
