package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/core"
	"spatialdue/internal/faultinject"
	"spatialdue/internal/httpapi"
	"spatialdue/internal/httpapi/client"
	"spatialdue/internal/journal"
	"spatialdue/internal/predict"
	"spatialdue/internal/registry"
	"spatialdue/internal/service"
)

// Networked workloads run the server in this process on a real loopback
// listener (127.0.0.1:0) with the defaults `duerecover -serve -listen`
// ships: 4 workers, queue 64, batch-max 16, 8 MCA banks, tune cache on,
// heap field store. The journal is on and not fsynced — the stated flush
// policy of this benchmark; the fsync cost is a per-layer number
// (journal.append_pair_fsync_us), not part of the end-to-end figures.
const (
	fieldSide = 1024 // the networked workloads' field is fieldSide x fieldSide
	smokeSide = 256  // ... and this small under -smoke
	fieldName = "field"
	// pollBackoffMin..Max pace the outcome-feed polling of a waiting client:
	// the first re-poll comes after Min, each further one after twice the
	// previous pause, up to Max.
	pollBackoffMin = 100 * time.Microsecond
	pollBackoffMax = 2 * time.Millisecond
	// outcomeTimeout bounds the wait for one recovery's outcome record; a
	// recovery that has not reported by then counts as failed.
	outcomeTimeout = 10 * time.Second
)

func shippedEngineOptions(seed int64) core.Options {
	return core.Options{Seed: seed, TuneCacheBlock: 8}
}

func shippedServerConfig(seed int64, journalPath string) httpapi.ServerConfig {
	return httpapi.ServerConfig{
		Service: service.Config{
			Workers: 4, QueueDepth: 64, BatchMax: 16, Deadline: 2 * time.Second,
			JournalPath: journalPath, JournalSync: false, Seed: seed,
		},
		Banks: 8,
	}
}

// liveServer is one single-node server under test.
type liveServer struct {
	eng     *core.Engine
	srv     *httpapi.Server
	base    string
	journal string
	cancel  context.CancelFunc
	done    chan error
	stopped bool
}

// startServer builds engine + server and serves it on a loopback listener,
// returning once /healthz answers.
func startServer(opts core.Options, cfg httpapi.ServerConfig) (*liveServer, error) {
	eng := core.NewEngine(opts)
	srv, err := httpapi.NewServer(eng, cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	ls := &liveServer{eng: eng, srv: srv, base: "http://" + ln.Addr().String(),
		journal: cfg.Service.JournalPath, cancel: cancel, done: make(chan error, 1)}
	go func() { ls.done <- srv.Run(ctx, ln) }()
	if err := waitHealthy(ls.base); err != nil {
		ls.stop()
		return nil, err
	}
	return ls, nil
}

// stop drains and stops the server (idempotent).
func (s *liveServer) stop() {
	if s.stopped {
		return
	}
	s.stopped = true
	s.cancel()
	<-s.done
}

func waitHealthy(base string) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not healthy after 5s: %v", base, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// newSDK returns a typed client with a connection pool of its own, so each
// closed-loop client owns one keep-alive connection.
func newSDK(base, tenant string) *client.Client {
	tr := &http.Transport{MaxIdleConnsPerHost: 4, IdleConnTimeout: time.Minute}
	return client.New(client.Config{BaseURL: base, Tenant: tenant, HTTPClient: &http.Client{Transport: tr}})
}

// checkJournalClosed asserts the write-ahead journal holds no dangling
// intent: it opens a copy with journal.OpenRecovery, exactly what a restart
// would do, and expects nothing to replay.
func checkJournalClosed(path, scratch string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("journal check: %w", err)
	}
	cp, err := os.CreateTemp(scratch, "journal-copy-*.jsonl")
	if err != nil {
		return fmt.Errorf("journal check: %w", err)
	}
	name := cp.Name()
	defer os.Remove(name)
	if _, err := cp.Write(data); err != nil {
		cp.Close()
		return fmt.Errorf("journal check: %w", err)
	}
	if err := cp.Close(); err != nil {
		return fmt.Errorf("journal check: %w", err)
	}
	rec, dangling, err := journal.OpenRecovery(name, false)
	if err != nil {
		return fmt.Errorf("journal check: %w", err)
	}
	_ = rec.Close()
	if len(dangling) != 0 {
		return fmt.Errorf("journal %s holds %d dangling intents", filepath.Base(path), len(dangling))
	}
	return nil
}

// fleetClient is one closed-loop client of a networked workload: an SDK
// handle, the tenant's field, and the client's share of the event plan.
type fleetClient struct {
	sdk    *client.Client
	spec   fieldSpec // the field this client's DUEs land in
	trials []faultinject.Trial
	cursor uint64 // outcome-feed cursor (owned by the client's goroutine)

}

// registerAndUpload performs the per-tenant part of set-up: register the
// allocation and upload its field.
func (f *fleetClient) registerAndUpload(ctx context.Context) error {
	pol := httpapi.PolicyInfo{Any: f.spec.policy.Any}
	if !pol.Any {
		pol.Method = f.spec.policy.Method.String()
	}
	if _, err := f.sdk.Register(ctx, httpapi.RegisterRequest{
		Name: f.spec.alloc, Dims: f.spec.dims, DType: f.spec.dtype.String(), Policy: pol,
	}); err != nil {
		return fmt.Errorf("register: %w", err)
	}
	if err := f.sdk.Upload(ctx, f.spec.alloc, f.spec.pristine); err != nil {
		return fmt.Errorf("upload: %w", err)
	}
	return nil
}

// awaitOutcomes polls the outcome feed from the client's cursor until every
// offset in pending has reported, returning the records in arrival order.
// Records for other offsets (another client sharing the tenant) are skipped.
func (f *fleetClient) awaitOutcomes(ctx context.Context, pending map[int]bool, rec *clientLog, event, parent uint64) ([]httpapi.OutcomeRecord, error) {
	deadline := time.Now().Add(outcomeTimeout)
	got := make([]httpapi.OutcomeRecord, 0, len(pending))
	backoff := pollBackoffMin
	for len(pending) > 0 {
		sp := rec.begin("httpapi.outcomes_poll", event, parent)
		page, err := f.sdk.Outcomes(ctx, f.cursor, f.spec.alloc, 1000)
		rec.end(sp)
		if err != nil {
			return got, fmt.Errorf("outcomes: %w", err)
		}
		f.cursor = page.Next
		for _, r := range page.Outcomes {
			if pending[r.Offset] {
				delete(pending, r.Offset)
				got = append(got, r)
			}
		}
		if len(pending) == 0 {
			break
		}
		if time.Now().After(deadline) {
			return got, fmt.Errorf("%d outcomes missing after %v", len(pending), outcomeTimeout)
		}
		// Back off between polls that found work still outstanding. A caller
		// that re-polls flat out competes with the server for the cores: on
		// the 2-core reference box it cost http_storm a fifth of its CPU per
		// recovery, 40% more allocations, and made its timings chaotic
		// (run-to-run spread 15-23%, against 2-9% with the pauses). Latency is
		// read from the outcome record's server timestamp, so the pause does
		// not enter it.
		time.Sleep(backoff)
		if backoff < pollBackoffMax {
			backoff *= 2
		}
	}
	return got, nil
}

// admitted reports whether an ingest result means the server owns the event
// now: accepted into the pool, or latched in an MCA bank for server-side
// redelivery (delivered late, never dropped — the client must not resend).
func admitted(res *httpapi.EventResult, err error) bool {
	if res == nil {
		return false
	}
	if err == nil {
		return res.Status == httpapi.StatusAccepted
	}
	return res.Status == httpapi.StatusLatched
}

// recoverOne reports one DUE with POST /v1/events and waits for its outcome
// record. Latency runs from request send to the outcome's server timestamp
// (same host, same clock).
func (f *fleetClient) recoverOne(ctx context.Context, t faultinject.Trial, rec *clientLog, event uint64) (httpapi.OutcomeRecord, time.Duration, error) {
	root := rec.begin("recovery", event, 0)
	defer rec.end(root)
	off := t.Offset
	t0 := time.Now()
	sp := rec.begin("httpapi.ingest", event, root.id())
	res, err := f.sdk.Ingest(ctx, httpapi.EventRequest{Alloc: f.spec.alloc, Offset: &off, Bit: t.Bit})
	rec.end(sp)
	if !admitted(res, err) {
		return httpapi.OutcomeRecord{}, 0, fmt.Errorf("ingest offset %d: %v", off, err)
	}
	recs, err := f.awaitOutcomes(ctx, map[int]bool{off: true}, rec, event, root.id())
	if err != nil {
		return httpapi.OutcomeRecord{}, 0, err
	}
	r := recs[0]
	lat := time.Duration(r.UnixNano - t0.UnixNano())
	if !r.OK || !isFinite(r.New) {
		return r, lat, fmt.Errorf("offset %d: outcome not ok: %s %s", off, r.Code, r.Error)
	}
	return r, lat, nil
}

// recoverNext is the closed-loop operation of every single-event networked
// workload: client c's i-th DUE, wrapping around its site plan.
func (f *fleetClient) recoverNext(c, i int, rec *clientLog) (done, attempted int) {
	_, lat, err := f.recoverOne(context.Background(), f.trials[i%len(f.trials)], rec, uint64(c)<<40|uint64(i))
	if err != nil {
		return 0, 1
	}
	rec.add(lat)
	return 1, 1
}

// qualityOverHTTP runs trials sequentially through recoverOne.
func (f *fleetClient) qualityOverHTTP(trials []faultinject.Trial) []recoveryRecord {
	ctx := context.Background()
	recs := make([]recoveryRecord, 0, len(trials))
	idle := &clientLog{}
	for i, t := range trials {
		r, _, err := f.recoverOne(ctx, t, idle, uint64(i))
		recs = append(recs, recoveryRecord{
			offset: t.Offset, want: t.Orig, got: r.New, stage: r.Stage, method: r.Method, ok: err == nil,
		})
	}
	return recs
}

// offsetsOf lists the trial offsets.
func offsetsOf(trials []faultinject.Trial) []int {
	offs := make([]int, len(trials))
	for i, t := range trials {
		offs[i] = t.Offset
	}
	return offs
}

// synthSpec describes one generated rows x cols float32 field.
func synthSpec(ctx *runCtx, label string, policy registry.Policy) fieldSpec {
	side := ctx.fieldSide()
	return fieldSpec{
		alloc: fieldName, dims: []int{side, side}, dtype: bitflip.Float32,
		policy: policy, opts: shippedEngineOptions(ctx.seed),
		pristine: synthField(subSeed(ctx.seed, "field/"+label), side, side),
	}
}

// scatteredTrials plans a client's DUE sites: one per cell of a grid x grid
// lattice over region b, jittered inside the first half of each cell so no
// two sites ever share a stencil.
func scatteredTrials(seed int64, label string, spec fieldSpec, b box, grid []int) []faultinject.Trial {
	rng := rand.New(rand.NewSource(subSeed(seed, "sites/"+label)))
	jitter := make([]int, len(grid))
	for d := range grid {
		jitter[d] = (b.hi[d] - b.lo[d]) / grid[d] / 2
	}
	sites := stratifiedSites(rng, spec.dims, b, grid, jitter)
	pristine := spec.pristine
	trials := make([]faultinject.Trial, len(sites))
	for i, off := range sites {
		bit := rng.Intn(spec.dtype.Bits())
		trials[i] = faultinject.Trial{Offset: off, Bit: bit, Orig: pristine[off],
			Corrupted: bitflip.Flip(pristine[off], spec.dtype, bit)}
	}
	return trials
}

// --- http_single -----------------------------------------------------------

// httpSingle: each client owns a tenant and a field recovered with a fixed
// method, and reports one DUE per POST /v1/events.
type httpSingle struct {
	ctx     *runCtx
	srv     *liveServer
	fleet   []*fleetClient
	scratch string
}

func singleGrid(ctx *runCtx) []int {
	if ctx.smoke {
		return []int{8, 8}
	}
	return []int{64, 64}
}

func setupHTTPSingle(ctx *runCtx) (*httpSingle, error) {
	dir, err := os.MkdirTemp(ctx.scratch, "single-")
	if err != nil {
		return nil, err
	}
	srv, err := startServer(shippedEngineOptions(ctx.seed), shippedServerConfig(ctx.seed, filepath.Join(dir, "journal.jsonl")))
	if err != nil {
		return nil, err
	}
	h := &httpSingle{ctx: ctx, srv: srv, scratch: dir}
	for c := 0; c < ctx.clients; c++ {
		label := "c" + strconv.Itoa(c)
		spec := synthSpec(ctx, label, registry.RecoverWith(predict.MethodLorenzo1))
		fc := &fleetClient{sdk: newSDK(srv.base, "bench-"+label), spec: spec,
			trials: scatteredTrials(ctx.seed, label, spec, wholeArray(spec.dims), singleGrid(ctx))}
		if err := fc.registerAndUpload(context.Background()); err != nil {
			h.close()
			return nil, err
		}
		h.fleet = append(h.fleet, fc)
	}
	return h, nil
}

func (h *httpSingle) clients() int { return len(h.fleet) }

func (h *httpSingle) quality() ([]recoveryRecord, error) {
	return h.fleet[0].qualityOverHTTP(h.fleet[0].trials), nil
}

func (h *httpSingle) reference() ([]float64, error) {
	return referenceElements(h.fleet[0].spec, h.fleet[0].trials, false)
}

func (h *httpSingle) op(c, i int, rec *clientLog) (int, int) {
	return h.fleet[c].recoverNext(c, i, rec)
}

func (h *httpSingle) finish() []error { return finishServer(h.fleet, h.srv, h.scratch) }

func (h *httpSingle) counters() map[string]float64 {
	return serverCounters(h.fleet[0].sdk, h.srv.srv)
}

func (h *httpSingle) ladder() ladderSpec {
	return ladderSpec{field: h.fleet[0].spec, offsets: offsetsOf(h.fleet[0].trials), kind: ladderHTTP,
		generate: func() { synthField(h.ctx.seed, h.ctx.fieldSide(), h.ctx.fieldSide()) }}
}

func (h *httpSingle) close() {
	h.srv.stop()
	_ = os.RemoveAll(h.scratch)
}

// finishServer runs the post-run invariants of a single-node workload:
// nothing quarantined, then — with the server drained and stopped — no
// dangling journal intent.
func finishServer(fleet []*fleetClient, srv *liveServer, scratch string) []error {
	errs := checkQuarantineEmpty(fleet)
	srv.stop()
	if err := checkJournalClosed(srv.journal, scratch); err != nil {
		errs = append(errs, err)
	}
	return errs
}

// checkQuarantineEmpty asks every tenant's GET /v1/quarantine for leftovers.
func checkQuarantineEmpty(fleet []*fleetClient) []error {
	var errs []error
	seen := map[*client.Client]bool{}
	for _, f := range fleet {
		if seen[f.sdk] {
			continue
		}
		seen[f.sdk] = true
		q, err := f.sdk.Quarantine(context.Background())
		if err != nil {
			errs = append(errs, fmt.Errorf("quarantine report: %w", err))
			continue
		}
		if q.Total != 0 {
			errs = append(errs, fmt.Errorf("%d cells left quarantined", q.Total))
		}
	}
	return errs
}

// --- http_storm ------------------------------------------------------------

// stormBatch is the NDJSON batch size. It equals the server's ingest window
// (httpapi streamWindow): with larger batches the handler flushes a window's
// results before the request body is drained and every later line is lost
// (see README, "NDJSON accounting").
const stormBatch = 64

// stormTenant is the one tenant every storm client shares.
const stormTenant = "bench-storm"

// stormBandRows is the height of each client's band of the shared field.
const stormBandRows = 32

// httpStorm: all clients share one tenant and one RECOVER_ANY field and
// storm disjoint bands of it through POST /v1/events/stream.
type httpStorm struct {
	ctx     *runCtx
	srv     *liveServer
	spec    fieldSpec
	fleet   []*fleetClient
	primer  int              // leading trials of client 0 sent one per batch in the quality pass
	graded  []recoveryRecord // the quality pass's records, for the oracle
	scratch string
}

// stormBand is client c's band: bands are spread over the field so no two
// clients' recoveries ever contend for the same or adjacent lock stripes.
func stormBand(c, clients, side int) box {
	margin := side / 8
	lo := margin + c*(side-2*margin)/clients
	return box{lo: []int{lo, 0}, hi: []int{lo + stormBandRows, side}}
}

func setupHTTPStorm(ctx *runCtx) (*httpStorm, error) {
	dir, err := os.MkdirTemp(ctx.scratch, "storm-")
	if err != nil {
		return nil, err
	}
	srv, err := startServer(shippedEngineOptions(ctx.seed), shippedServerConfig(ctx.seed, filepath.Join(dir, "journal.jsonl")))
	if err != nil {
		return nil, err
	}
	spec := synthSpec(ctx, "storm", registry.RecoverAny())
	h := &httpStorm{ctx: ctx, srv: srv, spec: spec, scratch: dir}
	grid := []int{4, 128}
	if ctx.smoke {
		grid = []int{2, 16} // 256 columns: 16-column cells keep the gap
	}
	for c := 0; c < ctx.clients; c++ {
		fc := &fleetClient{sdk: newSDK(srv.base, stormTenant), spec: spec,
			trials: scatteredTrials(ctx.seed, "storm"+strconv.Itoa(c), spec, stormBand(c, ctx.clients, ctx.fieldSide()), grid)}
		h.fleet = append(h.fleet, fc)
	}
	if err := h.fleet[0].registerAndUpload(context.Background()); err != nil {
		h.close()
		return nil, err
	}
	// The quality pass opens with one DUE per tune-cache region of client
	// 0's band, sent one at a time, so the cache fills in plan order; the
	// batches that follow then hit it no matter how the worker pool
	// interleaves them. Regions are the engine's lock stripes.
	h.primer = primeFirstPerStripe(h.fleet[0].trials, srv.eng, stormTenant, spec)
	return h, nil
}

// primeFirstPerStripe reorders trials so the first trial of every distinct
// lock stripe leads the plan, and returns how many lead. The stripe geometry
// is read from the serving engine's public StripeSpan.
func primeFirstPerStripe(trials []faultinject.Trial, eng *core.Engine, tenant string, spec fieldSpec) int {
	alloc, ok := eng.Table().ByTenantName(tenant, spec.alloc)
	if !ok {
		return 0
	}
	n := eng.NumStripes(alloc.Array)
	ends := make([]int, n) // stripe s covers offsets below ends[s]
	for s := range ends {
		_, ends[s] = eng.StripeSpan(alloc.Array, s)
	}
	stripeOf := func(off int) int {
		return sort.SearchInts(ends, off+1)
	}
	seen := map[int]bool{}
	lead := 0
	for i := range trials {
		if s := stripeOf(trials[i].Offset); !seen[s] {
			seen[s] = true
			trials[lead], trials[i] = trials[i], trials[lead]
			lead++
		}
	}
	return lead
}

func (h *httpStorm) clients() int { return len(h.fleet) }

// stormOnce sends one NDJSON batch and waits for every member's outcome.
// A result line that never comes back is a failed operation.
func (f *fleetClient) stormOnce(ctx context.Context, batch []faultinject.Trial, rec *clientLog, event uint64) ([]httpapi.OutcomeRecord, []time.Duration, int) {
	root := rec.begin("storm_batch", event, 0)
	defer rec.end(root)
	evs := make([]httpapi.EventRequest, len(batch))
	offs := make([]int, len(batch))
	for i, t := range batch {
		offs[i] = t.Offset
		evs[i] = httpapi.EventRequest{Alloc: f.spec.alloc, Offset: &offs[i], Bit: t.Bit}
	}
	t0 := time.Now()
	sp := rec.begin("httpapi.ingest_batch", event, root.id())
	results, err := f.sdk.IngestBatch(ctx, evs)
	rec.end(sp)
	if err != nil && len(results) == 0 {
		return nil, nil, 0
	}
	pending := map[int]bool{}
	for i := range batch {
		if i >= len(results) {
			break // missing result line: never admitted as far as we know
		}
		r := results[i]
		if r.Status == httpapi.StatusAccepted || r.Status == httpapi.StatusLatched {
			pending[offs[i]] = true
		}
	}
	recs, _ := f.awaitOutcomes(ctx, pending, rec, event, root.id())
	lats := make([]time.Duration, 0, len(recs))
	okRecs := recs[:0:0]
	for _, r := range recs {
		if r.OK && isFinite(r.New) {
			okRecs = append(okRecs, r)
			lats = append(lats, time.Duration(r.UnixNano-t0.UnixNano()))
		}
	}
	return okRecs, lats, len(okRecs)
}

func (h *httpStorm) quality() ([]recoveryRecord, error) {
	f := h.fleet[0]
	ctx := context.Background()
	idle := &clientLog{}
	got := map[int]httpapi.OutcomeRecord{}
	send := func(batch []faultinject.Trial, event uint64) {
		recs, _, _ := f.stormOnce(ctx, batch, idle, event)
		for _, r := range recs {
			got[r.Offset] = r
		}
	}
	for i := 0; i < h.primer; i++ {
		send(f.trials[i:i+1], uint64(i))
	}
	for lo := h.primer; lo < len(f.trials); lo += stormBatch {
		hi := lo + stormBatch
		if hi > len(f.trials) {
			hi = len(f.trials)
		}
		send(f.trials[lo:hi], uint64(lo))
	}
	recs := make([]recoveryRecord, 0, len(f.trials))
	for _, t := range f.trials {
		r, ok := got[t.Offset]
		recs = append(recs, recoveryRecord{offset: t.Offset, want: t.Orig, got: r.New,
			stage: r.Stage, method: r.Method, ok: ok})
	}
	h.graded = recs
	return recs, nil
}

// reference is the sequential oracle, like every other workload's — with
// one allowance. A storm batch is recovered by four workers at once, so
// which event of a stripe runs the tuner (a cache miss, or a hot stripe's
// 16-use expiry) can depend on scheduling where the sequential engine has one
// fixed order. Where a value differs from the sequential reference, it must
// still be bit-identical to the reported method's kernel run in-process on
// the pristine neighbourhood (sites never share a stencil, so that value does
// not depend on order): the path is then proven bit-exact, only the tuner's
// turn-taking differed.
func (h *httpStorm) reference() ([]float64, error) {
	ref, err := referenceElements(h.spec, h.fleet[0].trials, false)
	if err != nil || len(ref) != len(h.graded) {
		return ref, err
	}
	arr, err := h.spec.newArray()
	if err != nil {
		return nil, err
	}
	env := predict.NewEnv(arr, h.spec.opts.Seed)
	for i, r := range h.graded {
		if !r.ok || math.Float64bits(r.got) == math.Float64bits(ref[i]) {
			continue
		}
		m, err := predict.ParseMethod(r.method)
		if err != nil {
			continue
		}
		if v, err := predict.New(m).Predict(env, arr.Coords(r.offset)); err == nil && math.Float64bits(v) == math.Float64bits(r.got) {
			ref[i] = v
		}
	}
	return ref, nil
}

func (h *httpStorm) op(c, i int, rec *clientLog) (int, int) {
	f := h.fleet[c]
	batch := stormBatchOf(f.trials, i)
	_, lats, ok := f.stormOnce(context.Background(), batch, rec, uint64(c)<<40|uint64(i))
	for _, d := range lats {
		rec.add(d)
	}
	return ok, len(batch)
}

func (h *httpStorm) finish() []error { return finishServer(h.fleet[:1], h.srv, h.scratch) }

func (h *httpStorm) counters() map[string]float64 {
	return serverCounters(h.fleet[0].sdk, h.srv.srv)
}

func (h *httpStorm) ladder() ladderSpec {
	ls := ladderSpec{field: h.spec, offsets: offsetsOf(h.fleet[0].trials), kind: ladderStorm,
		generate: func() { synthField(h.ctx.seed, h.ctx.fieldSide(), h.ctx.fieldSide()) }}
	for _, f := range h.fleet {
		ls.storm = append(ls.storm, offsetsOf(f.trials))
	}
	return ls
}

func (h *httpStorm) close() {
	h.srv.stop()
	_ = os.RemoveAll(h.scratch)
}

// --- field_mixed -----------------------------------------------------------

// fieldMixed: one tenant and one RECOVER_ANY field on the mmap field store;
// client 0 alternates full-field uploads and downloads while the other
// clients report single DUEs on the same field.
type fieldMixed struct {
	ctx      *runCtx
	srv      *liveServer
	spec     fieldSpec
	uploader *fleetClient
	fleet    []*fleetClient // the DUE clients
	pristine []float64
	sites    map[int]bool // every planned DUE site (a download may differ there)
	scratch  string

	// The mix is fixed, not left to contention: one full-field transfer per
	// mixRatio recoveries. recovered counts the DUE clients' completed
	// recoveries; transfers is how many transfers the uploader has started.
	recovered atomic.Int64
	transfers int
}

// mixRatio is how many recoveries the DUE clients complete per full-field
// transfer (upload or download, alternating). Tying the two together makes
// cost-per-recovery a property of the code: left free-running, the ratio —
// and with it every per-recovery figure — followed whichever side the
// scheduler happened to favour.
const mixRatio = 64

func setupFieldMixed(ctx *runCtx) (*fieldMixed, error) {
	dir, err := os.MkdirTemp(ctx.scratch, "mixed-")
	if err != nil {
		return nil, err
	}
	cfg := shippedServerConfig(ctx.seed, filepath.Join(dir, "journal.jsonl"))
	cfg.FieldStore = httpapi.FieldStoreMmap
	cfg.DataDir = filepath.Join(dir, "data")
	srv, err := startServer(shippedEngineOptions(ctx.seed), cfg)
	if err != nil {
		return nil, err
	}
	spec := synthSpec(ctx, "mixed", registry.RecoverAny())
	m := &fieldMixed{ctx: ctx, srv: srv, spec: spec, pristine: spec.pristine, sites: map[int]bool{}, scratch: dir}
	m.uploader = &fleetClient{sdk: newSDK(srv.base, "bench-mixed"), spec: spec}
	dues := ctx.clients - 1
	if dues < 1 {
		dues = 1 // the workload is reads beside writes: it needs both roles
	}
	grid := singleGrid(ctx)
	for c := 0; c < dues; c++ {
		// DUE clients split the field into horizontal slabs.
		side := ctx.fieldSide()
		b := box{lo: []int{c * side / dues, 0}, hi: []int{(c + 1) * side / dues, side}}
		g := []int{grid[0] / dues, grid[1]}
		fc := &fleetClient{sdk: newSDK(srv.base, "bench-mixed"), spec: spec,
			trials: scatteredTrials(ctx.seed, "mixed"+strconv.Itoa(c), spec, b, g)}
		for _, t := range fc.trials {
			m.sites[t.Offset] = true
		}
		m.fleet = append(m.fleet, fc)
	}
	if err := m.uploader.registerAndUpload(context.Background()); err != nil {
		m.close()
		return nil, err
	}
	return m, nil
}

func (m *fieldMixed) clients() int { return 1 + len(m.fleet) }

func (m *fieldMixed) quality() ([]recoveryRecord, error) {
	return m.fleet[0].qualityOverHTTP(m.fleet[0].trials), nil
}

func (m *fieldMixed) reference() ([]float64, error) {
	return referenceElements(m.spec, m.fleet[0].trials, false)
}

func (m *fieldMixed) op(c, i int, rec *clientLog) (int, int) {
	ctx := context.Background()
	if c == 0 {
		if m.recovered.Load() < int64(m.transfers)*mixRatio {
			// Not due yet. Return to the harness (it may be stopping)
			// instead of blocking here.
			time.Sleep(200 * time.Microsecond)
			return 0, 0
		}
		m.transfer(ctx, m.transfers, rec)
		m.transfers++
		return 0, 0
	}
	done, tried := m.fleet[c-1].recoverNext(c, i, rec)
	m.recovered.Add(1)
	return done, tried
}

// transfer is the uploader's i-th operation: even ones upload the pristine
// field, odd ones download it and check it.
func (m *fieldMixed) transfer(ctx context.Context, i int, rec *clientLog) {
	event := uint64(i)
	if i%2 == 0 {
		sp := rec.begin("httpapi.upload", event, 0)
		t0 := time.Now()
		err := m.uploader.sdk.Upload(ctx, m.spec.alloc, m.pristine)
		d := time.Since(t0)
		rec.end(sp)
		if err != nil {
			rec.otherFailed++
			return
		}
		rec.side("upload_ms", float64(d)/float64(time.Millisecond))
		return
	}
	sp := rec.begin("httpapi.download", event, 0)
	t0 := time.Now()
	vals, err := m.uploader.sdk.Download(ctx, m.spec.alloc)
	d := time.Since(t0)
	rec.end(sp)
	if err != nil || !m.downloadPlausible(vals) {
		rec.otherFailed++
		return
	}
	rec.side("download_ms", float64(d)/float64(time.Millisecond))
}

// downloadPlausible checks a downloaded field: the right size, and equal to
// what was uploaded everywhere except at planned DUE sites, where a finite
// reconstruction may sit.
func (m *fieldMixed) downloadPlausible(vals []float64) bool {
	if len(vals) != len(m.pristine) {
		return false
	}
	for off, v := range vals {
		if v != m.pristine[off] && (!m.sites[off] || !isFinite(v)) {
			return false
		}
	}
	return true
}

func (m *fieldMixed) finish() []error { return finishServer(m.fleet[:1], m.srv, m.scratch) }

func (m *fieldMixed) counters() map[string]float64 {
	return serverCounters(m.uploader.sdk, m.srv.srv)
}

func (m *fieldMixed) ladder() ladderSpec {
	return ladderSpec{field: m.spec, offsets: offsetsOf(m.fleet[0].trials), kind: ladderHTTP,
		generate: func() { synthField(m.ctx.seed, m.ctx.fieldSide(), m.ctx.fieldSide()) }}
}

func (m *fieldMixed) close() {
	m.srv.stop()
	_ = os.RemoveAll(m.scratch)
}

// --- reading the layers' public counters -----------------------------------

// scrapeMetrics fetches GET /metrics and parses the Prometheus text into
// series -> value (the series key keeps its label set verbatim).
func scrapeMetrics(sdk *client.Client) (map[string]float64, error) {
	text, err := sdk.Metrics(context.Background())
	if err != nil {
		return nil, err
	}
	return parseMetrics(text), nil
}

func parseMetrics(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// ratio returns 100*num/den, or 0 when den is 0.
func pct(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * num / den
}

// perOr0 returns num/den, or 0 when den is 0.
func perOr0(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// serverCounters reads one server's layers from outside: GET /metrics for
// what it exports, and the public Stats accessors for the rest.
func serverCounters(sdk *client.Client, srv *httpapi.Server) map[string]float64 {
	out := engineCounters(srv.Engine())
	st := srv.Service().Stats()
	finished := float64(st.Recovered + st.Failed)
	out["service.batched_pct"] = pct(float64(st.Batched), finished)
	out["service.rejected_pct"] = pct(float64(st.Rejected), float64(st.Submitted))
	out["service.retries"] = float64(st.Retries)
	if m, err := scrapeMetrics(sdk); err == nil {
		acc := m["spatialdue_http_events_accepted_total"]
		lat := m["spatialdue_http_events_latched_total"]
		out["mca.latched_pct"] = pct(lat, acc+lat)
		out["mca.bank_overflows"] = m["spatialdue_mca_bank_overflows_total"]
		out["service.queue_wait_us"] = 1e6 * perOr0(
			m[`spatialdue_stage_duration_seconds_sum{stage="queue_wait"}`],
			m[`spatialdue_stage_duration_seconds_count{stage="queue_wait"}`])
	}
	return out
}

// engineCounters reads the engine's public counters.
func engineCounters(eng *core.Engine) map[string]float64 {
	out := map[string]float64{}
	st := eng.Stats()
	total := float64(st.Recovered + st.Fallbacks)
	esc := eng.Escalations()
	out["core.escalated_pct"] = pct(float64(esc[core.StageTune]), total)
	out["core.restore_pct"] = pct(float64(esc[core.StageRestore]), total)
	wait, acq := eng.StripeWait()
	out["core.stripe_wait_us_per_recovery"] = perOr0(float64(wait)/float64(time.Microsecond), total)
	out["core.stripe_acquisitions_per_recovery"] = perOr0(float64(acq), total)
	tc := eng.TuneCacheCounters()
	selects := float64(tc.Hits + tc.Coalesced + tc.Misses + tc.Expiries)
	out["autotune.cache_hit_pct"] = pct(float64(tc.Hits+tc.Coalesced), selects)
	calls, members, _ := eng.BatchStats()
	out["core.batch_mean_size"] = perOr0(float64(members), float64(calls))
	return out
}
