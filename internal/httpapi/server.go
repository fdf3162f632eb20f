package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spatialdue/internal/core"
	"spatialdue/internal/mca"
	"spatialdue/internal/metrics"
	"spatialdue/internal/predictor"
	"spatialdue/internal/registry"
	"spatialdue/internal/service"
)

// ServerConfig parameterizes a Server. Zero values select the documented
// defaults.
type ServerConfig struct {
	// Service configures the underlying recovery service (recovery tokens,
	// admission bound, deadlines, breakers, journal). OnOutcome is chained:
	// the server's outcome feed sees every result, then the caller's hook.
	Service service.Config
	// Banks is the simulated MCA bank count for the ingestion path
	// (default 8). More banks latch more backpressured events before
	// overflow spills to the redelivery queue; none are ever dropped.
	Banks int
	// RedeliverEvery is the period of the background loop that redelivers
	// bank-latched events when the service has capacity (default 25ms;
	// negative disables, leaving redelivery to recovery-token releases).
	RedeliverEvery time.Duration
	// EnableInject exposes POST /v1/allocations/{name}/inject — the fault
	// injection endpoint the load generator and tests drive. Off by
	// default: a production deployment must not let clients corrupt state.
	EnableInject bool
	// Cluster, when set, puts the server in cluster mode: /v1 requests for
	// tenants this node does not own are 307-redirected to the shard owner,
	// registrations/uploads/unregistrations replicate to the partner, and
	// GET /v1/cluster/status plus replication metrics are exposed.
	Cluster Cluster
	// Predictor turns on the predictive memory-health tier, with the
	// predictor package's thresholds and costs. The server decodes every
	// corrected error into bank/row coordinates, scores per-bank failure
	// risk, and executes the tiered action matrix (scrub, checkpoint shrink
	// + re-replication, proactive row migration); GET /v1/health and the
	// spatialdue_predictor_* metrics expose the state. In cluster mode the
	// elevated tier's re-replication is wired to the partner sink.
	Predictor bool
	// FieldStore selects the storage backing for fields registered through
	// the API: "heap" (default) keeps today's Go slices; "mmap" backs each
	// field with a file under DataDir/fields/<tenant>/<name>.field, mapped
	// into memory — uploads/downloads stream per stripe, cold tenants page
	// out, and re-registering after a restart remaps the persisted file.
	FieldStore string
	// DataDir is where the mmap field store keeps its backing files.
	// Required when FieldStore is "mmap"; ignored for "heap".
	DataDir string
}

const (
	// outcomeBuffer is how many finished recoveries the outcome feed keeps.
	// It decides only how far a poller may fall behind before it sees
	// Dropped, and the memory held (192 B a record, grown on demand);
	// storing and polling cost the same at any size.
	outcomeBuffer = 4096
	// maxBodyBytes caps request bodies, notably field uploads, and so the
	// size of a registration.
	maxBodyBytes = 256 << 20
)

// DrainTimeout bounds each stage of graceful shutdown: HTTP in-flight drain,
// latched-event settling, and the service drain (and, on a cluster node,
// replication's delivery of what the drain journaled).
const DrainTimeout = 30 * time.Second

// Server is the networked recovery front end. Create with NewServer, serve
// with Run (graceful) or mount it as an http.Handler, and stop with Close.
type Server struct {
	cfg      ServerConfig
	eng      *core.Engine
	svc      *service.Service
	machine  *mca.Machine
	health   *predictor.Manager // nil unless cfg.Predictor
	outcomes *outcomeRing
	mux      *http.ServeMux

	draining atomic.Bool
	stopTick chan struct{}
	tickDone chan struct{}

	// runMu guards hs, the http.Server of the Run in progress, against
	// Abort, which closes abort and then hs.
	runMu sync.Mutex
	hs    *http.Server
	abort chan struct{}

	// uploads holds one mutex per allocation ID (see uploadLock): field
	// uploads serialize per allocation so concurrent PUTs cannot commit an
	// interleaved stripe-wise mix of two payloads.
	uploads sync.Map

	// ingestion counters (Prometheus: spatialdue_http_events_*_total)
	evAccepted, evLatched, evRejected atomic.Uint64
}

// NewServer builds the full pipeline behind one HTTP surface: a recovery
// service over eng (created from cfg.Service and started), a simulated MCA
// whose banks latch backpressured events, and the background redelivery
// loop. Register allocations that must replay journal intents before
// calling (same contract as service.New).
func NewServer(eng *core.Engine, cfg ServerConfig) (*Server, error) {
	if eng == nil {
		return nil, fmt.Errorf("httpapi: nil engine")
	}
	if cfg.Banks <= 0 {
		cfg.Banks = 8
	}
	if cfg.RedeliverEvery == 0 {
		cfg.RedeliverEvery = 25 * time.Millisecond
	}
	switch cfg.FieldStore {
	case "", FieldStoreHeap:
		cfg.FieldStore = FieldStoreHeap
	case FieldStoreMmap:
		if cfg.DataDir == "" {
			return nil, fmt.Errorf("httpapi: FieldStore %q requires DataDir", cfg.FieldStore)
		}
	default:
		return nil, fmt.Errorf("httpapi: unknown FieldStore %q (want %q or %q)",
			cfg.FieldStore, FieldStoreHeap, FieldStoreMmap)
	}

	s := &Server{
		cfg:      cfg,
		eng:      eng,
		outcomes: newOutcomeRing(outcomeBuffer),
		stopTick: make(chan struct{}),
		tickDone: make(chan struct{}),
		abort:    make(chan struct{}),
	}
	userHook := cfg.Service.OnOutcome
	cfg.Service.OnOutcome = func(res service.Result) {
		s.outcomes.add(recordFromResult(res))
		if userHook != nil {
			userHook(res)
		}
	}

	// The machine exists before the service so the predictor's migration
	// shadow can be installed as the service's ShadowSource.
	s.machine = mca.New(cfg.Banks)
	topo := mca.DefaultTopology
	topo.Banks = cfg.Banks
	s.machine.SetTopology(topo)
	if cfg.Predictor {
		var replicate func(*registry.Allocation, []float64)
		if cfg.Cluster != nil {
			// The cluster captures its own stripe-consistent snapshot;
			// the predictor's vals argument is the same live array.
			replicate = func(a *registry.Allocation, _ []float64) {
				cfg.Cluster.FieldUploaded(a)
			}
		}
		mgr, err := predictor.NewManager(predictor.ManagerConfig{
			Machine:   s.machine,
			Engine:    eng,
			Replicate: replicate,
			OnAction:  s.onHealthAction,
		})
		if err != nil {
			return nil, err
		}
		s.health = mgr
		s.machine.SetCEObserver(mgr.Observe)
		// DUEs landing on proactively offlined rows are served bit-exactly
		// from the migration shadow instead of running the prediction ladder.
		cfg.Service.Shadow = mgr
	}

	svc, err := service.New(eng, cfg.Service)
	if err != nil {
		return nil, err
	}
	s.svc = svc
	svc.AttachMCA(s.machine)
	svc.Start()
	s.routes()

	go s.redeliverLoop()
	return s, nil
}

// Service exposes the underlying recovery service (stats, breaker state).
func (s *Server) Service() *service.Service { return s.svc }

// Machine exposes the ingestion MCA (latched-bank inspection in tests).
func (s *Server) Machine() *mca.Machine { return s.machine }

// Engine exposes the recovery engine the server fronts.
func (s *Server) Engine() *core.Engine { return s.eng }

// Health exposes the predictive-health manager (nil when disabled).
func (s *Server) Health() *predictor.Manager { return s.health }

// onHealthAction feeds executed predictive-health actions into the outcome
// feed: a proactive row migration surfaces as one page_offlined record per
// owning allocation, so feed consumers see mitigations interleaved with the
// recoveries they preempted.
func (s *Server) onHealthAction(a predictor.Action) {
	if a.Kind != predictor.ActionPageOfflined {
		return
	}
	lo, _ := s.machine.Topology().RowSpan(a.Bank, a.Row)
	now := time.Now().UnixNano()
	if len(a.Allocs) == 0 {
		s.outcomes.add(OutcomeRecord{Offset: -1, Addr: lo, OK: true,
			Stage: string(predictor.ActionPageOfflined), UnixNano: now})
		return
	}
	for _, qn := range a.Allocs {
		tenant, name := splitQualified(qn)
		s.outcomes.add(OutcomeRecord{Tenant: tenant, Alloc: name, Offset: -1,
			Addr: lo, OK: true, Stage: string(predictor.ActionPageOfflined), UnixNano: now})
	}
}

// splitQualified splits a registry qualified name ("tenant/name" or bare).
func splitQualified(qn string) (tenant, name string) {
	if i := strings.IndexByte(qn, '/'); i >= 0 {
		return qn[:i], qn[i+1:]
	}
	return "", qn
}

// redeliverLoop periodically pulls backpressured events out of their
// latched banks while the service has capacity. Every recovery-token
// release also triggers redelivery; this loop covers the idle case (e.g.
// the last release came while another redelivery was running, or a breaker
// half-opened with no traffic to carry the probe).
func (s *Server) redeliverLoop() {
	defer close(s.tickDone)
	if s.cfg.RedeliverEvery < 0 {
		return
	}
	t := time.NewTicker(s.cfg.RedeliverEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stopTick:
			return
		case <-t.C:
			if len(s.machine.LatchedBanks()) > 0 || s.machine.PendingOverflow() > 0 {
				s.machine.RedeliverLatched()
			}
		}
	}
}

// routes wires the endpoint table.
func (s *Server) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.Handle("GET /metrics", metrics.Handler(s.WriteMetrics))

	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)

	tenant, alloc := s.tenantScoped, s.allocScoped
	mux.HandleFunc("POST /v1/allocations", tenant(s.handleRegister))
	mux.HandleFunc("GET /v1/allocations", tenant(s.handleListAllocations))
	mux.HandleFunc("GET /v1/allocations/{name}", alloc(s.handleGetAllocation))
	mux.HandleFunc("DELETE /v1/allocations/{name}", alloc(s.handleUnregister))
	mux.HandleFunc("PUT /v1/allocations/{name}/data", alloc(s.handleUpload))
	mux.HandleFunc("GET /v1/allocations/{name}/data", alloc(s.handleDownload))
	mux.HandleFunc("GET /v1/allocations/{name}/element", alloc(s.handleElement))
	mux.HandleFunc("POST /v1/allocations/{name}/recover", alloc(s.handleRecover))
	if s.cfg.EnableInject {
		mux.HandleFunc("POST /v1/allocations/{name}/inject", alloc(s.handleInject))
	}
	mux.HandleFunc("POST /v1/events", tenant(s.handleEvent))
	mux.HandleFunc("POST /v1/events/stream", tenant(s.handleEventStream))
	mux.HandleFunc("GET /v1/outcomes", tenant(s.handleOutcomes))
	mux.HandleFunc("GET /v1/quarantine", tenant(s.handleQuarantine))
	mux.HandleFunc("GET /v1/health", tenant(s.handleHealth))
	mux.HandleFunc("GET /v1/traces", tenant(s.handleTraces))
	mux.HandleFunc("GET /v1/analytics/spatial", tenant(s.handleSpatialAnalytics))
	if s.cfg.Cluster != nil {
		mux.HandleFunc("GET /v1/cluster/status", s.handleClusterStatus)
	}
	s.mux = mux
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if s.forward(w, r) {
		return
	}
	s.mux.ServeHTTP(w, r)
}

// Forwarded reports whether a cluster node shard-routes requests for the
// URL path: every /v1 route but the cluster status. The SDK's owner hint
// applies to exactly these routes.
func Forwarded(path string) bool {
	return strings.HasPrefix(path, "/v1/") && path != "/v1/cluster/status"
}

// forward applies shard routing in cluster mode: a /v1 request for a tenant
// another node owns is answered with 307 to that node (tenant and trace
// headers travel with the redirect — the SDK re-asserts them), incrementing
// ForwardHopsHeader; a chain past MaxForwardHops means the membership maps
// disagree and is refused with 508 forward_loop. Reports whether it wrote
// the response. Cluster status is always answered locally — it is how peers
// and operators ask "who do YOU think you are".
func (s *Server) forward(w http.ResponseWriter, r *http.Request) bool {
	if s.cfg.Cluster == nil || !Forwarded(r.URL.Path) {
		return false
	}
	tenant, err := s.tenant(r)
	if err != nil {
		return false // the handler reports the malformed header
	}
	target, local := s.cfg.Cluster.Route(tenant)
	if local {
		return false
	}
	hops := 0
	if h := r.Header.Get(ForwardHopsHeader); h != "" {
		hops, _ = strconv.Atoi(h)
	}
	if hops >= MaxForwardHops {
		writeError(w, fmt.Errorf("%w: tenant %q still not owned after %d hops",
			ErrForwardLoop, tenant, hops))
		return true
	}
	w.Header().Set(ForwardHopsHeader, strconv.Itoa(hops+1))
	w.Header().Set("Location", strings.TrimSuffix(target, "/")+r.URL.RequestURI())
	w.WriteHeader(http.StatusTemporaryRedirect)
	return true
}

// Run serves on l until ctx is cancelled, then shuts down in strict order:
//
//  1. the listener stops accepting, connections that never sent a request
//     close, and in-flight requests drain (bounded by DrainTimeout);
//     /readyz flips to 503 immediately so load balancers stop routing
//     here;
//  2. bank-latched events get a bounded time to redeliver and recover
//     (backpressured-at-burst means delivered-late, not lost);
//  3. the recovery service drains: admitted recoveries complete, their
//     journal outcomes are written, and the journal closes.
//
// A journaled intent therefore always reaches its outcome record before
// Run returns, or — if the process is killed mid-drain — replays on the
// next start. Abort ends Run at once instead.
func (s *Server) Run(ctx context.Context, l net.Listener) error {
	return s.RunHandler(ctx, l, s)
}

// RunHandler is Run serving h instead of s: h fronts the server (a cluster
// node holds every route behind its start-up probe) and hands its requests
// on to s. The stop sequence is Run's.
func (s *Server) RunHandler(ctx context.Context, l net.Listener, h http.Handler) error {
	var silent silentConns
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, ConnState: silent.track}
	s.runMu.Lock()
	if s.aborted() {
		s.runMu.Unlock()
		_ = l.Close()
		return nil
	}
	s.hs = hs
	s.runMu.Unlock()
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(l) }()

	select {
	case err := <-serveErr:
		if s.aborted() {
			return nil
		}
		// The listener failed on its own; still tear the pipeline down.
		cerr := s.Close(context.Background())
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return cerr
	case <-s.abort:
		<-serveErr // Abort closed hs
		return nil
	case <-ctx.Done():
	}

	s.draining.Store(true)
	silent.closeAll()
	shCtx, cancel := context.WithTimeout(context.Background(), DrainTimeout)
	defer cancel()
	err := hs.Shutdown(shCtx)
	<-serveErr // Serve has returned ErrServerClosed
	if s.aborted() {
		return nil
	}
	if cerr := s.Close(shCtx); err == nil {
		err = cerr
	}
	return err
}

// Abort stops serving at once, as a crash would: Run's listener and every
// connection close, in-flight requests included, and Run returns nil
// without settling latched events or draining the service. A Run not yet
// started returns at once. Kill the service first to drop its admitted
// recoveries too.
func (s *Server) Abort() {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	if s.aborted() {
		return
	}
	close(s.abort)
	if s.hs != nil {
		_ = s.hs.Close()
	}
}

// aborted reports whether Abort has been called.
func (s *Server) aborted() bool {
	select {
	case <-s.abort:
		return true
	default:
		return false
	}
}

// silentConns tracks the connections that have not sent a request yet.
// http.Server.Shutdown counts such a connection as idle only after 5 s, so a
// graceful stop would wait that long for every connection a client dialled
// and never used; Run closes them itself once draining starts.
type silentConns struct {
	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	draining bool
}

// track is the http.Server's ConnState hook.
func (sc *silentConns) track(c net.Conn, st http.ConnState) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	switch {
	case st != http.StateNew:
		delete(sc.conns, c)
	case sc.draining:
		c.Close()
	default:
		if sc.conns == nil {
			sc.conns = map[net.Conn]struct{}{}
		}
		sc.conns[c] = struct{}{}
	}
}

// closeAll closes every connection still silent, and from now on every new
// one as it arrives.
func (sc *silentConns) closeAll() {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.draining = true
	for c := range sc.conns {
		c.Close()
	}
	clear(sc.conns)
}

// Close stops the background redelivery loop, lets latched events
// redeliver (each recovers on the goroutine delivering it), and drains the
// recovery service. Safe to call once, after
// which submissions fail with service.ErrStopped.
func (s *Server) Close(ctx context.Context) error {
	s.draining.Store(true)
	select {
	case <-s.stopTick:
	default:
		close(s.stopTick)
	}
	<-s.tickDone
	// Settle: redeliver latched/overflowed events while the service still
	// accepts work, so backpressured events become journaled recoveries
	// instead of dying with the banks.
	for {
		if len(s.machine.LatchedBanks()) == 0 && s.machine.PendingOverflow() == 0 {
			break
		}
		s.machine.RedeliverLatched()
		if len(s.machine.LatchedBanks()) == 0 && s.machine.PendingOverflow() == 0 {
			break
		}
		select {
		case <-ctx.Done():
			// Latched events that never found capacity stay behind —
			// the bounded-drain contract; the client already saw 429/latched.
			return s.svc.Drain(ctx)
		case <-time.After(2 * time.Millisecond):
		}
	}
	return s.svc.Drain(ctx)
}

// tenantPattern bounds tenant names: short, path/metric-safe labels.
var tenantPattern = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// tenant resolves the request's namespace.
func (s *Server) tenant(r *http.Request) (string, error) {
	t := r.Header.Get(TenantHeader)
	if t == "" {
		return DefaultTenant, nil
	}
	if !tenantPattern.MatchString(t) {
		return "", fmt.Errorf("invalid %s %q: want 1-64 chars of [A-Za-z0-9._-]", TenantHeader, t)
	}
	return t, nil
}

// writeJSON writes one JSON response, encoded before the status is sent: a
// value that fails to encode is answered with 500 and the internal error
// envelope, never with a success status and an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	bp := getBuf()
	buf := bytes.NewBuffer(*bp)
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		buf.Reset()
		status = http.StatusInternalServerError
		_ = enc.Encode(ErrorBody{Error: ErrorDetail{Code: CodeInternal,
			Message: fmt.Sprintf("encode response: %v", err)}})
	}
	*bp = buf.Bytes()
	writeBody(w, status, bp)
}

// writeBody writes one JSON response already encoded into a buffer from
// getBuf, and recycles the buffer.
func writeBody(w http.ResponseWriter, status int, body *[]byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(*body) // a failed write means the client went away
	putBuf(body)
}

// bodyBufs recycles the buffers responses are encoded into and small
// request bodies are read into.
var bodyBufs = sync.Pool{New: func() any {
	buf := make([]byte, 0, 4<<10)
	return &buf
}}

// getBuf returns an empty buffer from bodyBufs.
func getBuf() *[]byte {
	bp := bodyBufs.Get().(*[]byte)
	*bp = (*bp)[:0]
	return bp
}

// putBuf returns a buffer to bodyBufs, unless it grew past what is worth
// keeping.
func putBuf(bp *[]byte) {
	if cap(*bp) <= 1<<20 {
		bodyBufs.Put(bp)
	}
}

// writeError maps err onto the wire: status from the error table, JSON
// body with the machine-readable code, Retry-After where the table says
// the condition is transient.
func writeError(w http.ResponseWriter, err error) {
	writeErrorDetail(w, ErrorDetail{Code: CodeFor(err), Message: err.Error()})
}

// writeBadRequest reports a malformed request (no sentinel round-trip).
func writeBadRequest(w http.ResponseWriter, format string, args ...any) {
	writeErrorDetail(w, ErrorDetail{Code: CodeBadRequest, Message: fmt.Sprintf(format, args...)})
}

func writeErrorDetail(w http.ResponseWriter, det ErrorDetail) {
	status, retry := StatusFor(det.Code)
	if retry {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, ErrorBody{Error: det})
}

// recordFromResult converts a service result into a feed record.
func recordFromResult(res service.Result) OutcomeRecord {
	rec := OutcomeRecord{
		Tenant:   res.Tenant,
		Alloc:    res.Alloc,
		Offset:   res.Offset,
		Addr:     res.Addr,
		Attempts: res.Attempts,
		Replayed: res.Replayed,
		Probe:    res.Probe,
		TraceID:  res.TraceID,
		UnixNano: time.Now().UnixNano(),
	}
	if res.Err != nil {
		rec.Error = res.Err.Error()
		rec.Code = CodeFor(res.Err)
		return rec
	}
	rec.OK = true
	rec.Method = res.Outcome.Method.String()
	rec.Stage = res.Outcome.Stage.String()
	rec.Tuned = res.Outcome.Tuned
	rec.OldBits = float64Bits(res.Outcome.Old)
	rec.New = res.Outcome.New
	rec.NewBits = float64Bits(res.Outcome.New)
	return rec
}
