package httpapi

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"regexp"
	"strconv"
	"time"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/faultinject"
	"spatialdue/internal/metrics"
	"spatialdue/internal/ndarray/mmapstore"
	"spatialdue/internal/predict"
	"spatialdue/internal/registry"
	"spatialdue/internal/service"
	"spatialdue/internal/trace"
)

// namePattern bounds allocation names (path-segment and metric-label safe).
var namePattern = regexp.MustCompile(`^[A-Za-z0-9._-]{1,128}$`)

func float64Bits(v float64) uint64 { return math.Float64bits(v) }

// parseDType resolves the wire dtype names.
func parseDType(s string) (bitflip.DType, error) {
	switch s {
	case "float32":
		return bitflip.Float32, nil
	case "float64":
		return bitflip.Float64, nil
	default:
		return 0, fmt.Errorf("unknown dtype %q (want float32 or float64)", s)
	}
}

func dtypeName(t bitflip.DType) string {
	if t == bitflip.Float32 {
		return "float32"
	}
	return "float64"
}

// parsePolicy resolves a wire policy into a registry policy.
func parsePolicy(p PolicyInfo) (registry.Policy, error) {
	var pol registry.Policy
	switch {
	case p.Any:
		pol = registry.RecoverAny()
	case p.Method != "":
		m, err := predict.ParseMethod(p.Method)
		if err != nil {
			return pol, err
		}
		pol = registry.RecoverWith(m)
	default:
		return pol, fmt.Errorf("policy: set any=true or a method name")
	}
	if p.Range != nil {
		if !(p.Range.Lo <= p.Range.Hi) {
			return pol, fmt.Errorf("policy range: lo %g > hi %g", p.Range.Lo, p.Range.Hi)
		}
		pol = pol.WithRange(p.Range.Lo, p.Range.Hi)
	}
	return pol, nil
}

func policyInfo(p registry.Policy) PolicyInfo {
	out := PolicyInfo{Any: p.Any}
	if !p.Any {
		out.Method = p.Method.String()
	}
	if p.Range != nil {
		out.Range = &RangeInfo{Lo: p.Range.Lo, Hi: p.Range.Hi}
	}
	return out
}

// allocInfo snapshots one allocation for the wire.
func (s *Server) allocInfo(a *registry.Allocation) AllocationInfo {
	return AllocationInfo{
		ID:          a.ID,
		Name:        a.Name,
		Tenant:      a.Tenant,
		Base:        a.Base,
		Dims:        a.Array.Dims(),
		DType:       dtypeName(a.DType),
		Policy:      policyInfo(a.Policy),
		Elements:    a.Array.Len(),
		SizeBytes:   a.SizeBytes(),
		Quarantined: len(s.eng.Quarantined(a)),
	}
}

// tenantScoped adapts a handler that serves inside the request's tenant:
// the tenant header is resolved and validated, or the request is answered
// 400, before the handler runs or reads any body. The adapters are built
// once, in routes; a request allocates nothing in them.
func (s *Server) tenantScoped(h func(http.ResponseWriter, *http.Request, string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tenant, err := s.tenant(r)
		if err != nil {
			writeBadRequest(w, "%v", err)
			return
		}
		h(w, r, tenant)
	}
}

// allocScoped adapts a handler that serves one allocation: {name} is
// resolved inside the request's tenant, or the request is answered 404
// not_registered. Another tenant's allocation of the same name reads as
// absent.
func (s *Server) allocScoped(h func(http.ResponseWriter, *http.Request, *registry.Allocation)) http.HandlerFunc {
	return s.tenantScoped(func(w http.ResponseWriter, r *http.Request, tenant string) {
		name := r.PathValue("name")
		a, ok := s.eng.Table().ByTenantName(tenant, name)
		if !ok {
			writeError(w, fmt.Errorf("%w: allocation %q in tenant %q", registry.ErrNotRegistered, name, tenant))
			return
		}
		h(w, r, a)
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	st := s.svc.Stats()
	breakers := map[string]string{}
	for name, state := range s.svc.BreakerStates() {
		breakers[name] = state.String()
	}
	rep := ReadyReport{
		Ready:         !s.draining.Load(),
		Draining:      s.draining.Load(),
		QueueDepth:    s.svc.QueueLen(),
		QueueCapacity: s.queueCapacity(),
		Quarantined:   s.eng.QuarantineCount(),
		Breakers:      breakers,
		Recovered:     st.Recovered,
		Failed:        st.Failed,
		Replayed:      st.Replayed,
	}
	status := http.StatusOK
	if !rep.Ready {
		rep.Reason = "draining"
		status = http.StatusServiceUnavailable
	}
	if s.cfg.Cluster != nil {
		cs := s.cfg.Cluster.Status()
		rep.Cluster = &cs
		if cs.Starting() && rep.Ready {
			rep.Ready = false
			rep.Reason = "starting"
			status = http.StatusServiceUnavailable
		}
		if cs.Degraded && rep.Ready {
			// Still serving — promotion means this node IS the shard now —
			// but redundancy is gone, so steer balancers elsewhere.
			rep.Ready = false
			switch {
			case cs.Standby:
				rep.Reason = "cluster degraded: standby behind promoted partner"
			case len(cs.PromotedFor) > 0:
				rep.Reason = fmt.Sprintf("cluster degraded: promoted over %v", cs.PromotedFor)
			default:
				rep.Reason = "cluster degraded: partner unreachable past heartbeat budget"
			}
			status = http.StatusServiceUnavailable
		}
	}
	writeJSON(w, status, rep)
}

// handleClusterStatus reports this node's cluster role. Never forwarded:
// peers probe it to detect promotion, operators to see who owns what.
func (s *Server) handleClusterStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.cfg.Cluster.Status())
}

// queueCapacity reports the configured admission bound (the service
// applies the same default).
func (s *Server) queueCapacity() int {
	if s.cfg.Service.QueueDepth > 0 {
		return s.cfg.Service.QueueDepth
	}
	return 64
}

// WriteMetrics writes the server's whole /metrics page in the Prometheus
// text format: the engine's and the service's families, then the ingestion
// path's, the predictive-health tier's and the cluster's.
func (s *Server) WriteMetrics(w io.Writer) error {
	mw := metrics.NewWriter(w)
	// Each layer writes through mw, which keeps the page's first write error.
	_ = s.eng.WriteMetrics(mw)
	_ = s.svc.WriteMetrics(mw)
	due, _, overflow := s.machine.Stats()
	mw.Counter("spatialdue_http_events_accepted_total", "Events admitted into the recovery pool.", s.evAccepted.Load())
	mw.Counter("spatialdue_http_events_latched_total", "Backpressured events left bank-latched for redelivery.", s.evLatched.Load())
	mw.Counter("spatialdue_http_events_rejected_total", "Events rejected without latching.", s.evRejected.Load())
	mw.Gauge("spatialdue_http_allocations", "Registered allocations.", s.eng.Table().Len())
	mw.Counter("spatialdue_mca_raised_due_total", "DUEs delivered through the simulated MCA.", due)
	mw.Counter("spatialdue_mca_bank_overflows_total", "Bank overflows (events displaced to the redelivery queue).", overflow)
	if s.health != nil {
		_ = s.health.WriteMetrics(mw)
	}
	if s.cfg.Cluster != nil {
		cs := s.cfg.Cluster.Status()
		mw.Gauge("spatialdue_replication_lag_records", "Journal records appended but not yet acknowledged by the partner.", cs.ReplicationLag)
		mw.Gauge("spatialdue_cluster_partner_unreachable", "Partner unreachable past the heartbeat budget (1) or reachable (0).", cs.PartnerDown)
		mw.Gauge("spatialdue_cluster_promoted_shards", "Dead owners whose shards this node has promoted itself over.", len(cs.PromotedFor))
		mw.Gauge("spatialdue_cluster_degraded", "Cluster redundancy lost from this node's perspective.", cs.Degraded)
	}
	return mw.Err()
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request, tenant string) {
	var req RegisterRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeBadRequest(w, "decode register request: %v", err)
		return
	}
	if !namePattern.MatchString(req.Name) {
		writeBadRequest(w, "invalid allocation name %q: want 1-128 chars of [A-Za-z0-9._-]", req.Name)
		return
	}
	if len(req.Dims) == 0 {
		writeBadRequest(w, "dims required")
		return
	}
	dtype, err := parseDType(req.DType)
	if err != nil {
		writeBadRequest(w, "%v", err)
		return
	}
	policy, err := parsePolicy(req.Policy)
	if err != nil {
		writeBadRequest(w, "%v", err)
		return
	}
	els, err := elementCount(req.Dims)
	if err != nil {
		writeBadRequest(w, "%v", err)
		return
	}
	// Cap before allocating: a registration must never materialize storage
	// (heap slice or backing file) larger than the server will accept.
	if max := int(maxBodyBytes / 8); els > max {
		writeBadRequest(w, "allocation of %d elements exceeds the %d-element cap", els, max)
		return
	}
	arr, created, err := s.newFieldArray(tenant, req.Name, req.Dims, els)
	if err != nil {
		writeBadRequest(w, "%v", err)
		return
	}
	a, err := s.eng.ProtectTenant(tenant, req.Name, arr, dtype, policy)
	if err != nil {
		if st, ok := arr.Backing().(*mmapstore.Store); ok {
			// A backing file this registration created must not outlive its
			// failure: a zero-filled orphan would make every later
			// registration of the name with a different shape fail as torn.
			// Exception: losing a duplicate-name race — the path may now
			// belong to the winning live registration, so only unmap. A
			// pre-existing file (remap-on-restart contents, or a collision
			// with the live owner) is likewise only unmapped.
			if created && !errors.Is(err, registry.ErrNameTaken) {
				_ = st.Remove()
			} else {
				_ = st.Close()
			}
		}
		writeError(w, err)
		return
	}
	if s.cfg.Cluster != nil {
		s.cfg.Cluster.AllocRegistered(a)
	}
	writeJSON(w, http.StatusCreated, s.allocInfo(a))
}

func (s *Server) handleListAllocations(w http.ResponseWriter, r *http.Request, tenant string) {
	out := AllocationList{Allocations: []AllocationInfo{}}
	for _, a := range s.eng.Table().TenantAllocations(tenant) {
		out.Allocations = append(out.Allocations, s.allocInfo(a))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGetAllocation(w http.ResponseWriter, r *http.Request, a *registry.Allocation) {
	writeJSON(w, http.StatusOK, s.allocInfo(a))
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request, a *registry.Allocation) {
	// Size gate BEFORE buffering a single byte: the wire format is always 8
	// bytes per element (little-endian float64), so the exact body size is
	// known from the registration. An oversized declared body is 413, an
	// undersized one 400; a chunked body (no Content-Length) is bounded by
	// MaxBytesReader so it can never OOM the server either.
	want := int64(a.Array.Len()) * 8
	if r.ContentLength > want {
		writeErrorDetail(w, ErrorDetail{Code: CodePayloadTooLarge, Message: fmt.Sprintf(
			"field body is %d bytes, allocation %q takes exactly %d (%d elements)",
			r.ContentLength, a.Name, want, a.Array.Len())})
		return
	}
	if r.ContentLength >= 0 && r.ContentLength < want {
		writeBadRequest(w, "field body is %d bytes, allocation %q takes exactly %d (%d elements)",
			r.ContentLength, a.Name, want, a.Array.Len())
		return
	}
	// One upload per field at a time: stripe-wise commits from two
	// concurrent PUTs would interleave into a field that is a mix of both
	// payloads. Recoveries are unaffected — they contend on stripe locks,
	// never on this mutex.
	mu := s.uploadLock(a.ID)
	mu.Lock()
	defer mu.Unlock()

	var body io.Reader
	if r.ContentLength < 0 {
		// Chunked transfer: the body size is unknowable until EOF, so the
		// whole body (bounded by MaxBytesReader) is staged and validated
		// BEFORE the first stripe commits — a wrong-sized chunked body must
		// be rejected without mutating the field. Peak memory is the
		// allocation size, the same bound the declared-length gate enforces.
		staged, err := io.ReadAll(http.MaxBytesReader(w, r.Body, want))
		if err != nil {
			if isBodyTooLarge(err) {
				writeErrorDetail(w, ErrorDetail{Code: CodePayloadTooLarge, Message: fmt.Sprintf(
					"field body exceeds the %d bytes allocation %q takes", want, a.Name)})
				return
			}
			writeBadRequest(w, "read body: %v", err)
			return
		}
		if int64(len(staged)) != want {
			writeBadRequest(w, "field body is %d bytes, allocation %q takes exactly %d (%d elements)",
				len(staged), a.Name, want, a.Array.Len())
			return
		}
		body = bytes.NewReader(staged)
	} else {
		// Declared exact length: the server's body reader ends at
		// Content-Length, so the stripe streamer consumes exactly the field
		// and trailing bytes cannot exist. Stream stripe by stripe: stage
		// each stripe's bytes from the network with no locks held, commit
		// under only that stripe's lock. In-flight recoveries in other
		// stripes keep running; none ever observes a half-written stripe.
		body = http.MaxBytesReader(w, r.Body, want)
	}
	committed, err := ReadField(s.eng, a.Array, body)
	if len(committed) > 0 {
		// The field changed — fully, or partially when the client died
		// mid-body. Either way the live bytes are new: re-snapshot the
		// shared statistics, re-admit repaired cells, drop the cached tuning
		// decisions for exactly the stripes this upload committed (plus one
		// stripe of stencil reach each side — untouched regions keep their
		// decisions), and re-replicate to the partner. Statistics and
		// replica must track the field as it IS, not as the last successful
		// upload left it.
		s.eng.FieldUpdatedStripes(a.Array, committed)
		if s.cfg.Cluster != nil {
			s.cfg.Cluster.FieldUploaded(a)
		}
	}
	if err != nil {
		writeBadRequest(w, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleDownload(w http.ResponseWriter, r *http.Request, a *registry.Allocation) {
	// Sectioned streaming: each stripe is copied out under only its own
	// lock and written with no locks held, so a slow client never blocks
	// recoveries and the server never materializes the whole field.
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(a.Array.Len()*8))
	w.WriteHeader(http.StatusOK)
	_ = WriteField(s.eng, a.Array, w)
}

func (s *Server) handleElement(w http.ResponseWriter, r *http.Request, a *registry.Allocation) {
	off, err := strconv.Atoi(r.URL.Query().Get("offset"))
	if err != nil || off < 0 || off >= a.Array.Len() {
		writeBadRequest(w, "offset must be in [0, %d)", a.Array.Len())
		return
	}
	var v float64
	s.eng.WithArrayLock(a.Array, func() {
		v = a.Array.AtOffset(off)
	})
	st := ElementState{
		Offset:      off,
		Coords:      a.Array.Coords(off),
		ValueBits:   float64Bits(v),
		Addr:        a.AddrOf(off),
		Quarantined: s.eng.IsQuarantined(a, off),
	}
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		st.Value = &v
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleInject(w http.ResponseWriter, r *http.Request, a *registry.Allocation) {
	req := InjectRequest{}
	if r.ContentLength != 0 {
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeBadRequest(w, "decode inject request: %v", err)
			return
		}
	}
	class := faultinject.ClassBit
	if req.Class != "" {
		c, err := faultinject.ParseFaultClass(req.Class)
		if err != nil {
			writeBadRequest(w, "%v", err)
			return
		}
		class = c
	}
	rng := rand.New(rand.NewSource(req.Seed))
	switch class {
	case faultinject.ClassMetadata:
		// Descriptor corruption touches no array cell and plants no MCE:
		// the damage is silent until the next verified lookup detects it
		// and reconstructs the descriptor from parity (or refuses).
		bit := rng.Intn(registry.DescriptorBits)
		if req.Bit != nil {
			bit = *req.Bit
		}
		if err := s.eng.Table().CorruptDescriptor(a.ID, bit); err != nil {
			writeBadRequest(w, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, InjectReport{
			Offset: -1, Bit: bit, Class: class.String(),
		})
		return
	case faultinject.ClassBurst, faultinject.ClassRow, faultinject.ClassColumn:
		// Structured data faults draw their geometry from the seed; Offset
		// and Bit are ignored (the planner owns cell placement).
		inj := faultinject.New(req.Seed, a.DType)
		var trial faultinject.StructuredTrial
		s.eng.WithArrayLock(a.Array, func() {
			trial = inj.PlanOneStructured(a.Array, class, req.Span)
			faultinject.ApplyStructured(a.Array, trial)
		})
		cells := make([]InjectCell, len(trial.Cells))
		for i, c := range trial.Cells {
			addr := a.AddrOf(c.Offset)
			// Each corrupted cell is latent until a demand access for its
			// address discovers it and raises the MCE.
			s.machine.Plant(addr, c.Bit)
			cells[i] = InjectCell{
				Offset: c.Offset, Bit: c.Bit, Addr: addr,
				OrigBits: float64Bits(c.Orig), CorruptedBits: float64Bits(c.Corrupted),
				Orig: c.Orig,
			}
		}
		writeJSON(w, http.StatusOK, InjectReport{
			Offset: cells[0].Offset, Bit: cells[0].Bit, Addr: cells[0].Addr,
			OrigBits: cells[0].OrigBits, CorruptedBits: cells[0].CorruptedBits,
			Orig: cells[0].Orig, Class: class.String(), Cells: cells,
		})
		return
	}
	off := rng.Intn(a.Array.Len())
	if req.Offset != nil {
		off = *req.Offset
	}
	if off < 0 || off >= a.Array.Len() {
		writeBadRequest(w, "offset must be in [0, %d)", a.Array.Len())
		return
	}
	bit := rng.Intn(a.DType.Bits())
	if req.Bit != nil {
		bit = *req.Bit
	}
	if bit < 0 || bit >= a.DType.Bits() {
		writeBadRequest(w, "bit must be in [0, %d)", a.DType.Bits())
		return
	}
	var orig, corrupted float64
	s.eng.WithArrayLock(a.Array, func() {
		orig = a.Array.AtOffset(off)
		corrupted = bitflip.Flip(orig, a.DType, bit)
		a.Array.SetOffset(off, corrupted)
	})
	addr := a.AddrOf(off)
	// The corruption is latent until a demand access (an ingested event
	// for this address) discovers it and raises the MCE.
	s.machine.Plant(addr, bit)
	writeJSON(w, http.StatusOK, InjectReport{
		Offset: off, Bit: bit, Addr: addr,
		OrigBits: float64Bits(orig), CorruptedBits: float64Bits(corrupted),
		Orig: orig, Class: class.String(),
	})
}

func (s *Server) handleRecover(w http.ResponseWriter, r *http.Request, a *registry.Allocation) {
	// Name-addressed recoveries repair through the descriptor's geometry, so
	// parity-verify it first: a silently corrupted Base or DType would
	// misdirect the repair to the wrong physical cell. Reconstructable damage
	// is healed in place; anything worse is refused (422 metadata_corrupt).
	if err := s.eng.Table().VerifyDescriptor(a); err != nil {
		writeError(w, err)
		return
	}
	var req RecoverRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeBadRequest(w, "decode recover request: %v", err)
		return
	}
	if req.Offset < 0 || req.Offset >= a.Array.Len() {
		writeBadRequest(w, "offset must be in [0, %d)", a.Array.Len())
		return
	}
	// Synchronous recoveries are traced too: the handler owns the trace
	// (the engine sees it in the context and leaves finishing to us), so the
	// spans cover exactly the in-engine work this endpoint times.
	tr := trace.New()
	if id, ok := trace.ParseTraceparent(r.Header.Get(TraceparentHeader)); ok {
		tr = trace.WithID(id)
	}
	start := time.Now()
	out, err := s.eng.RecoverElementCtx(trace.NewContext(r.Context(), tr), a, req.Offset)
	s.eng.Tracer().Finish(tr)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, RecoverReport{
		Offset:         out.Offset,
		Method:         out.Method.String(),
		Stage:          out.Stage.String(),
		Tuned:          out.Tuned,
		OldBits:        float64Bits(out.Old),
		New:            out.New,
		ElapsedSeconds: time.Since(start).Seconds(),
		TraceID:        tr.ID(),
	})
}

// ingestOne admits one event: resolve it inside the tenant, raise the MCE,
// and classify the delivery outcome. The MCA keeps undeliverable records
// latched in their banks; the redelivery loop and worker-completion hooks
// re-run them, so "latched" means delayed, never dropped.
//
// traceID, when non-empty (a validated traceparent trace-id), names the
// recovery's trace; otherwise one is minted. The trace is staged on the
// service keyed by faulting address before the MCE is raised, so the
// submission path picks it up even when the event latches and is redelivered
// later — the trace then spans the latched wait too. Terminal rejections
// unstage it.
//
// runHere marks the staging for a single POST /v1/events: when the service
// has a free worker token and an empty queue, the recovery runs on this
// goroutine and its outcome is recorded before ingestOne returns. The
// recovery never sees the request's context, so a client hang-up cannot
// cancel it.
func (s *Server) ingestOne(tenant string, ev EventRequest, traceID string, runHere bool) EventResult {
	reject := func(err error) EventResult {
		s.evRejected.Add(1)
		return EventResult{Status: StatusRejected,
			Error: &ErrorDetail{Code: CodeFor(err), Message: err.Error()}}
	}
	badReq := func(format string, args ...any) EventResult {
		s.evRejected.Add(1)
		return EventResult{Status: StatusRejected,
			Error: &ErrorDetail{Code: CodeBadRequest, Message: fmt.Sprintf(format, args...)}}
	}
	if s.draining.Load() {
		return reject(fmt.Errorf("%w: draining", service.ErrStopped))
	}
	if ev.Kind != "" && ev.Kind != EventKindDUE && ev.Kind != EventKindCE {
		return badReq("unknown event kind %q (want %q or %q)", ev.Kind, EventKindDUE, EventKindCE)
	}

	var addr uint64
	var size int
	switch {
	case ev.Alloc != "":
		a, ok := s.eng.Table().ByTenantName(tenant, ev.Alloc)
		if !ok {
			return reject(fmt.Errorf("%w: allocation %q in tenant %q", registry.ErrNotRegistered, ev.Alloc, tenant))
		}
		if ev.Offset == nil {
			return badReq("alloc events need an offset")
		}
		if *ev.Offset < 0 || *ev.Offset >= a.Array.Len() {
			return badReq("offset must be in [0, %d)", a.Array.Len())
		}
		addr, size = a.AddrOf(*ev.Offset), a.DType.Size()
	case ev.Addr != 0:
		a, _, err := s.eng.Table().Lookup(ev.Addr)
		if err != nil || a.Tenant != tenant {
			// An address outside the tenant's allocations reads as
			// unregistered: tenants cannot probe each other's memory map.
			return reject(fmt.Errorf("%w: %#x in tenant %q", registry.ErrNotRegistered, ev.Addr, tenant))
		}
		addr, size = ev.Addr, a.DType.Size()
	default:
		return badReq("event needs addr or alloc+offset")
	}

	// A corrected error carries intact data: no recovery is admitted, the
	// observation feeds the predictive-health tier (which may act on it —
	// scrub, replicate, or migrate — via the machine's CE observer).
	if ev.Kind == EventKindCE {
		s.machine.RaiseMemoryCEAt(addr, ev.Bit)
		s.evAccepted.Add(1)
		return EventResult{Status: StatusAccepted}
	}

	// Stage the trace before raising: the MCA delivery path cannot carry
	// it, so the service claims it by address at submission time. A single
	// event's staging also carries the run-here mark, cleared once the
	// raise returns, so only this delivery may run on this goroutine.
	tr := trace.WithID(traceID)
	s.svc.StageTrace(addr, tr, runHere)

	// A planted latent fault at this address is discovered by the access
	// (Plant + Touch, the injector path); otherwise the event is an
	// externally reported DUE and is raised directly.
	faulted, err := s.machine.Touch(addr, size)
	if !faulted {
		err = s.machine.RaiseMemoryDUE(addr, ev.Bit)
	}
	if runHere {
		s.svc.EndRunHere(addr, tr)
	}
	switch {
	case err == nil:
		s.evAccepted.Add(1)
		return EventResult{Status: StatusAccepted, TraceID: tr.ID()}
	case errors.Is(err, service.ErrOverloaded), errors.Is(err, service.ErrCircuitOpen):
		// Delivery failed but the record is latched in its bank; the
		// server redelivers once capacity frees (or the breaker admits a
		// probe). The client must not resend. The trace stays staged so the
		// redelivered submission claims it — its queue span covers the
		// latched wait.
		s.evLatched.Add(1)
		return EventResult{Status: StatusLatched, TraceID: tr.ID(),
			Error: &ErrorDetail{Code: CodeFor(err), Message: err.Error(), Latched: true}}
	default:
		s.svc.UnstageTrace(addr)
		return reject(err)
	}
}

func (s *Server) handleEvent(w http.ResponseWriter, r *http.Request, tenant string) {
	bp := getBuf()
	ev, err := decodeEventBody(r.Body, bp)
	if err != nil {
		putBuf(bp)
		writeBadRequest(w, "decode event: %v", err)
		return
	}
	tid, _ := trace.ParseTraceparent(r.Header.Get(TraceparentHeader))
	res := s.ingestOne(tenant, ev, tid, true)
	status := http.StatusAccepted
	if res.Status != StatusAccepted {
		// EventResult serializes its ErrorDetail under the same "error" key
		// as ErrorBody, so clients decoding the error envelope still work
		// while latched responses additionally carry status and trace_id.
		var retry bool
		status, retry = StatusFor(res.Error.Code)
		if retry {
			w.Header().Set("Retry-After", "1")
		}
	}
	*bp = append(res.AppendJSON((*bp)[:0], false), '\n')
	writeBody(w, status, bp)
}

// decodeEventBody decodes the first JSON value of body into an event as
// json.Decoder does: leading whitespace is skipped and bytes past the value
// are never read. A body that ends within the buffer's capacity, in the
// shape EventRequest.AppendJSON writes, takes a fast path.
func decodeEventBody(body io.Reader, bp *[]byte) (EventRequest, error) {
	buf, err := fill(body, *bp)
	*bp = buf
	if err == io.EOF {
		if ev, _, ok := decodeEventRequestFast(buf); ok {
			return ev, nil
		}
	}
	// The decoder reads what fill read, then the rest of body: the same
	// stream. A request body's errors are sticky (http.MaxBytesReader), so
	// an error fill met is met again at the same point.
	var ev EventRequest
	err = json.NewDecoder(io.MultiReader(bytes.NewReader(buf), body)).Decode(&ev)
	return ev, err
}

// fill reads r into buf's spare capacity until EOF, an error, or a full
// buffer (err nil: more may follow).
func fill(r io.Reader, buf []byte) ([]byte, error) {
	for len(buf) < cap(buf) {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// streamWindow is the NDJSON ingest window: events are parsed and admitted
// in runs of this many lines before their results are encoded and flushed.
// Back-to-back admission packs a storm's events into the recovery queue
// together, which is what lets the service workers drain them into
// coalesced RecoverBatch calls instead of interleaving one event per
// worker wakeup.
const streamWindow = 64

// handleEventStream ingests an NDJSON batch: one EventRequest per line in,
// one EventResult per line out, in order. Lines are admitted in
// streamWindow-sized windows — all submissions for a window happen before
// any of its results are written — so a same-array storm lands in the
// recovery queue as one contiguous run. Per-event backpressure is reported
// inline instead of failing the stream.
func (s *Server) handleEventStream(w http.ResponseWriter, r *http.Request, tenant string) {
	// Results are flushed window by window while later lines are still
	// unread; without full duplex the HTTP/1 server discards the rest of
	// the body at the first flush and batches past one window lose lines.
	// An error only means a wrapped writer cannot switch modes; the stream
	// is then served as it was before.
	_ = http.NewResponseController(w).EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	lines, out := getBuf(), getBuf()
	defer putBuf(lines)
	defer putBuf(out)
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(*lines, 1<<20)
	n := 0
	window := make([]EventResult, 0, streamWindow)
	emit := func() {
		buf := (*out)[:0]
		for i := range window {
			buf = append(window[i].AppendJSON(buf, true), '\n')
		}
		*out = buf
		_, _ = w.Write(buf) // a failed write means the client went away
		window = window[:0]
		if flusher != nil {
			flusher.Flush()
		}
	}
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var res EventResult
		if ev, err := decodeEventRequest(line); err != nil {
			s.evRejected.Add(1)
			res = EventResult{Status: StatusRejected,
				Error: &ErrorDetail{Code: CodeBadRequest, Message: fmt.Sprintf("line %d: %v", n+1, err)}}
		} else {
			// Stream lines carry no per-event traceparent; IDs are minted.
			// They are queued, never run here, so a window's lines reach
			// the workers together and coalesce into batches.
			res = s.ingestOne(tenant, ev, "", false)
		}
		window = append(window, res)
		n++
		if len(window) == streamWindow {
			emit()
		}
	}
	emit()
}

func (s *Server) handleOutcomes(w http.ResponseWriter, r *http.Request, tenant string) {
	q := r.URL.Query()
	var since uint64
	if v := q.Get("since"); v != "" {
		var err error
		since, err = strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeBadRequest(w, "since: %v", err)
			return
		}
	}
	limit := 0
	if v := q.Get("limit"); v != "" {
		var err error
		limit, err = strconv.Atoi(v)
		if err != nil {
			writeBadRequest(w, "limit: %v", err)
			return
		}
	}
	page := s.outcomes.page(since, tenant, q.Get("alloc"), limit)
	bp := getBuf()
	*bp = append(page.AppendJSON(*bp, false), '\n')
	writeBody(w, http.StatusOK, bp)
}

func (s *Server) handleQuarantine(w http.ResponseWriter, r *http.Request, tenant string) {
	rep := QuarantineReport{Allocations: map[string][]int{}}
	for _, a := range s.eng.Table().TenantAllocations(tenant) {
		offs := s.eng.Quarantined(a)
		if len(offs) > 0 {
			rep.Allocations[a.Name] = offs
			rep.Total += len(offs)
		}
	}
	writeJSON(w, http.StatusOK, rep)
}

// handleHealth serves GET /v1/health: the predictive memory-health tier's
// report — per-bank risk scores and tiers, proactively offlined rows,
// executed action counts, and the advisory checkpoint interval. With the
// predictor disabled the report is {"enabled": false}. Bank state is
// machine-wide (banks interleave every tenant's allocations); the offlined
// rows' allocation names are filtered to the requesting tenant.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request, tenant string) {
	if s.health == nil {
		writeJSON(w, http.StatusOK, HealthReport{})
		return
	}
	topo := s.machine.Topology()
	rep := HealthReport{
		Enabled:                   true,
		Observations:              s.health.Predictor().Total(),
		CheckpointIntervalSeconds: s.health.CheckpointInterval(),
		ShadowElements:            s.health.ShadowSize(),
		Topology:                  &TopologyInfo{Banks: topo.Banks, RowBytes: topo.RowBytes, ColBytes: topo.ColBytes},
	}
	for _, b := range s.health.Predictor().Report() {
		rep.Banks = append(rep.Banks, HealthBank{
			Bank: b.Bank, Risk: b.Risk, Tier: b.Tier.String(),
			WindowCEs: b.WindowCEs, DistinctBits: b.DistinctBits,
			DistinctRows: b.DistinctRows, FirstSeq: b.FirstSeq, LastSeq: b.LastSeq,
		})
	}
	for _, o := range s.health.OfflinedRows() {
		row := HealthOfflinedRow{Bank: o.Bank, Row: o.Row, Seq: o.Seq, Elements: o.Elements}
		for _, qn := range o.Allocs {
			t, name := splitQualified(qn)
			if t == tenant {
				row.Allocs = append(row.Allocs, name)
			}
		}
		rep.OfflinedRows = append(rep.OfflinedRows, row)
	}
	if counts := s.health.ActionCounts(); len(counts) > 0 {
		rep.Actions = make(map[string]int, len(counts))
		for k, v := range counts {
			rep.Actions[string(k)] = v
		}
	}
	writeJSON(w, http.StatusOK, rep)
}

// handleTraces serves the slowest retained recovery traces, filtered to the
// requesting tenant. Synchronous recoveries (POST .../recover) are stamped
// with the allocation's tenant, so they appear here too; engine-internal
// traces with no tenant (FTI repair sweeps) are only visible to the default
// tenant.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request, tenant string) {
	col := s.eng.Tracer()
	rep := TracesReport{TotalCollected: col.Finished(), Traces: []trace.Summary{}}
	for _, sum := range col.Top() {
		owner := sum.Tenant
		if owner == "" {
			owner = DefaultTenant
		}
		if owner == tenant {
			rep.Traces = append(rep.Traces, sum)
		}
	}
	writeJSON(w, http.StatusOK, rep)
}

// handleSpatialAnalytics serves GET /v1/analytics/spatial: per-allocation
// spatial error analytics — global Moran's I / Geary's C over per-stripe
// recovery-error intensity plus each stripe's local Getis-Ord G* z-score and
// hot/cold classification — for every tenant allocation with recorded
// recoveries, alongside the engine-wide tune-cache counters the hot-spot
// feedback drives. An allocation with no recoveries yet is omitted (its
// statistics are all undefined).
func (s *Server) handleSpatialAnalytics(w http.ResponseWriter, r *http.Request, tenant string) {
	rep := SpatialAnalyticsReport{Allocations: []SpatialAllocReport{}}
	for _, a := range s.eng.Table().TenantAllocations(tenant) {
		sr := s.eng.SpatialReport(a.Array)
		if sr.Recoveries == 0 {
			continue
		}
		rep.Allocations = append(rep.Allocations, SpatialAllocReport{Alloc: a.Name, Report: sr})
	}
	tc := s.eng.TuneCacheCounters()
	rep.TuneCache = TuneCacheInfo{
		Hits:          tc.Hits + tc.Coalesced,
		Misses:        tc.Misses,
		Invalidations: tc.Invalidations,
		Expiries:      tc.Expiries,
		Corrections:   tc.Corrections,
	}
	writeJSON(w, http.StatusOK, rep)
}

// handleUnregister deletes an allocation: unregisters it from the tenant
// namespace and drops the engine's per-array caches, stripe locks, and
// shared statistics (the state-leak fix — before Unprotect existed these
// grew forever). Refused with 409 while recoveries hold the array's
// stripes; the client retries after in-flight work drains.
func (s *Server) handleUnregister(w http.ResponseWriter, r *http.Request, a *registry.Allocation) {
	if err := s.eng.Unprotect(a); err != nil {
		writeError(w, err)
		return
	}
	// A file-backed field is unmapped and its backing file deleted: the
	// registration is gone, so remap-on-restart must not resurrect it.
	if st, ok := a.Array.Backing().(*mmapstore.Store); ok {
		_ = st.Remove()
	}
	// Drop the allocation's breaker so a future allocation reusing the name
	// starts with a closed circuit, and its upload mutex (IDs are never
	// reused, so the entry is dead weight).
	s.svc.ForgetBreaker(a.QualifiedName())
	s.uploads.Delete(a.ID)
	if s.cfg.Cluster != nil {
		s.cfg.Cluster.AllocUnregistered(a.Tenant, a.Name)
	}
	w.WriteHeader(http.StatusNoContent)
}
