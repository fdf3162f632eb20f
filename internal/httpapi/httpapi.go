// Package httpapi exposes the recovery pipeline over HTTP/JSON — the
// fleet-facing front end of the system. Remote nodes register their
// protected allocations into per-tenant registry namespaces, upload field
// data, and stream DUE/MCE events at the server; events flow through the
// simulated machine-check architecture into the resilient recovery service
// (admission control, write-ahead journal, bounded worker pool, circuit
// breakers) exactly as local submissions do, and recovery outcomes are
// queryable per tenant.
//
// Backpressure maps onto HTTP semantics:
//
//   - service.ErrOverloaded        → 429 Too Many Requests + Retry-After;
//     the event record stays latched in its MCA bank and is redelivered
//     server-side once a worker frees capacity — a 429 means "delivered
//     late", never "dropped";
//   - service.ErrCircuitOpen       → 503 + code "circuit_open";
//   - core.ErrCheckpointRestartRequired → 503 + code
//     "checkpoint_restart_required";
//   - registry.ErrNotRegistered    → 404 + code "not_registered";
//   - core.ErrVerifyFailed         → 422 + code "verify_failed";
//   - core.ErrRecoveryAbandoned    → 504 + code "recovery_abandoned".
//
// Every error response carries a machine-readable JSON body that the typed
// client SDK (internal/httpapi/client) maps back to the originating Go
// sentinel, so errors.Is works identically in-process and across the wire.
package httpapi

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"

	"spatialdue/internal/core"
	"spatialdue/internal/jsonwire"
	"spatialdue/internal/predict"
	"spatialdue/internal/predictor"
	"spatialdue/internal/spatial"
	"spatialdue/internal/trace"
)

// TraceparentHeader is the W3C trace-context request header. When an event
// ingest (POST /v1/events) or synchronous recovery carries one, the recovery
// adopts its 32-hex trace-id; otherwise the server mints an ID. Either way
// the ID is echoed in EventResult, the outcome feed, and GET /v1/traces.
const TraceparentHeader = "traceparent"

// Tenant scoping: every /v1 request is resolved inside one registry
// namespace, selected by the TenantHeader request header (DefaultTenant
// when absent). Allocations registered by one tenant are invisible — by
// name and by address — to every other tenant.
const (
	// TenantHeader is the request header carrying the tenant namespace.
	TenantHeader = "X-Tenant"
	// DefaultTenant is used when the header is absent.
	DefaultTenant = "default"
)

// RangeInfo is the wire form of a registry.ValueRange.
type RangeInfo struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// PolicyInfo is the wire form of a recovery policy.
type PolicyInfo struct {
	// Any selects RECOVER_ANY (local auto-tuning at recovery time).
	Any bool `json:"any,omitempty"`
	// Method is the fixed method's figure name when Any is false
	// (e.g. "Lorenzo 1-Layer").
	Method string `json:"method,omitempty"`
	// Range bounds physically plausible values, when known.
	Range *RangeInfo `json:"range,omitempty"`
}

// RegisterRequest registers an allocation into the caller's tenant
// namespace (POST /v1/allocations).
type RegisterRequest struct {
	Name   string     `json:"name"`
	Dims   []int      `json:"dims"`
	DType  string     `json:"dtype"` // "float32" | "float64"
	Policy PolicyInfo `json:"policy"`
}

// AllocationInfo describes one registered allocation.
type AllocationInfo struct {
	ID          int        `json:"id"`
	Name        string     `json:"name"`
	Tenant      string     `json:"tenant,omitempty"`
	Base        uint64     `json:"base"`
	Dims        []int      `json:"dims"`
	DType       string     `json:"dtype"`
	Policy      PolicyInfo `json:"policy"`
	Elements    int        `json:"elements"`
	SizeBytes   uint64     `json:"size_bytes"`
	Quarantined int        `json:"quarantined"`
}

// AllocationList is the GET /v1/allocations response.
type AllocationList struct {
	Allocations []AllocationInfo `json:"allocations"`
}

// EventRequest.Kind values.
const (
	// EventKindDUE (also the "" default) reports an uncorrectable error: the
	// element's data is lost and a recovery is admitted.
	EventKindDUE = "due"
	// EventKindCE reports a corrected error: the data is intact, no recovery
	// runs, and the observation feeds the predictive memory-health tier
	// (GET /v1/health).
	EventKindCE = "ce"
)

// EventRequest reports one DUE/MCE. Either Addr (the faulting simulated
// physical address, as an MCA bank would report it) or Alloc+Offset (a
// detector that localized corruption without an address) identifies the
// lost element.
type EventRequest struct {
	// Kind is the event class: "" or "due" (default), or "ce".
	Kind   string `json:"kind,omitempty"`
	Addr   uint64 `json:"addr,omitempty"`
	Alloc  string `json:"alloc,omitempty"`
	Offset *int   `json:"offset,omitempty"`
	// Bit is the flipped bit index when known. For DUEs it is forensics
	// only; for CEs it is the corrected bit position feeding the
	// predictor's bit fan-out feature (pass -1 when unknown).
	Bit int `json:"bit,omitempty"`
}

// AppendJSON appends ev as encoding/json writes it with HTML escaping on or
// off.
func (ev *EventRequest) AppendJSON(dst []byte, escapeHTML bool) []byte {
	// Every member is omitempty: each is written after a comma, and the
	// first comma becomes the opening brace.
	mark := len(dst)
	if ev.Kind != "" {
		dst = jsonwire.AppendString(append(dst, `,"kind":`...), ev.Kind, escapeHTML)
	}
	if ev.Addr != 0 {
		dst = strconv.AppendUint(append(dst, `,"addr":`...), ev.Addr, 10)
	}
	if ev.Alloc != "" {
		dst = jsonwire.AppendString(append(dst, `,"alloc":`...), ev.Alloc, escapeHTML)
	}
	if ev.Offset != nil {
		dst = strconv.AppendInt(append(dst, `,"offset":`...), int64(*ev.Offset), 10)
	}
	if ev.Bit != 0 {
		dst = strconv.AppendInt(append(dst, `,"bit":`...), int64(ev.Bit), 10)
	}
	if len(dst) == mark {
		return append(dst, "{}"...)
	}
	dst[mark] = '{'
	return append(dst, '}')
}

// decodeEventRequest decodes one event as json.Unmarshal does into a zero
// EventRequest. The shape AppendJSON writes takes a fast path; anything
// else takes json.Unmarshal.
func decodeEventRequest(data []byte) (EventRequest, error) {
	if ev, rest, ok := decodeEventRequestFast(data); ok && jsonwire.Space(rest) {
		return ev, nil
	}
	var ev EventRequest
	err := json.Unmarshal(data, &ev)
	return ev, err
}

var eventRequestKeys = []string{"kind", "addr", "alloc", "offset", "bit"}

// decodeEventRequestFast decodes the event at the head of b in the shape
// AppendJSON writes, returning what follows it.
func decodeEventRequestFast(b []byte) (ev EventRequest, rest []byte, ok bool) {
	rest, ok = jsonwire.Members(b, eventRequestKeys, func(k int, b []byte) (rest []byte, ok bool) {
		switch eventRequestKeys[k] {
		case "kind":
			ev.Kind, rest, ok = jsonwire.StringValue(b, EventKindDUE, EventKindCE)
		case "addr":
			ev.Addr, rest, ok = jsonwire.Uint(b)
		case "alloc":
			ev.Alloc, rest, ok = jsonwire.StringValue(b)
		case "offset":
			var off int
			off, rest, ok = jsonwire.Int(b)
			ev.Offset = &off
		case "bit":
			ev.Bit, rest, ok = jsonwire.Int(b)
		}
		return rest, ok
	})
	return ev, rest, ok
}

// Event ingestion statuses.
const (
	// StatusAccepted: the event was admitted into the recovery pool.
	StatusAccepted = "accepted"
	// StatusLatched: admission was rejected (overload / open breaker) but
	// the record remains latched in its MCA bank; the server redelivers it
	// once capacity frees. The caller must NOT resend.
	StatusLatched = "latched"
	// StatusRejected: the event was not accepted and will not be retried
	// server-side (unregistered address, malformed request, draining).
	StatusRejected = "rejected"
)

var statuses = []string{StatusAccepted, StatusLatched, StatusRejected}

// EventResult reports the admission outcome of one event.
type EventResult struct {
	Status string       `json:"status"`
	Error  *ErrorDetail `json:"error,omitempty"`
	// TraceID identifies the recovery's trace (from the request's
	// traceparent header, or server-minted). Empty on rejections that never
	// reached admission.
	TraceID string `json:"trace_id,omitempty"`
}

// AppendJSON appends res as encoding/json writes it with HTML escaping on
// or off.
func (res *EventResult) AppendJSON(dst []byte, escapeHTML bool) []byte {
	dst = jsonwire.AppendString(append(dst, `{"status":`...), res.Status, escapeHTML)
	if res.Error != nil {
		dst = res.Error.appendJSON(append(dst, `,"error":`...), escapeHTML)
	}
	if res.TraceID != "" {
		dst = jsonwire.AppendString(append(dst, `,"trace_id":`...), res.TraceID, escapeHTML)
	}
	return append(dst, '}')
}

// DecodeEventResult decodes one result as json.Unmarshal does into a zero
// EventResult. The shape AppendJSON writes, with trailing whitespace, takes
// a fast path; anything else takes json.Unmarshal.
func DecodeEventResult(data []byte) (EventResult, error) {
	if res, ok := decodeEventResultFast(data); ok {
		return res, nil
	}
	var res EventResult
	err := json.Unmarshal(data, &res)
	return res, err
}

// decodeEventResultFast is DecodeEventResult's fast path.
func decodeEventResultFast(data []byte) (res EventResult, ok bool) {
	rest, ok := jsonwire.Members(data, eventResultKeys, func(k int, b []byte) (rest []byte, ok bool) {
		switch eventResultKeys[k] {
		case "status":
			res.Status, rest, ok = jsonwire.StringValue(b, statuses...)
		case "error":
			res.Error = new(ErrorDetail)
			rest, ok = res.Error.decodeFast(b)
		case "trace_id":
			res.TraceID, rest, ok = jsonwire.StringValue(b)
		}
		return rest, ok
	})
	return res, ok && jsonwire.Space(rest)
}

var eventResultKeys = []string{"status", "error", "trace_id"}

// InjectRequest corrupts one element of an allocation in place and plants
// the fault in the simulated memory (POST /v1/allocations/{name}/inject) —
// the load-generation and test harness path; a deployment would disable it.
type InjectRequest struct {
	// Offset picks the element (nil → random). Only class "" / "bit" honors
	// it; burst/row/column draw their geometry from Seed and metadata has no
	// array cell.
	Offset *int `json:"offset,omitempty"`
	// Bit picks the flipped bit for class "bit" (nil → random over the
	// dtype's width) or the descriptor bit for class "metadata"; ignored by
	// the other classes.
	Bit *int `json:"bit,omitempty"`
	// Seed makes random choices deterministic.
	Seed int64 `json:"seed,omitempty"`
	// Class selects the fault shape: "" or "bit" (one flipped bit, the
	// default), "burst" (adjacent bits within one word), "row" (a contiguous
	// stride-aligned span of elements), "column" (one offset in every
	// dim-0 row), or "metadata" (the allocation's descriptor, not its data).
	Class string `json:"class,omitempty"`
	// Span shapes structured classes: burst width in bits, or row span in
	// elements (0 → the class default).
	Span int `json:"span,omitempty"`
}

// InjectCell is one corrupted element of a structured fault.
type InjectCell struct {
	Offset int    `json:"offset"`
	Bit    int    `json:"bit"`
	Addr   uint64 `json:"addr"`
	// OrigBits/CorruptedBits are IEEE-754 bit patterns (a corrupted value
	// is frequently NaN/Inf, which JSON numbers cannot carry).
	OrigBits      uint64  `json:"orig_valbits"`
	CorruptedBits uint64  `json:"corrupted_valbits"`
	Orig          float64 `json:"orig"`
}

// InjectReport describes the planted fault. The flat fields mirror the
// first (or only) corrupted cell; Cells carries every cell of a structured
// fault. Metadata faults corrupt the allocation descriptor instead of array
// data: Cells is empty and Bit is the descriptor bit flipped.
type InjectReport struct {
	Offset int    `json:"offset"`
	Bit    int    `json:"bit"`
	Addr   uint64 `json:"addr"`
	// OrigBits/CorruptedBits are IEEE-754 bit patterns (a corrupted value
	// is frequently NaN/Inf, which JSON numbers cannot carry).
	OrigBits      uint64  `json:"orig_valbits"`
	CorruptedBits uint64  `json:"corrupted_valbits"`
	Orig          float64 `json:"orig"`
	// Class echoes the fault shape ("bit" when the request left it empty).
	Class string `json:"class,omitempty"`
	// Cells lists every corrupted element (len > 1 for row/column faults).
	Cells []InjectCell `json:"cells,omitempty"`
}

// RecoverRequest runs one synchronous recovery
// (POST /v1/allocations/{name}/recover).
type RecoverRequest struct {
	Offset int `json:"offset"`
}

// RecoverReport describes a completed synchronous recovery.
type RecoverReport struct {
	Offset         int     `json:"offset"`
	Method         string  `json:"method"`
	Stage          string  `json:"stage"`
	Tuned          bool    `json:"tuned"`
	OldBits        uint64  `json:"old_valbits"`
	New            float64 `json:"new"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	TraceID        string  `json:"trace_id,omitempty"`
}

// ElementState reports one element (GET /v1/allocations/{name}/element).
type ElementState struct {
	Offset int   `json:"offset"`
	Coords []int `json:"coords"`
	// ValueBits is always present; Value only when the stored value is
	// finite (JSON cannot represent NaN/Inf).
	ValueBits   uint64   `json:"valbits"`
	Value       *float64 `json:"value,omitempty"`
	Quarantined bool     `json:"quarantined"`
	Addr        uint64   `json:"addr"`
}

// OutcomeRecord is one finished recovery, as reported by the outcome feed
// (GET /v1/outcomes). Seq is a monotone cursor: poll with since=<last
// Next> to stream.
//
// NewBits is always on the wire; New only when it is finite (JSON cannot
// represent NaN/Inf), and a decoder without new takes New from NewBits.
type OutcomeRecord struct {
	Seq      uint64  `json:"seq"`
	Tenant   string  `json:"tenant,omitempty"`
	Alloc    string  `json:"alloc"`
	Offset   int     `json:"offset"`
	Addr     uint64  `json:"addr,omitempty"`
	OK       bool    `json:"ok"`
	Error    string  `json:"error,omitempty"`
	Code     string  `json:"code,omitempty"` // machine-readable failure reason
	Method   string  `json:"method,omitempty"`
	Stage    string  `json:"stage,omitempty"`
	Tuned    bool    `json:"tuned,omitempty"`
	OldBits  uint64  `json:"old_valbits"`
	New      float64 `json:"new"`
	NewBits  uint64  `json:"new_valbits"`
	Attempts int     `json:"attempts"`
	Replayed bool    `json:"replayed,omitempty"`
	Probe    bool    `json:"probe,omitempty"`
	TraceID  string  `json:"trace_id,omitempty"`
	UnixNano int64   `json:"unix_nano"`
}

// UnmarshalJSON implements json.Unmarshaler: a record without new takes
// New from new_valbits.
func (r *OutcomeRecord) UnmarshalJSON(b []byte) error {
	type plain OutcomeRecord // the fields without this method
	var w struct {
		plain
		New *float64 `json:"new"`
	}
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*r = OutcomeRecord(w.plain)
	r.New = math.Float64frombits(r.NewBits)
	if w.New != nil {
		r.New = *w.New
	}
	return nil
}

// appendJSON appends r as encoding/json writes it with HTML escaping on or
// off. A non-finite New, which encoding/json refuses, is left out.
func (r *OutcomeRecord) appendJSON(dst []byte, escapeHTML bool) []byte {
	dst = strconv.AppendUint(append(dst, `{"seq":`...), r.Seq, 10)
	if r.Tenant != "" {
		dst = jsonwire.AppendString(append(dst, `,"tenant":`...), r.Tenant, escapeHTML)
	}
	dst = jsonwire.AppendString(append(dst, `,"alloc":`...), r.Alloc, escapeHTML)
	dst = strconv.AppendInt(append(dst, `,"offset":`...), int64(r.Offset), 10)
	if r.Addr != 0 {
		dst = strconv.AppendUint(append(dst, `,"addr":`...), r.Addr, 10)
	}
	dst = strconv.AppendBool(append(dst, `,"ok":`...), r.OK)
	if r.Error != "" {
		dst = jsonwire.AppendString(append(dst, `,"error":`...), r.Error, escapeHTML)
	}
	if r.Code != "" {
		dst = jsonwire.AppendString(append(dst, `,"code":`...), r.Code, escapeHTML)
	}
	if r.Method != "" {
		dst = jsonwire.AppendString(append(dst, `,"method":`...), r.Method, escapeHTML)
	}
	if r.Stage != "" {
		dst = jsonwire.AppendString(append(dst, `,"stage":`...), r.Stage, escapeHTML)
	}
	if r.Tuned {
		dst = append(dst, `,"tuned":true`...)
	}
	dst = strconv.AppendUint(append(dst, `,"old_valbits":`...), r.OldBits, 10)
	if !math.IsNaN(r.New) && !math.IsInf(r.New, 0) {
		dst = jsonwire.AppendFloat(append(dst, `,"new":`...), r.New)
	}
	dst = strconv.AppendUint(append(dst, `,"new_valbits":`...), r.NewBits, 10)
	dst = strconv.AppendInt(append(dst, `,"attempts":`...), int64(r.Attempts), 10)
	if r.Replayed {
		dst = append(dst, `,"replayed":true`...)
	}
	if r.Probe {
		dst = append(dst, `,"probe":true`...)
	}
	if r.TraceID != "" {
		dst = jsonwire.AppendString(append(dst, `,"trace_id":`...), r.TraceID, escapeHTML)
	}
	dst = strconv.AppendInt(append(dst, `,"unix_nano":`...), r.UnixNano, 10)
	return append(dst, '}')
}

var outcomeKeys = []string{"seq", "tenant", "alloc", "offset", "addr", "ok", "error", "code",
	"method", "stage", "tuned", "old_valbits", "new", "new_valbits", "attempts", "replayed",
	"probe", "trace_id", "unix_nano"}

// The closed vocabularies of a record's method and stage, decoded to these
// strings without allocating.
var methodNames, stageNames = func() (methods, stages []string) {
	for m := predict.MethodZero; m <= predict.MethodLorenzoAuto; m++ {
		methods = append(methods, m.String())
	}
	for s := core.StagePrimary; s <= core.StageOfflined; s++ {
		stages = append(stages, s.String())
	}
	return methods, append(stages, string(predictor.ActionPageOfflined))
}()

// decodeOutcomeFast decodes the record at the head of b in the shape
// appendJSON writes, returning what follows it. A tenant or alloc equal to
// prev's reuses prev's string: a page is mostly one allocation's records.
func decodeOutcomeFast(b []byte, prev *OutcomeRecord) (r OutcomeRecord, rest []byte, ok bool) {
	hasNew := false
	rest, ok = jsonwire.Members(b, outcomeKeys, func(k int, b []byte) (rest []byte, ok bool) {
		switch outcomeKeys[k] {
		case "seq":
			r.Seq, rest, ok = jsonwire.Uint(b)
		case "tenant":
			r.Tenant, rest, ok = jsonwire.StringValue(b, prev.Tenant)
		case "alloc":
			r.Alloc, rest, ok = jsonwire.StringValue(b, prev.Alloc)
		case "offset":
			r.Offset, rest, ok = jsonwire.Int(b)
		case "addr":
			r.Addr, rest, ok = jsonwire.Uint(b)
		case "ok":
			r.OK, rest, ok = jsonwire.Bool(b)
		case "error":
			r.Error, rest, ok = jsonwire.StringValue(b)
		case "code":
			r.Code, rest, ok = jsonwire.StringValue(b, codes...)
		case "method":
			r.Method, rest, ok = jsonwire.StringValue(b, methodNames...)
		case "stage":
			r.Stage, rest, ok = jsonwire.StringValue(b, stageNames...)
		case "tuned":
			r.Tuned, rest, ok = jsonwire.Bool(b)
		case "old_valbits":
			r.OldBits, rest, ok = jsonwire.Uint(b)
		case "new":
			r.New, rest, ok = jsonwire.Float(b)
			hasNew = true
		case "new_valbits":
			r.NewBits, rest, ok = jsonwire.Uint(b)
		case "attempts":
			r.Attempts, rest, ok = jsonwire.Int(b)
		case "replayed":
			r.Replayed, rest, ok = jsonwire.Bool(b)
		case "probe":
			r.Probe, rest, ok = jsonwire.Bool(b)
		case "trace_id":
			r.TraceID, rest, ok = jsonwire.StringValue(b)
		case "unix_nano":
			r.UnixNano, rest, ok = jsonwire.Int64(b)
		}
		return rest, ok
	})
	if !hasNew {
		r.New = math.Float64frombits(r.NewBits)
	}
	return r, rest, ok
}

// OutcomesPage is one page of the outcome feed.
type OutcomesPage struct {
	// Next is the cursor for the following poll (pass as since=).
	Next uint64 `json:"next"`
	// Dropped is true when the requested cursor fell off the bounded ring
	// (the caller polled too slowly and missed records).
	Dropped  bool            `json:"dropped,omitempty"`
	Outcomes []OutcomeRecord `json:"outcomes"`
}

// AppendJSON appends p as encoding/json writes it with HTML escaping on or
// off, except that a record's non-finite New, which encoding/json refuses,
// is left out (its bits are in new_valbits).
func (p *OutcomesPage) AppendJSON(dst []byte, escapeHTML bool) []byte {
	dst = strconv.AppendUint(append(dst, `{"next":`...), p.Next, 10)
	if p.Dropped {
		dst = append(dst, `,"dropped":true`...)
	}
	if p.Outcomes == nil {
		return append(dst, `,"outcomes":null}`...)
	}
	dst = append(dst, `,"outcomes":[`...)
	for i := range p.Outcomes {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = p.Outcomes[i].appendJSON(dst, escapeHTML)
	}
	return append(dst, "]}"...)
}

// DecodeOutcomesPage decodes one page as json.Unmarshal does into a zero
// OutcomesPage. The shape AppendJSON writes, with trailing whitespace, takes
// a fast path; anything else takes json.Unmarshal.
func DecodeOutcomesPage(data []byte) (OutcomesPage, error) {
	if p, ok := decodeOutcomesPageFast(data); ok {
		return p, nil
	}
	var p OutcomesPage
	err := json.Unmarshal(data, &p)
	return p, err
}

// decodeOutcomesPageFast is DecodeOutcomesPage's fast path.
func decodeOutcomesPageFast(data []byte) (p OutcomesPage, ok bool) {
	rest, ok := jsonwire.Members(data, pageKeys, func(k int, b []byte) (rest []byte, ok bool) {
		switch pageKeys[k] {
		case "next":
			p.Next, rest, ok = jsonwire.Uint(b)
		case "dropped":
			p.Dropped, rest, ok = jsonwire.Bool(b)
		case "outcomes":
			if jsonwire.HasPrefix(b, "null") {
				return b[len("null"):], true
			}
			// Every record starts with this key, which no string can hold
			// unescaped: the count sizes the slice in one allocation.
			p.Outcomes = make([]OutcomeRecord, 0, bytes.Count(b, []byte(`{"seq":`)))
			prev := &OutcomeRecord{}
			rest, ok = jsonwire.Elements(b, func(b []byte) (rest []byte, ok bool) {
				var r OutcomeRecord
				r, rest, ok = decodeOutcomeFast(b, prev)
				p.Outcomes = append(p.Outcomes, r)
				prev = &p.Outcomes[len(p.Outcomes)-1]
				return rest, ok
			})
		}
		return rest, ok
	})
	return p, ok && jsonwire.Space(rest)
}

var pageKeys = []string{"next", "dropped", "outcomes"}

// QuarantineReport lists the tenant's quarantined (corrupt, unrepaired)
// elements (GET /v1/quarantine).
type QuarantineReport struct {
	Total       int              `json:"total"`
	Allocations map[string][]int `json:"allocations,omitempty"`
}

// TopologyInfo is the server's DRAM address topology — what a client needs
// to map allocation addresses onto the banks the health report scores.
type TopologyInfo struct {
	Banks    int `json:"banks"`
	RowBytes int `json:"row_bytes"`
	ColBytes int `json:"col_bytes"`
}

// HealthBank is one bank's predictive-health summary.
type HealthBank struct {
	Bank int     `json:"bank"`
	Risk float64 `json:"risk"`
	Tier string  `json:"tier"`
	// WindowCEs, DistinctBits, DistinctRows summarize the scoring window:
	// CE count, distinct corrected bit positions, distinct rows touched.
	WindowCEs    int    `json:"window_ces"`
	DistinctBits int    `json:"distinct_bits"`
	DistinctRows int    `json:"distinct_rows"`
	FirstSeq     uint64 `json:"first_seq,omitempty"`
	LastSeq      uint64 `json:"last_seq,omitempty"`
}

// HealthOfflinedRow is one proactively migrated and retired DRAM row.
type HealthOfflinedRow struct {
	Bank int    `json:"bank"`
	Row  int    `json:"row"`
	Seq  uint64 `json:"seq"`
	// Elements is how many allocation elements were migrated into the
	// shadow before the row was retired.
	Elements int `json:"elements"`
	// Allocs names the affected allocations owned by the requesting tenant
	// (other tenants' allocations are counted in Elements but not named).
	Allocs []string `json:"allocs,omitempty"`
}

// HealthReport is the GET /v1/health payload: the predictive memory-health
// tier's view of the machine. Enabled is false (and everything else empty)
// when the server runs without the predictor.
type HealthReport struct {
	Enabled      bool         `json:"enabled"`
	Observations uint64       `json:"observations,omitempty"`
	Banks        []HealthBank `json:"banks,omitempty"`
	// OfflinedRows lists proactive row migrations, oldest first.
	OfflinedRows []HealthOfflinedRow `json:"offlined_rows,omitempty"`
	// Actions counts executed proactive responses by kind (scrub,
	// ckpt_shrink, replicate, page_offlined, shadow_restore).
	Actions map[string]int `json:"actions,omitempty"`
	// CheckpointIntervalSeconds is the advisory recomputed Young interval
	// (0 = no bank has reached the elevated tier; run at baseline).
	CheckpointIntervalSeconds float64 `json:"checkpoint_interval_seconds,omitempty"`
	// ShadowElements is how many migrated elements the shadow holds.
	ShadowElements int           `json:"shadow_elements,omitempty"`
	Topology       *TopologyInfo `json:"topology,omitempty"`
}

// SpatialAllocReport is one allocation's spatial-autocorrelation analytics:
// global Moran's I / Geary's C over per-stripe error intensity, plus every
// stripe's aggregates, local Getis-Ord G* z-score, and hot/cold
// classification.
type SpatialAllocReport struct {
	Alloc string `json:"alloc"`
	spatial.Report
}

// TuneCacheInfo summarizes the engine's tune-cache counters. The counters
// are engine-wide (one cache per protected array, summed), mirroring the
// spatialdue_tune_cache_* metrics.
type TuneCacheInfo struct {
	// Hits counts cached decisions served (including coalesced waits on an
	// in-flight tuner run); Misses counts tuner runs.
	Hits   int `json:"hits"`
	Misses int `json:"misses"`
	// Invalidations counts cached decisions dropped by field uploads (full
	// or stripe-granular); Expiries counts hot-spot TTL age-outs;
	// Corrections counts stale decisions replaced after a verification
	// failure exposed them.
	Invalidations int `json:"invalidations"`
	Expiries      int `json:"expiries"`
	Corrections   int `json:"corrections"`
}

// SpatialAnalyticsReport is the GET /v1/analytics/spatial payload: spatial
// error analytics for every tenant allocation with at least one recorded
// recovery, plus the engine-wide tune-cache counters the analytics feed.
type SpatialAnalyticsReport struct {
	Allocations []SpatialAllocReport `json:"allocations"`
	TuneCache   TuneCacheInfo        `json:"tune_cache"`
}

// TracesReport is the GET /v1/traces payload: the slowest retained traces
// visible to the requesting tenant, slowest first, plus how many traces
// have been collected in total (across all tenants — a collector-wide
// counter, useful to spot sampling).
type TracesReport struct {
	TotalCollected uint64          `json:"total_collected"`
	Traces         []trace.Summary `json:"traces"`
}

// ReadyReport is the /readyz payload: admission capacity, quarantine and
// breaker state. Served with 200 when ready, 503 when draining.
type ReadyReport struct {
	Ready         bool              `json:"ready"`
	Reason        string            `json:"reason,omitempty"`
	Draining      bool              `json:"draining"`
	QueueDepth    int               `json:"queue_depth"`
	QueueCapacity int               `json:"queue_capacity"`
	Quarantined   int               `json:"quarantined"`
	Breakers      map[string]string `json:"breakers,omitempty"`
	Recovered     uint64            `json:"recovered"`
	Failed        uint64            `json:"failed"`
	Replayed      uint64            `json:"replayed,omitempty"`
	// Cluster is the node's cluster role, present only in cluster mode. A
	// degraded cluster (partner unreachable past the heartbeat budget, or
	// this node promoted/standby) flips the report to 503 so load balancers
	// prefer healthy nodes — the node itself keeps serving.
	Cluster *ClusterStatus `json:"cluster,omitempty"`
}
