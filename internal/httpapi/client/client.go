// Package client is the typed Go SDK for the spatialdue recovery server
// (internal/httpapi). It speaks the /v1 JSON protocol, maps error responses
// back to the originating Go sentinels (errors.Is(err,
// service.ErrOverloaded) works across the wire), and retries
// backpressured idempotent calls honoring the server's Retry-After hint.
//
// Event ingestion is deliberately NOT auto-retried: a "latched" rejection
// means the server kept the event bank-latched and redelivers it itself —
// resending would duplicate the DUE.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spatialdue/internal/httpapi"
)

// ErrForwardLoop re-exports the shard-forwarding loop sentinel: returned
// (via errors.Is) when a redirect chain exceeds httpapi.MaxForwardHops,
// whether the loop was cut client-side by the redirect policy or
// server-side as 508 forward_loop.
var ErrForwardLoop = httpapi.ErrForwardLoop

// Config tunes a Client. The zero value plus a BaseURL is usable.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Tenant is sent as the X-Tenant header ("default" when empty).
	Tenant string
	// HTTPClient overrides http.DefaultClient.
	HTTPClient *http.Client
	// MaxRetries bounds retries of backpressured idempotent calls
	// (default 3; negative disables).
	MaxRetries int
	// Backoff is the base delay between retries when the server sent no
	// Retry-After hint (default 50ms, doubled per attempt with jitter).
	Backoff time.Duration
}

// Client is a typed client for one recovery server.
//
// In a cluster the client remembers where its tenant lives: the base URL a
// followed 307 landed on becomes the owner hint, and later /v1 calls go
// there directly (see send). Node-local routes (/metrics, /readyz,
// /healthz) and the cluster status always go to BaseURL.
type Client struct {
	cfg   Config
	hc    *http.Client
	owner atomic.Pointer[string] // owner hint; nil sends to BaseURL
}

// New returns a Client for the server at cfg.BaseURL.
func New(cfg Config) *Client {
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = http.DefaultClient
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 3
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 50 * time.Millisecond
	}
	// Shallow-copy the HTTP client (sharing its transport and connection
	// pool) to install the shard-forwarding redirect policy without
	// mutating the caller's client.
	hc := *cfg.HTTPClient
	hc.CheckRedirect = followForward
	return &Client{cfg: cfg, hc: &hc}
}

// followForward is the redirect policy for cluster shard forwarding: a 307
// from a non-owning node is followed to the shard owner with the tenant,
// trace, and content-type headers of the original request re-asserted (Go
// strips some headers on cross-host redirects), and the server's hop
// counter carried forward so both ends can cut routing loops. Chains past
// httpapi.MaxForwardHops fail with ErrForwardLoop.
func followForward(req *http.Request, via []*http.Request) error {
	if len(via) > httpapi.MaxForwardHops {
		return fmt.Errorf("%w: gave up after %d redirects", httpapi.ErrForwardLoop, len(via))
	}
	for _, h := range []string{httpapi.TenantHeader, httpapi.TraceparentHeader, "Content-Type"} {
		if v := via[0].Header.Get(h); v != "" && req.Header.Get(h) == "" {
			req.Header.Set(h, v)
		}
	}
	if resp := req.Response; resp != nil {
		if v := resp.Header.Get(httpapi.ForwardHopsHeader); v != "" {
			req.Header.Set(httpapi.ForwardHopsHeader, v)
		}
	}
	return nil
}

// retryable marks calls that are safe to repeat after a backpressure
// response: the server either did not perform them (429 admission) or
// performing them twice is idempotent.
type callOpts struct {
	retryable   bool
	contentType string
	// traceparent, when non-empty, is sent as the W3C trace-context header
	// so the server adopts the caller's trace-id for the recovery.
	traceparent string
	// field, when non-nil, is the request body in place of the JSON bytes: a
	// field encoded as it is sent. Like the bytes it can be sent again from
	// byte 0, for a retry after backpressure or a followed 307.
	field []float64
}

// decodeError turns a non-2xx response into an *httpapi.Error.
func decodeError(resp *http.Response, body []byte) error {
	e := &httpapi.Error{Status: resp.StatusCode, Code: httpapi.CodeInternal}
	var eb httpapi.ErrorBody
	if err := json.Unmarshal(body, &eb); err == nil && eb.Error.Code != "" {
		e.Code = eb.Error.Code
		e.Message = eb.Error.Message
		e.Latched = eb.Error.Latched
	} else {
		e.Message = string(bytes.TrimSpace(body))
	}
	// Latched event responses carry the recovery's trace_id alongside the
	// error envelope; surface it so callers can follow the trace later.
	var tid struct {
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal(body, &tid); err == nil {
		e.TraceID = tid.TraceID
	}
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
			e.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return e
}

// do runs one request, retrying per opts, and decodes the response into out:
// *[]float64 takes a field body, *[]byte the raw bytes, anything else JSON
// (skipped when out is nil).
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any, opts callOpts) error {
	attempts := c.cfg.MaxRetries
	if !opts.retryable || attempts < 0 {
		attempts = 0
	}
	var lastErr error
	for try := 0; ; try++ {
		err := c.once(ctx, method, path, body, out, opts)
		if err == nil {
			return nil
		}
		lastErr = err
		apiErr, ok := err.(*httpapi.Error)
		if !ok || try >= attempts {
			return lastErr
		}
		// Only backpressure responses carry Retry-After; anything else is
		// deterministic and not worth repeating.
		if apiErr.RetryAfter <= 0 && apiErr.Status != http.StatusTooManyRequests {
			return lastErr
		}
		delay := apiErr.RetryAfter
		if delay <= 0 {
			delay = c.cfg.Backoff << uint(try)
		}
		// Full jitter desynchronizes a fleet of clients hammering one
		// overloaded server.
		delay = time.Duration(rand.Int63n(int64(delay) + 1))
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(delay):
		}
	}
}

func (c *Client) once(ctx context.Context, method, path string, body []byte, out any, opts callOpts) error {
	resp, err := c.send(ctx, method, path, body, opts)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		envelope, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		return decodeError(resp, envelope)
	}
	if vals, ok := out.(*[]float64); ok {
		if *vals, err = readField(resp.Body, resp.ContentLength); err != nil {
			return fmt.Errorf("client: %s %s: %w", method, path, err)
		}
		return nil
	}
	if raw, ok := out.(*[]byte); ok {
		*raw, err = io.ReadAll(resp.Body)
		return err
	}
	// The body is read into a recycled buffer: every decoder copies what it
	// keeps.
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer bodyBufs.Put(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if err := decode(buf.Bytes(), out); err != nil {
		return fmt.Errorf("client: decode %s %s response: %w", method, path, err)
	}
	return nil
}

// send issues one request and returns its response. Every call goes
// through here: it picks the node (the owner hint for a forwarded route,
// BaseURL otherwise), sets the headers, and keeps the hint current from
// how the call went. It never sends a request twice.
func (c *Client) send(ctx context.Context, method, path string, body []byte, opts callOpts) (*http.Response, error) {
	route, _, _ := strings.Cut(path, "?")
	base, fwd := c.cfg.BaseURL, httpapi.Forwarded(route)
	if fwd {
		if h := c.owner.Load(); h != nil {
			base = *h
		}
	}
	var rd io.Reader
	switch {
	case opts.field != nil:
		rd = &fieldEncoder{vals: opts.field}
	case body != nil:
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
	if err != nil {
		return nil, err
	}
	if opts.field != nil {
		// What NewRequest does for a bytes.Reader: a declared length keeps the
		// upload on the server's stripe-streaming path, and GetBody lets the
		// transport follow a 307 to the shard owner with the whole body.
		req.ContentLength = 8 * int64(len(opts.field))
		req.GetBody = func() (io.ReadCloser, error) {
			return io.NopCloser(&fieldEncoder{vals: opts.field}), nil
		}
	}
	if c.cfg.Tenant != "" {
		req.Header.Set(httpapi.TenantHeader, c.cfg.Tenant)
	}
	ct := opts.contentType
	if ct == "" && body != nil {
		ct = "application/json"
	}
	if ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	if opts.traceparent != "" {
		req.Header.Set(httpapi.TraceparentHeader, opts.traceparent)
	}
	resp, err := c.hc.Do(req)
	if fwd {
		c.track(req, resp, err, path)
	}
	return resp, err
}

// track updates the owner hint after a forwarded call. A transport error
// (which includes the redirect policy's ErrForwardLoop), a 503 or a 508
// forward_loop drops it, so the next call asks BaseURL again; a call that
// followed a 307 learns where the chain ended. The hint only picks where a
// request goes first: a node that does not own the tenant still answers
// 307.
func (c *Client) track(req *http.Request, resp *http.Response, err error, path string) {
	switch {
	case err != nil, resp.StatusCode == http.StatusServiceUnavailable, resp.StatusCode == http.StatusLoopDetected:
		c.owner.Store(nil)
	case resp.Request != nil && (resp.Request.URL.Host != req.URL.Host || resp.Request.URL.Scheme != req.URL.Scheme):
		final := resp.Request.URL
		route, perr := url.Parse(path)
		if perr != nil || !strings.HasSuffix(final.Path, route.Path) {
			c.owner.Store(nil)
			return
		}
		base := final.Scheme + "://" + final.Host + strings.TrimSuffix(final.Path, route.Path)
		c.owner.Store(&base)
	}
}

// bodyBufs recycles the buffers response bodies are read into.
var bodyBufs = sync.Pool{New: func() any { return bytes.NewBuffer(make([]byte, 0, 4<<10)) }}

// decode decodes a JSON response body into out (nothing when out is nil):
// a record the recovery path receives once per event through its own
// decoder, anything else through json.Unmarshal.
func decode(body []byte, out any) (err error) {
	switch out := out.(type) {
	case nil:
	case *httpapi.OutcomesPage:
		*out, err = httpapi.DecodeOutcomesPage(body)
	case *httpapi.EventResult:
		*out, err = httpapi.DecodeEventResult(body)
	default:
		err = json.Unmarshal(body, out)
	}
	return err
}

func marshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // wire types are all marshalable
	}
	return b
}

// Register registers an allocation in the client's tenant.
func (c *Client) Register(ctx context.Context, req httpapi.RegisterRequest) (*httpapi.AllocationInfo, error) {
	var out httpapi.AllocationInfo
	err := c.do(ctx, http.MethodPost, "/v1/allocations", marshal(req), &out, callOpts{retryable: true})
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Allocations lists the tenant's allocations.
func (c *Client) Allocations(ctx context.Context) (*httpapi.AllocationList, error) {
	var out httpapi.AllocationList
	if err := c.do(ctx, http.MethodGet, "/v1/allocations", nil, &out, callOpts{retryable: true}); err != nil {
		return nil, err
	}
	return &out, nil
}

// Allocation fetches one allocation by name.
func (c *Client) Allocation(ctx context.Context, name string) (*httpapi.AllocationInfo, error) {
	var out httpapi.AllocationInfo
	if err := c.do(ctx, http.MethodGet, "/v1/allocations/"+url.PathEscape(name), nil, &out, callOpts{retryable: true}); err != nil {
		return nil, err
	}
	return &out, nil
}

// Upload replaces the allocation's field data (row-major float64s). The body
// is encoded as it is sent, fieldChunk bytes at a time; vals must not change
// until Upload returns.
func (c *Client) Upload(ctx context.Context, name string, vals []float64) error {
	return c.do(ctx, http.MethodPut, "/v1/allocations/"+url.PathEscape(name)+"/data", nil, nil,
		callOpts{retryable: true, contentType: "application/octet-stream", field: vals})
}

// Download fetches the allocation's current field data. The body is decoded
// as it arrives into one slice sized from Content-Length; a body shorter or
// longer than declared, or not a whole number of elements, is an error.
func (c *Client) Download(ctx context.Context, name string) ([]float64, error) {
	var vals []float64
	if err := c.do(ctx, http.MethodGet, "/v1/allocations/"+url.PathEscape(name)+"/data", nil, &vals, callOpts{retryable: true}); err != nil {
		return nil, err
	}
	return vals, nil
}

// Element reads one element's state (valbits, coords, quarantine flag).
func (c *Client) Element(ctx context.Context, name string, offset int) (*httpapi.ElementState, error) {
	var out httpapi.ElementState
	path := fmt.Sprintf("/v1/allocations/%s/element?offset=%d", url.PathEscape(name), offset)
	if err := c.do(ctx, http.MethodGet, path, nil, &out, callOpts{retryable: true}); err != nil {
		return nil, err
	}
	return &out, nil
}

// Inject corrupts one element server-side and plants the latent fault
// (requires the server to run with injection enabled).
func (c *Client) Inject(ctx context.Context, name string, req httpapi.InjectRequest) (*httpapi.InjectReport, error) {
	var out httpapi.InjectReport
	err := c.do(ctx, http.MethodPost, "/v1/allocations/"+url.PathEscape(name)+"/inject",
		marshal(req), &out, callOpts{retryable: false})
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Recover runs one synchronous recovery of the element at offset and
// returns its report. The server treats it as an ordinary recovery: it is
// journaled, replicated to a cluster partner and reported on the outcome
// feed, and refused like an event (ErrOverloaded, ErrCircuitOpen, a
// draining server), but never latched: a refused recovery did not run, and
// the caller decides whether to call again.
func (c *Client) Recover(ctx context.Context, name string, offset int) (*httpapi.RecoverReport, error) {
	var out httpapi.RecoverReport
	err := c.do(ctx, http.MethodPost, "/v1/allocations/"+url.PathEscape(name)+"/recover",
		marshal(httpapi.RecoverRequest{Offset: offset}), &out, callOpts{retryable: false})
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Ingest reports one DUE/MCE event. NEVER auto-retried: a returned
// *httpapi.Error with Latched=true means the server kept the event
// bank-latched and will redeliver it itself — do not resend.
func (c *Client) Ingest(ctx context.Context, ev httpapi.EventRequest) (*httpapi.EventResult, error) {
	return c.IngestTraced(ctx, ev, "")
}

// IngestTraced is Ingest with a W3C traceparent header: the server adopts
// the header's trace-id for the recovery's trace, and the EventResult (or
// the latched error) echoes it. Pass "" to let the server mint an ID.
func (c *Client) IngestTraced(ctx context.Context, ev httpapi.EventRequest, traceparent string) (*httpapi.EventResult, error) {
	var out httpapi.EventResult
	err := c.do(ctx, http.MethodPost, "/v1/events", ev.AppendJSON(nil, true), &out,
		callOpts{retryable: false, traceparent: traceparent})
	if err != nil {
		if apiErr, ok := err.(*httpapi.Error); ok {
			status := httpapi.StatusRejected
			if apiErr.Latched {
				status = httpapi.StatusLatched
			}
			return &httpapi.EventResult{Status: status, TraceID: apiErr.TraceID,
				Error: &httpapi.ErrorDetail{
					Code: apiErr.Code, Message: apiErr.Message, Latched: apiErr.Latched,
				}}, err
		}
		return nil, err
	}
	return &out, nil
}

// IngestBatch streams events as one NDJSON batch and returns the per-event
// results, in order. Transport-level success with per-event failures is
// not an error; inspect each EventResult.
func (c *Client) IngestBatch(ctx context.Context, evs []httpapi.EventRequest) ([]httpapi.EventResult, error) {
	// The transport may still be sending the body when Do returns, so it
	// gets a buffer of its own, sized for the usual event.
	body := make([]byte, 0, 48*len(evs))
	for i := range evs {
		body = append(evs[i].AppendJSON(body, true), '\n')
	}
	resp, err := c.send(ctx, http.MethodPost, "/v1/events/stream", body, callOpts{contentType: "application/x-ndjson"})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return nil, decodeError(resp, body)
	}
	out := make([]httpapi.EventResult, 0, len(evs))
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer bodyBufs.Put(buf)
	buf.Reset()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(buf.AvailableBuffer(), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		res, err := httpapi.DecodeEventResult(line)
		if err != nil {
			return out, fmt.Errorf("client: decode stream result: %w", err)
		}
		out = append(out, res)
	}
	return out, sc.Err()
}

// Outcomes polls the recovery-outcome feed from the given cursor.
func (c *Client) Outcomes(ctx context.Context, since uint64, alloc string, limit int) (*httpapi.OutcomesPage, error) {
	q := url.Values{}
	if since > 0 {
		q.Set("since", strconv.FormatUint(since, 10))
	}
	if alloc != "" {
		q.Set("alloc", alloc)
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	path := "/v1/outcomes"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var out httpapi.OutcomesPage
	if err := c.do(ctx, http.MethodGet, path, nil, &out, callOpts{retryable: true}); err != nil {
		return nil, err
	}
	return &out, nil
}

// Unregister deletes an allocation: the registry entry and the engine's
// per-array state (caches, stripe locks, shared statistics) are dropped.
// Returns core.ErrRecoveriesInFlight (via errors.Is, HTTP 409) while
// recoveries hold the array's stripes; the call is retried automatically
// since deletion is idempotent.
func (c *Client) Unregister(ctx context.Context, name string) error {
	return c.do(ctx, http.MethodDelete, "/v1/allocations/"+url.PathEscape(name), nil, nil,
		callOpts{retryable: true})
}

// Traces fetches the slowest retained recovery traces for the tenant,
// slowest first, with per-stage spans.
func (c *Client) Traces(ctx context.Context) (*httpapi.TracesReport, error) {
	var out httpapi.TracesReport
	if err := c.do(ctx, http.MethodGet, "/v1/traces", nil, &out, callOpts{retryable: true}); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health fetches the predictive memory-health report: per-bank risk and
// tier, proactively offlined rows (allocation names filtered to the
// tenant), executed action counts, and the advisory checkpoint interval.
// Enabled is false when the server runs without the predictor.
func (c *Client) Health(ctx context.Context) (*httpapi.HealthReport, error) {
	var out httpapi.HealthReport
	if err := c.do(ctx, http.MethodGet, "/v1/health", nil, &out, callOpts{retryable: true}); err != nil {
		return nil, err
	}
	return &out, nil
}

// SpatialAnalytics fetches the spatial error analytics for the tenant's
// allocations: Moran's I / Geary's C over per-stripe error intensity, each
// stripe's Getis-Ord G* z-score and hot/cold classification, and the
// engine-wide tune-cache counters the hot-spot feedback drives.
func (c *Client) SpatialAnalytics(ctx context.Context) (*httpapi.SpatialAnalyticsReport, error) {
	var out httpapi.SpatialAnalyticsReport
	if err := c.do(ctx, http.MethodGet, "/v1/analytics/spatial", nil, &out, callOpts{retryable: true}); err != nil {
		return nil, err
	}
	return &out, nil
}

// RaiseCE reports one correctable error (EventKindCE): no recovery runs,
// the observation feeds the server's predictive-health tier. bit is the
// corrected bit position (-1 when unknown).
func (c *Client) RaiseCE(ctx context.Context, addr uint64, bit int) (*httpapi.EventResult, error) {
	return c.Ingest(ctx, httpapi.EventRequest{Kind: httpapi.EventKindCE, Addr: addr, Bit: bit})
}

// Metrics fetches the raw Prometheus exposition text (GET /metrics).
func (c *Client) Metrics(ctx context.Context) (string, error) {
	var raw []byte
	if err := c.do(ctx, http.MethodGet, "/metrics", nil, &raw, callOpts{retryable: true}); err != nil {
		return "", err
	}
	return string(raw), nil
}

// Quarantine reports the tenant's quarantined elements.
func (c *Client) Quarantine(ctx context.Context) (*httpapi.QuarantineReport, error) {
	var out httpapi.QuarantineReport
	if err := c.do(ctx, http.MethodGet, "/v1/quarantine", nil, &out, callOpts{retryable: true}); err != nil {
		return nil, err
	}
	return &out, nil
}

// Ready fetches /readyz. The report decodes on both 200 and 503 — a
// draining server still describes itself; err is non-nil on 503.
func (c *Client) Ready(ctx context.Context) (*httpapi.ReadyReport, error) {
	resp, err := c.send(ctx, http.MethodGet, "/readyz", nil, callOpts{})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	var out httpapi.ReadyReport
	if jsonErr := json.Unmarshal(body, &out); jsonErr != nil {
		return nil, fmt.Errorf("client: decode /readyz: %w", jsonErr)
	}
	if resp.StatusCode != http.StatusOK {
		return &out, decodeErrReady(resp.StatusCode, out)
	}
	return &out, nil
}

func decodeErrReady(status int, rep httpapi.ReadyReport) error {
	return &httpapi.Error{Status: status, Code: httpapi.CodeDraining, Message: rep.Reason}
}
