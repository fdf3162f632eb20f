package client

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spatialdue/internal/httpapi"
	"spatialdue/internal/registry"
)

const fieldRoute = "/v1/allocations/grid/data"

// testField is n values that exercise the encoding: a ramp with NaN (with a
// payload), both infinities and both zeros among them.
func testField(n int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 1e-3*float64(i) - 7
	}
	specials := []float64{math.Float64frombits(0x7ff8000000abcdef), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	for i, v := range specials {
		if i < n {
			vals[(i*n)/len(specials)] = v
		}
	}
	return vals
}

// wire is the reference encoding of vals, written without the SDK's codec.
func wire(vals []float64) []byte {
	out := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

func sameBits(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d values, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("value %d is %x, want %x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

func newClient(srv *httptest.Server) *Client {
	return New(Config{BaseURL: srv.URL, Tenant: "t", Backoff: time.Millisecond})
}

// upload is what a test server saw of one PUT to the field route.
type upload struct {
	contentLength int64
	chunked       bool
	body          []byte
}

func recordUpload(r *http.Request) upload {
	b, _ := io.ReadAll(r.Body)
	return upload{contentLength: r.ContentLength, chunked: len(r.TransferEncoding) > 0, body: b}
}

func checkUpload(t *testing.T, what string, got upload, vals []float64) {
	t.Helper()
	if got.contentLength != int64(8*len(vals)) || got.chunked {
		t.Errorf("%s: Content-Length %d (chunked: %v), want a declared %d", what, got.contentLength, got.chunked, 8*len(vals))
	}
	if !bytes.Equal(got.body, wire(vals)) {
		t.Errorf("%s: body of %d bytes is not the field's encoding", what, len(got.body))
	}
}

func TestUploadDeclaresLengthAndIsBitExact(t *testing.T) {
	// Not a multiple of the chunk, so the last chunk is a partial one.
	vals := testField(3*fieldChunk/8 + 5)
	var got upload
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPut || r.URL.Path != fieldRoute || r.Header.Get(httpapi.TenantHeader) != "t" ||
			r.Header.Get("Content-Type") != "application/octet-stream" {
			t.Errorf("unexpected request %s %s %v", r.Method, r.URL.Path, r.Header)
		}
		got = recordUpload(r)
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()
	if err := newClient(srv).Upload(context.Background(), "grid", vals); err != nil {
		t.Fatal(err)
	}
	checkUpload(t, "upload", got, vals)
}

func TestUploadRetryResendsWholeBody(t *testing.T) {
	vals := testField(2*fieldChunk/8 + 1)
	var seen []upload
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = append(seen, recordUpload(r))
		if len(seen) == 1 {
			w.WriteHeader(http.StatusTooManyRequests)
			_ = json.NewEncoder(w).Encode(httpapi.ErrorBody{Error: httpapi.ErrorDetail{Code: httpapi.CodeOverloaded, Message: "busy"}})
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()
	if err := newClient(srv).Upload(context.Background(), "grid", vals); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 {
		t.Fatalf("server saw %d requests, want the 429 and its retry", len(seen))
	}
	checkUpload(t, "first attempt", seen[0], vals)
	checkUpload(t, "retry", seen[1], vals)
}

func TestUploadFollowsForwardWithWholeBody(t *testing.T) {
	// Small enough that the forwarding server drains the body it does not
	// read, as a non-owning node does with a 307.
	vals := testField(4096)
	var got upload
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(httpapi.TenantHeader) != "t" || r.Header.Get(httpapi.ForwardHopsHeader) != "1" {
			t.Errorf("forwarded request lost its headers: %v", r.Header)
		}
		got = recordUpload(r)
		w.WriteHeader(http.StatusNoContent)
	}))
	defer owner.Close()
	entry := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(httpapi.ForwardHopsHeader, "1")
		http.Redirect(w, r, owner.URL+r.URL.Path, http.StatusTemporaryRedirect)
	}))
	defer entry.Close()
	if err := newClient(entry).Upload(context.Background(), "grid", vals); err != nil {
		t.Fatal(err)
	}
	checkUpload(t, "forwarded upload", got, vals)
}

// roundTripFunc lets a test hand the client a response no real server would
// send.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

func TestDownloadBodyLengths(t *testing.T) {
	vals := testField(2*fieldChunk/8 + 3)
	enc := wire(vals)
	serve := func(declare int, send []byte) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodGet || r.URL.Path != fieldRoute {
				t.Errorf("unexpected request %s %s", r.Method, r.URL.Path)
			}
			if declare >= 0 {
				w.Header().Set("Content-Length", strconv.Itoa(declare))
			}
			// A body shorter than declared makes the server drop the
			// connection; one longer is cut off by it (see the round-tripper
			// case below).
			for len(send) > 0 {
				n := min(len(send), 1000)
				_, _ = w.Write(send[:n])
				send = send[n:]
				if declare < 0 {
					w.(http.Flusher).Flush() // chunked
				}
			}
		}
	}
	for _, tc := range []struct {
		name    string
		handler http.HandlerFunc
		want    []float64
		wantErr string
	}{
		{name: "exact", handler: serve(len(enc), enc), want: vals},
		{name: "empty", handler: serve(0, nil), want: []float64{}},
		{name: "short", handler: serve(len(enc), enc[:len(enc)-16]), wantErr: "unexpected EOF"},
		{name: "not a multiple of 8", handler: serve(len(enc)-4, enc[:len(enc)-4]), wantErr: "not a whole number"},
		{name: "no length", handler: serve(-1, enc), want: vals},
		{name: "no length, torn element", handler: serve(-1, enc[:len(enc)-3]), wantErr: "not a whole number"},
	} {
		srv := httptest.NewServer(tc.handler)
		got, err := newClient(srv).Download(context.Background(), "grid")
		srv.Close()
		switch {
		case tc.wantErr != "":
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.wantErr)
			}
		case err != nil:
			t.Errorf("%s: %v", tc.name, err)
		default:
			sameBits(t, got, tc.want)
		}
	}

	// A transport's own body reader ends at Content-Length, so only a custom
	// RoundTripper can deliver more than was declared — or less, cleanly.
	for _, tc := range []struct {
		name    string
		body    []byte
		wantErr string
	}{
		{"long", append(append([]byte(nil), enc...), enc[:8]...), "runs past"},
		{"short with a clean EOF", enc[:len(enc)-8], "ended after"},
	} {
		c := New(Config{BaseURL: "http://field.invalid", HTTPClient: &http.Client{
			Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
				return &http.Response{StatusCode: http.StatusOK, ContentLength: int64(len(enc)),
					Body: io.NopCloser(bytes.NewReader(tc.body)), Request: r}, nil
			})}})
		if _, err := c.Download(context.Background(), "grid"); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestFieldRoutesDecodeErrorEnvelopes(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		_ = json.NewEncoder(w).Encode(httpapi.ErrorBody{Error: httpapi.ErrorDetail{
			Code: httpapi.CodeNotRegistered, Message: `no allocation "grid"`}})
	}))
	defer srv.Close()
	c := newClient(srv)
	_, downErr := c.Download(context.Background(), "grid")
	upErr := c.Upload(context.Background(), "grid", testField(100))
	for what, err := range map[string]error{"download": downErr, "upload": upErr} {
		var apiErr *httpapi.Error
		if !errors.As(err, &apiErr) {
			t.Errorf("%s: err = %v, want an *httpapi.Error", what, err)
			continue
		}
		if apiErr.Status != http.StatusNotFound || apiErr.Code != httpapi.CodeNotRegistered || !strings.Contains(apiErr.Message, "grid") {
			t.Errorf("%s: decoded %+v", what, apiErr)
		}
		if !errors.Is(err, registry.ErrNotRegistered) {
			t.Errorf("%s: %v does not match registry.ErrNotRegistered", what, err)
		}
	}
}

// TestFieldTransfersDoNotMaterializeTheField pins the SDK's memory: beside
// the caller's []float64 a transfer holds one chunk buffer, not an encoded
// copy of the field. The server here runs in the same process and its
// allocations count too; it streams as well.
func TestFieldTransfersDoNotMaterializeTheField(t *testing.T) {
	const n = 1 << 20 // 8 MiB
	vals := testField(n)
	enc := wire(vals)
	var received atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut {
			m, _ := io.Copy(io.Discard, r.Body)
			received.Store(m)
			w.WriteHeader(http.StatusNoContent)
			return
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(enc)))
		_, _ = w.Write(enc)
	}))
	defer srv.Close()
	c := newClient(srv)
	ctx := context.Background()
	// Open the connection and warm both ends' buffers first.
	if err := c.Upload(ctx, "grid", vals[:16]); err != nil {
		t.Fatal(err)
	}

	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	up := allocated(func() {
		if err := c.Upload(ctx, "grid", vals); err != nil {
			t.Fatal(err)
		}
	})
	if received.Load() != 8*n {
		t.Fatalf("server received %d bytes, want %d", received.Load(), 8*n)
	}
	if up >= 1<<20 {
		t.Errorf("an 8 MiB upload allocated %d bytes, want under 1 MiB", up)
	}
	var got []float64
	down := allocated(func() {
		var err error
		if got, err = c.Download(ctx, "grid"); err != nil {
			t.Fatal(err)
		}
	})
	sameBits(t, got, vals)
	if down >= 8*n+1<<20 {
		t.Errorf("an 8 MiB download allocated %d bytes, want under the field's size + 1 MiB", down)
	}
}

// hitServer is an httptest server that counts the requests it serves per
// path and answers each with handle.
type hitServer struct {
	*httptest.Server
	mu   sync.Mutex
	hits map[string]int
}

func newHitServer(t *testing.T, handle http.HandlerFunc) *hitServer {
	hs := &hitServer{hits: map[string]int{}}
	hs.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hs.mu.Lock()
		hs.hits[r.URL.Path]++
		hs.mu.Unlock()
		handle(w, r)
	}))
	t.Cleanup(hs.Close)
	return hs
}

// take returns the hits on path since the last take.
func (hs *hitServer) take(path string) int {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	n := hs.hits[path]
	delete(hs.hits, path)
	return n
}

// forwardTo answers every /v1 request with a 307 to target's same route,
// as a node that does not own the tenant does; other routes get 200 {}.
func forwardTo(target func() string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/") {
			_, _ = io.WriteString(w, "{}")
			return
		}
		w.Header().Set(httpapi.ForwardHopsHeader, "1")
		http.Redirect(w, r, target()+r.URL.RequestURI(), http.StatusTemporaryRedirect)
	}
}

// serveOK answers every request 200 with an empty JSON object.
func serveOK(w http.ResponseWriter, r *http.Request) {
	_, _ = io.Copy(io.Discard, r.Body)
	_, _ = io.WriteString(w, "{}")
}

const listRoute = "/v1/allocations"

// hintedPair is an entry node that forwards to owner, and a client of
// entry that has already learned the owner.
func hintedPair(t *testing.T, owner http.HandlerFunc) (entry, own *hitServer, c *Client) {
	own = newHitServer(t, owner)
	entry = newHitServer(t, forwardTo(func() string { return own.URL }))
	c = newClient(entry.Server)
	if _, err := c.Allocations(context.Background()); err != nil {
		t.Fatal(err)
	}
	if entry.take(listRoute) != 1 || own.take(listRoute) != 1 {
		t.Fatal("the first call did not go entry -> owner")
	}
	return entry, own, c
}

func TestOwnerHintSkipsTheForward(t *testing.T) {
	entry, own, c := hintedPair(t, serveOK)
	ctx := context.Background()
	for range 3 {
		if _, err := c.Allocations(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if n := entry.take(listRoute); n != 0 {
		t.Errorf("entry node saw %d forwarded calls after the owner was learned, want 0", n)
	}
	if n := own.take(listRoute); n != 3 {
		t.Errorf("owner saw %d calls, want 3", n)
	}
	// Node-local routes name the node they ask: always BaseURL.
	if _, err := c.Metrics(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ready(ctx); err != nil {
		t.Fatal(err)
	}
	if entry.take("/metrics") != 1 || entry.take("/readyz") != 1 || own.take("/metrics") != 0 || own.take("/readyz") != 0 {
		t.Error("Metrics or Ready did not go to BaseURL")
	}
}

// A batch ingest picks its node like every other call.
func TestOwnerHintCoversIngestBatch(t *testing.T) {
	entry, own, c := hintedPair(t, func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		_, _ = io.WriteString(w, `{"status":"accepted"}`+"\n")
	})
	res, err := c.IngestBatch(context.Background(), []httpapi.EventRequest{{Alloc: "grid"}})
	if err != nil || len(res) != 1 {
		t.Fatalf("IngestBatch = %+v, %v", res, err)
	}
	if entry.take("/v1/events/stream") != 0 || own.take("/v1/events/stream") != 1 {
		t.Error("IngestBatch did not go straight to the owner")
	}
}

// A transport error, a 503 or a forward loop at the owner drops the hint:
// the next call asks BaseURL again. The failed call itself is not re-sent.
func TestOwnerHintDropped(t *testing.T) {
	for _, tc := range []struct {
		name  string
		serve http.HandlerFunc
	}{
		{"transport error", func(w http.ResponseWriter, r *http.Request) {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
		}},
		{"503", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(httpapi.ErrorBody{Error: httpapi.ErrorDetail{Code: httpapi.CodeDraining}})
		}},
		{"508 forward_loop", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusLoopDetected)
			_ = json.NewEncoder(w).Encode(httpapi.ErrorBody{Error: httpapi.ErrorDetail{Code: httpapi.CodeForwardLoop}})
		}},
		{"redirect loop", func(w http.ResponseWriter, r *http.Request) {
			http.Redirect(w, r, "http://"+r.Host+r.URL.RequestURI(), http.StatusTemporaryRedirect)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var broken atomic.Bool
			entry, own, c := hintedPair(t, func(w http.ResponseWriter, r *http.Request) {
				if broken.Load() {
					tc.serve(w, r)
					return
				}
				serveOK(w, r)
			})
			broken.Store(true)
			ctx := context.Background()
			o := 3
			if _, err := c.Ingest(ctx, httpapi.EventRequest{Alloc: "grid", Offset: &o}); err == nil {
				t.Fatal("Ingest to a broken owner succeeded")
			}
			if n := entry.take("/v1/events"); n != 0 {
				t.Errorf("the failed Ingest was re-sent through BaseURL (%d times)", n)
			}
			if n := own.take("/v1/events"); n < 1 || (tc.name != "redirect loop" && n != 1) {
				t.Errorf("owner saw the Ingest %d times, want once", n)
			}
			broken.Store(false)
			if _, err := c.Allocations(ctx); err != nil {
				t.Fatal(err)
			}
			if entry.take(listRoute) != 1 {
				t.Error("the call after the failure did not go to BaseURL")
			}
		})
	}
}

// A 307 from the hinted node re-targets the hint at where the chain ends.
func TestOwnerHintRetargets(t *testing.T) {
	newOwner := newHitServer(t, serveOK)
	var moved atomic.Bool
	var old *hitServer
	old = newHitServer(t, func(w http.ResponseWriter, r *http.Request) {
		if moved.Load() {
			forwardTo(func() string { return newOwner.URL })(w, r)
			return
		}
		serveOK(w, r)
	})
	entry := newHitServer(t, forwardTo(func() string { return old.URL }))
	c := newClient(entry.Server)
	ctx := context.Background()
	if _, err := c.Allocations(ctx); err != nil {
		t.Fatal(err)
	}
	moved.Store(true)
	for range 3 {
		if _, err := c.Allocations(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if e, o, n := entry.take(listRoute), old.take(listRoute), newOwner.take(listRoute); e != 1 || o != 2 || n != 3 {
		t.Errorf("entry/old/new owner saw %d/%d/%d calls, want 1/2/3", e, o, n)
	}
}

// Many goroutines share one client while the owner keeps failing and
// recovering; run under -race.
func TestOwnerHintConcurrent(t *testing.T) {
	var calls atomic.Int64
	own := newHitServer(t, func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1)%5 == 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = io.WriteString(w, "{}")
			return
		}
		serveOK(w, r)
	})
	entry := newHitServer(t, forwardTo(func() string { return own.URL }))
	c := New(Config{BaseURL: entry.URL, Tenant: "t", MaxRetries: -1})
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				_, _ = c.Allocations(context.Background())
			}
		}()
	}
	wg.Wait()
	if e, o := entry.take(listRoute), own.take(listRoute); o != 400 || e < 1 || e >= 400 {
		t.Errorf("entry saw %d and owner %d of 400 calls; want every call at the owner, a few through the entry", e, o)
	}
}
