package httpapi_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"spatialdue/internal/core"
	"spatialdue/internal/httpapi"
	"spatialdue/internal/httpapi/client"
	"spatialdue/internal/ndarray"
	"spatialdue/internal/service"
)

// benchServer builds a Server driven through ServeHTTP directly — no TCP, so
// the numbers isolate the field-plane handler path (framing, stripe locking,
// backing writes) from network noise.
func benchServer(b *testing.B, store string) (*httpapi.Server, *core.Engine) {
	b.Helper()
	eng := core.NewEngine(core.Options{Seed: 1})
	srv, err := httpapi.NewServer(eng, httpapi.ServerConfig{
		Service:    service.Config{Workers: 1, QueueDepth: 4},
		FieldStore: store,
		DataDir:    b.TempDir(),
	})
	if err != nil {
		b.Fatalf("NewServer: %v", err)
	}
	b.Cleanup(func() {
		if err := srv.Close(context.Background()); err != nil {
			b.Errorf("Close: %v", err)
		}
	})
	return srv, eng
}

func benchRegister(b *testing.B, srv *httpapi.Server, tenant, name string, rows, cols int) {
	b.Helper()
	body, _ := json.Marshal(httpapi.RegisterRequest{
		Name: name, Dims: []int{rows, cols}, DType: "float64",
		Policy: httpapi.PolicyInfo{Any: true},
	})
	req := httptest.NewRequest(http.MethodPost, "/v1/allocations", bytes.NewReader(body))
	req.Header.Set(httpapi.TenantHeader, tenant)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK && rec.Code != http.StatusCreated {
		b.Fatalf("register %s/%s: status %d: %s", tenant, name, rec.Code, rec.Body.String())
	}
}

func fieldBytes(rows, cols int) []byte {
	vals := smoothField(rows, cols)
	buf := make([]byte, len(vals)*8)
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
	return buf
}

func benchUpload(b *testing.B, srv *httpapi.Server, tenant, name string, payload []byte) {
	b.Helper()
	req := httptest.NewRequest(http.MethodPut, "/v1/allocations/"+name+"/data", bytes.NewReader(payload))
	req.Header.Set(httpapi.TenantHeader, tenant)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK && rec.Code != http.StatusNoContent {
		b.Fatalf("upload: status %d: %s", rec.Code, rec.Body.String())
	}
}

// discardRW is an http.ResponseWriter that throws the body away, so download
// benchmarks measure the server's streaming path, not recorder buffering.
type discardRW struct {
	h    http.Header
	code int
	n    int64
}

func (d *discardRW) Header() http.Header { return d.h }
func (d *discardRW) Write(p []byte) (int, error) {
	d.n += int64(len(p))
	return len(p), nil
}
func (d *discardRW) WriteHeader(c int) { d.code = c }

// BenchmarkFieldUpload measures PUT /data end to end through ServeHTTP for
// each backing: bytes/op tracks the wire size so benchstat shows MB/s.
func BenchmarkFieldUpload(b *testing.B) {
	const rows, cols = 256, 256
	payload := fieldBytes(rows, cols)
	for _, store := range []string{httpapi.FieldStoreHeap, httpapi.FieldStoreMmap} {
		b.Run(store, func(b *testing.B) {
			srv, _ := benchServer(b, store)
			benchRegister(b, srv, "bench", "f", rows, cols)
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchUpload(b, srv, "bench", "f", payload)
			}
		})
	}
}

// BenchmarkFieldDownload measures GET /data through ServeHTTP into a
// discarding writer for each backing.
func BenchmarkFieldDownload(b *testing.B) {
	const rows, cols = 256, 256
	payload := fieldBytes(rows, cols)
	for _, store := range []string{httpapi.FieldStoreHeap, httpapi.FieldStoreMmap} {
		b.Run(store, func(b *testing.B) {
			srv, _ := benchServer(b, store)
			benchRegister(b, srv, "bench", "f", rows, cols)
			benchUpload(b, srv, "bench", "f", payload)
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest(http.MethodGet, "/v1/allocations/f/data", nil)
				req.Header.Set(httpapi.TenantHeader, "bench")
				w := &discardRW{h: make(http.Header)}
				srv.ServeHTTP(w, req)
				if w.code != 0 && w.code != http.StatusOK {
					b.Fatalf("download: status %d", w.code)
				}
				if w.n != int64(len(payload)) {
					b.Fatalf("download wrote %d bytes, want %d", w.n, len(payload))
				}
			}
		})
	}
}

// BenchmarkFieldTransferSDK measures one field re-upload and read-back as an
// application pays for it: client.Upload then client.Download over loopback
// TCP against a real server. Run with -benchmem: B/op is the SDK's and the
// server's transfer memory together, and should stay near the one
// []float64 a download returns.
func BenchmarkFieldTransferSDK(b *testing.B) {
	const rows, cols = 256, 256
	vals := smoothField(rows, cols)
	srv, _ := benchServer(b, httpapi.FieldStoreHeap)
	benchRegister(b, srv, "bench", "f", rows, cols)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := client.New(client.Config{BaseURL: ts.URL, Tenant: "bench"})
	ctx := context.Background()
	b.SetBytes(2 * 8 * int64(len(vals)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Upload(ctx, "f", vals); err != nil {
			b.Fatal(err)
		}
		got, err := c.Download(ctx, "f")
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != len(vals) {
			b.Fatalf("downloaded %d values, want %d", len(got), len(vals))
		}
	}
}

// vmRSSBytes reads the process resident set from /proc/self/status.
func vmRSSBytes(b *testing.B) int64 {
	b.Helper()
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		b.Skipf("no /proc/self/status: %v", err)
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("VmRSS:")) {
			continue
		}
		var kb int64
		if _, err := fmt.Sscanf(string(line), "VmRSS: %d kB", &kb); err != nil {
			b.Fatalf("parse %q: %v", line, err)
		}
		return kb << 10
	}
	b.Skip("VmRSS not in /proc/self/status")
	return 0
}

// BenchmarkTenantRSS registers and fills one tenant field per iteration and
// reports resident-set growth per tenant (RSS-bytes/tenant). Mmap tenants are
// paged out after upload (the cold-tenant path), so the metric shows what an
// idle tenant actually costs each backing.
func BenchmarkTenantRSS(b *testing.B) {
	const rows, cols = 128, 128
	payload := fieldBytes(rows, cols)
	for _, store := range []string{httpapi.FieldStoreHeap, httpapi.FieldStoreMmap} {
		b.Run(store, func(b *testing.B) {
			srv, eng := benchServer(b, store)
			start := vmRSSBytes(b)
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tenant := fmt.Sprintf("t%06d", i)
				benchRegister(b, srv, tenant, "f", rows, cols)
				benchUpload(b, srv, tenant, "f", payload)
				coldTenant(b, eng, tenant)
			}
			b.StopTimer()
			growth := vmRSSBytes(b) - start
			if growth < 0 {
				growth = 0
			}
			b.ReportMetric(float64(growth)/float64(b.N), "RSS-bytes/tenant")
		})
	}
}

// coldTenant marks the tenant's field cold: mmap backings are sealed and
// paged out, heap backings have nothing to shed (the comparison being made).
func coldTenant(b *testing.B, eng *core.Engine, tenant string) {
	b.Helper()
	for _, a := range eng.Table().TenantAllocations(tenant) {
		if err := a.Array.Seal(); err != nil {
			b.Fatalf("seal %s: %v", tenant, err)
		}
		if err := a.Array.Advise(ndarray.AdviseDontNeed); err != nil {
			b.Fatalf("advise %s: %v", tenant, err)
		}
	}
}
