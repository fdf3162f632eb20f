package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"math"
	"net/http/httptest"
	"testing"

	"spatialdue/internal/core"
	"spatialdue/internal/httpapi"
	"spatialdue/internal/ndarray/mmapstore"
)

// fieldBytes encodes vals in the field wire format: little-endian float64
// bits, the layout of an HTTP upload body and of a field frame's payload.
func fieldBytes(vals []float64) []byte {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return buf
}

// awkwardField is n values whose bits a float round trip would not keep:
// NaN payloads, both zeros, infinities and subnormals among a ramp.
func awkwardField(n int, shift float64) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		switch i % 7 {
		case 0:
			vals[i] = math.Float64frombits(0x7ff8_0000_0000_0000 | uint64(i)) // NaN with a payload
		case 1:
			vals[i] = math.Copysign(0, -1)
		case 2:
			vals[i] = math.Inf(1 - 2*(i%2))
		case 3:
			vals[i] = math.Float64frombits(uint64(i) + 1) // subnormal
		default:
			vals[i] = shift + math.Sqrt(float64(i))
		}
	}
	return vals
}

// TestFieldReplicationMatchesDownload is a differential over the two paths
// a field leaves and enters a node by, for each storage backing: the
// replication snapshot's payload must equal the HTTP download of the same
// field, and a field frame applied on a replica must download bit-exact.
func TestFieldReplicationMatchesDownload(t *testing.T) {
	const rows, cols = 101, 13 // several stripes, the last one longer
	for _, store := range []string{httpapi.FieldStoreHeap, httpapi.FieldStoreMmap} {
		t.Run(store, func(t *testing.T) {
			m, err := NewMap([]NodeInfo{{Name: "a", URL: "http://a.invalid"}}, 0)
			if err != nil {
				t.Fatal(err)
			}
			eng := core.NewEngine(core.Options{Seed: 7})
			cfg := testServerConfig()
			cfg.RedeliverEvery = -1
			cfg.FieldStore = store
			cfg.DataDir = t.TempDir()
			n, err := New(eng, Config{Self: "a", Map: m, DataDir: t.TempDir(), Server: cfg})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = n.Server().Close(context.Background()) })

			do := func(method, path string, body []byte) []byte {
				t.Helper()
				req := httptest.NewRequest(method, path, bytes.NewReader(body))
				req.Header.Set(httpapi.TenantHeader, "ten")
				rec := httptest.NewRecorder()
				n.Server().ServeHTTP(rec, req)
				if rec.Code/100 != 2 {
					t.Fatalf("%s %s: %d %s", method, path, rec.Code, rec.Body)
				}
				out, _ := io.ReadAll(rec.Body)
				return out
			}
			do("POST", "/v1/allocations", []byte(`{"name":"grid","dims":[101,13],"dtype":"float64","policy":{"any":true}}`))
			a, ok := eng.Table().ByTenantName("ten", "grid")
			if !ok {
				t.Fatal("grid not registered")
			}
			if _, mapped := a.Array.Backing().(*mmapstore.Store); mapped != (store == httpapi.FieldStoreMmap) {
				t.Fatalf("backing %T for field store %q", a.Array.Backing(), store)
			}
			if eng.NumStripes(a.Array) < 3 {
				t.Fatalf("%d stripes; the differential needs several", eng.NumStripes(a.Array))
			}
			uploaded := fieldBytes(awkwardField(rows*cols, 10))
			do("PUT", "/v1/allocations/grid/data", uploaded)

			items := n.snapshot()
			if len(items) != 1 || items[0].tenant != "ten" || items[0].name != "grid" {
				t.Fatalf("snapshot = %d items, want ten/grid alone", len(items))
			}
			downloaded := do("GET", "/v1/allocations/grid/data", nil)
			if !bytes.Equal(items[0].payload, downloaded) {
				t.Error("snapshot payload differs from the HTTP download")
			}
			if !bytes.Equal(downloaded, uploaded) {
				t.Error("download differs from the upload")
			}

			applied := fieldBytes(awkwardField(rows*cols, -3))
			h := frameHeader{Type: frameField, Tenant: "ten", Alloc: "grid"}
			if err := n.applyFrame(nil, h, applied); err != nil {
				t.Fatalf("apply field frame: %v", err)
			}
			if got := do("GET", "/v1/allocations/grid/data", nil); !bytes.Equal(got, applied) {
				t.Error("applied field frame does not download bit-exact")
			}
			if items := n.snapshot(); !bytes.Equal(items[0].payload, applied) {
				t.Error("snapshot after the apply differs from the applied frame")
			}

			// A frame of the wrong size is refused and changes nothing.
			for _, bad := range [][]byte{applied[:len(applied)-8], append(applied[:len(applied):len(applied)], 0, 0, 0)} {
				if err := n.applyFrame(nil, h, bad); err == nil {
					t.Errorf("field frame of %d bytes accepted for %d cells", len(bad), rows*cols)
				}
			}
			if got := do("GET", "/v1/allocations/grid/data", nil); !bytes.Equal(got, applied) {
				t.Error("a refused field frame changed the field")
			}
		})
	}
}
