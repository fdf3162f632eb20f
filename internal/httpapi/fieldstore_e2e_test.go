package httpapi_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/core"
	"spatialdue/internal/faultinject"
	"spatialdue/internal/httpapi"
	"spatialdue/internal/httpapi/client"
	"spatialdue/internal/journal"
	"spatialdue/internal/ndarray"
	"spatialdue/internal/ndarray/mmapstore"
	"spatialdue/internal/predict"
	"spatialdue/internal/registry"
	"spatialdue/internal/service"
)

func valbitsEqual(t *testing.T, got, want []float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %x, want %x",
				label, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestFieldStoreRoundTripBitIdentical runs the same register → upload →
// inject → recover → download lifecycle against a heap-store server and an
// mmap-store server: both must return bit-identical fields, and the mmap
// server must put the backing file where FieldPath says (and delete it on
// unregister).
func TestFieldStoreRoundTripBitIdentical(t *testing.T) {
	const rows, cols, offset, bit = 32, 32, 117, 30
	vals := smoothField(rows, cols)
	finals := map[string][]float64{}

	for _, store := range []string{httpapi.FieldStoreHeap, httpapi.FieldStoreMmap} {
		t.Run(store, func(t *testing.T) {
			dataDir := t.TempDir()
			eng := core.NewEngine(core.Options{Seed: 42})
			_, base, shutdown := startServer(t, eng, httpapi.ServerConfig{
				EnableInject: true,
				Service:      service.Config{Workers: 2, QueueDepth: 16},
				FieldStore:   store,
				DataDir:      dataDir,
			})
			defer func() {
				if err := shutdown(); err != nil {
					t.Errorf("shutdown: %v", err)
				}
			}()

			ctx := context.Background()
			c := client.New(client.Config{BaseURL: base, Tenant: "t1"})
			if _, err := c.Register(ctx, httpapi.RegisterRequest{
				Name: "field", Dims: []int{rows, cols}, DType: "float64",
				Policy: httpapi.PolicyInfo{Any: true},
			}); err != nil {
				t.Fatalf("register: %v", err)
			}
			if err := c.Upload(ctx, "field", vals); err != nil {
				t.Fatalf("upload: %v", err)
			}

			backing := httpapi.FieldPath(dataDir, "t1", "field")
			if store == httpapi.FieldStoreMmap {
				st, err := os.Stat(backing)
				if err != nil {
					t.Fatalf("backing file: %v", err)
				}
				if st.Size() != rows*cols*8 {
					t.Fatalf("backing file is %d bytes, want %d", st.Size(), rows*cols*8)
				}
			}

			off, b := offset, bit
			if _, err := c.Inject(ctx, "field", httpapi.InjectRequest{Offset: &off, Bit: &b}); err != nil {
				t.Fatalf("inject: %v", err)
			}
			if _, err := c.Recover(ctx, "field", offset); err != nil {
				t.Fatalf("recover: %v", err)
			}
			final, err := c.Download(ctx, "field")
			if err != nil {
				t.Fatalf("download: %v", err)
			}
			finals[store] = final

			if err := c.Unregister(ctx, "field"); err != nil {
				t.Fatalf("unregister: %v", err)
			}
			if store == httpapi.FieldStoreMmap {
				if _, err := os.Stat(backing); !os.IsNotExist(err) {
					t.Fatalf("backing file survives unregister: %v", err)
				}
			}
		})
	}
	if t.Failed() {
		return
	}
	valbitsEqual(t, finals[httpapi.FieldStoreMmap], finals[httpapi.FieldStoreHeap],
		"mmap vs heap recovered field")
}

// TestUploadSizeGate: an oversized declared body is refused with 413 before
// a byte is buffered, an undersized one with 400, and an oversized chunked
// body (no Content-Length) is cut off at the allocation size by the
// MaxBytesReader bound — on both backings.
func TestUploadSizeGate(t *testing.T) {
	const rows, cols = 8, 8
	want := rows * cols * 8

	for _, store := range []string{httpapi.FieldStoreHeap, httpapi.FieldStoreMmap} {
		t.Run(store, func(t *testing.T) {
			eng := core.NewEngine(core.Options{Seed: 1})
			_, base, shutdown := startServer(t, eng, httpapi.ServerConfig{
				Service:    service.Config{Workers: 1, QueueDepth: 4},
				FieldStore: store,
				DataDir:    t.TempDir(),
			})
			defer func() {
				if err := shutdown(); err != nil {
					t.Errorf("shutdown: %v", err)
				}
			}()
			ctx := context.Background()
			c := client.New(client.Config{BaseURL: base, Tenant: "t1"})
			if _, err := c.Register(ctx, httpapi.RegisterRequest{
				Name: "f", Dims: []int{rows, cols}, DType: "float64",
				Policy: httpapi.PolicyInfo{Any: true},
			}); err != nil {
				t.Fatalf("register: %v", err)
			}

			put := func(body io.Reader) *http.Response {
				req, err := http.NewRequest(http.MethodPut, base+"/v1/allocations/f/data", body)
				if err != nil {
					t.Fatalf("new request: %v", err)
				}
				req.Header.Set(httpapi.TenantHeader, "t1")
				req.Header.Set("Content-Type", "application/octet-stream")
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatalf("do: %v", err)
				}
				return resp
			}
			codeOf := func(resp *http.Response) string {
				defer resp.Body.Close()
				var eb httpapi.ErrorBody
				if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
					t.Fatalf("decode error body: %v", err)
				}
				return eb.Error.Code
			}

			// Declared oversized: 413 with no buffering.
			resp := put(bytes.NewReader(make([]byte, want+8)))
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Fatalf("oversized upload status = %d, want 413", resp.StatusCode)
			}
			if code := codeOf(resp); code != httpapi.CodePayloadTooLarge {
				t.Fatalf("oversized upload code = %q, want %q", code, httpapi.CodePayloadTooLarge)
			}

			// Declared undersized: 400.
			resp = put(bytes.NewReader(make([]byte, want-8)))
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("undersized upload status = %d, want 400", resp.StatusCode)
			}
			resp.Body.Close()

			// Chunked (unknown length) oversized: the stream is cut at the
			// allocation size and refused as too large.
			resp = put(io.MultiReader(bytes.NewReader(make([]byte, want)), bytes.NewReader(make([]byte, 8))))
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Fatalf("chunked oversized upload status = %d, want 413", resp.StatusCode)
			}
			if code := codeOf(resp); code != httpapi.CodePayloadTooLarge {
				t.Fatalf("chunked oversized upload code = %q, want %q", code, httpapi.CodePayloadTooLarge)
			}

			// Exact size still lands.
			vals := smoothField(rows, cols)
			if err := c.Upload(context.Background(), "f", vals); err != nil {
				t.Fatalf("exact-size upload: %v", err)
			}
			got, err := c.Download(context.Background(), "f")
			if err != nil {
				t.Fatalf("download: %v", err)
			}
			valbitsEqual(t, got, vals, "exact-size round trip")
		})
	}
}

// TestMmapFieldPersistsAcrossRestart: shut a mmap-store server down, start a
// fresh one over the same data dir, re-register the same allocation — the
// field must come back bit-identical from the remapped backing file
// (remap-on-restart), without any re-upload.
func TestMmapFieldPersistsAcrossRestart(t *testing.T) {
	const rows, cols = 16, 16
	vals := smoothField(rows, cols)
	dataDir := t.TempDir()
	ctx := context.Background()

	eng1 := core.NewEngine(core.Options{Seed: 7})
	_, base1, shutdown1 := startServer(t, eng1, httpapi.ServerConfig{
		Service:    service.Config{Workers: 1, QueueDepth: 4},
		FieldStore: httpapi.FieldStoreMmap,
		DataDir:    dataDir,
	})
	c1 := client.New(client.Config{BaseURL: base1, Tenant: "t1"})
	if _, err := c1.Register(ctx, httpapi.RegisterRequest{
		Name: "f", Dims: []int{rows, cols}, DType: "float64",
		Policy: httpapi.PolicyInfo{Any: true},
	}); err != nil {
		t.Fatalf("register: %v", err)
	}
	if err := c1.Upload(ctx, "f", vals); err != nil {
		t.Fatalf("upload: %v", err)
	}
	if err := shutdown1(); err != nil {
		t.Fatalf("shutdown server 1: %v", err)
	}

	eng2 := core.NewEngine(core.Options{Seed: 7})
	_, base2, shutdown2 := startServer(t, eng2, httpapi.ServerConfig{
		Service:    service.Config{Workers: 1, QueueDepth: 4},
		FieldStore: httpapi.FieldStoreMmap,
		DataDir:    dataDir,
	})
	defer func() {
		if err := shutdown2(); err != nil {
			t.Errorf("shutdown server 2: %v", err)
		}
	}()
	c2 := client.New(client.Config{BaseURL: base2, Tenant: "t1"})
	if _, err := c2.Register(ctx, httpapi.RegisterRequest{
		Name: "f", Dims: []int{rows, cols}, DType: "float64",
		Policy: httpapi.PolicyInfo{Any: true},
	}); err != nil {
		t.Fatalf("re-register: %v", err)
	}
	got, err := c2.Download(ctx, "f")
	if err != nil {
		t.Fatalf("download after restart: %v", err)
	}
	valbitsEqual(t, got, vals, "field after restart")

	// A dims change on re-register must be refused (torn/foreign file), not
	// silently resized.
	if err := c2.Unregister(ctx, "f"); err != nil {
		t.Fatalf("unregister: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dataDir, "fields", "t1", "f.field"),
		make([]byte, 24), 0o644); err != nil {
		t.Fatalf("plant torn file: %v", err)
	}
	if _, err := c2.Register(ctx, httpapi.RegisterRequest{
		Name: "f", Dims: []int{rows, cols}, DType: "float64",
		Policy: httpapi.PolicyInfo{Any: true},
	}); err == nil {
		t.Fatal("register over a torn backing file succeeded")
	}
}

// TestChunkedUploadValidatesBeforeCommit: a wrong-sized chunked body (no
// Content-Length) must be rejected WITHOUT mutating the field — the handler
// stages and validates the whole body before the first stripe commits.
func TestChunkedUploadValidatesBeforeCommit(t *testing.T) {
	const rows, cols = 8, 8
	want := rows * cols * 8

	for _, store := range []string{httpapi.FieldStoreHeap, httpapi.FieldStoreMmap} {
		t.Run(store, func(t *testing.T) {
			eng := core.NewEngine(core.Options{Seed: 3})
			_, base, shutdown := startServer(t, eng, httpapi.ServerConfig{
				Service:    service.Config{Workers: 1, QueueDepth: 4},
				FieldStore: store,
				DataDir:    t.TempDir(),
			})
			defer func() {
				if err := shutdown(); err != nil {
					t.Errorf("shutdown: %v", err)
				}
			}()
			ctx := context.Background()
			c := client.New(client.Config{BaseURL: base, Tenant: "t1"})
			if _, err := c.Register(ctx, httpapi.RegisterRequest{
				Name: "f", Dims: []int{rows, cols}, DType: "float64",
				Policy: httpapi.PolicyInfo{Any: true},
			}); err != nil {
				t.Fatalf("register: %v", err)
			}
			vals := smoothField(rows, cols)
			if err := c.Upload(ctx, "f", vals); err != nil {
				t.Fatalf("upload: %v", err)
			}

			// Chunked PUT with a wrong size: io.MultiReader hides the length
			// so the client sends Transfer-Encoding: chunked.
			chunked := func(n int) *http.Response {
				body := io.MultiReader(bytes.NewReader(make([]byte, n)))
				req, err := http.NewRequest(http.MethodPut, base+"/v1/allocations/f/data", body)
				if err != nil {
					t.Fatalf("new request: %v", err)
				}
				req.Header.Set(httpapi.TenantHeader, "t1")
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatalf("do: %v", err)
				}
				resp.Body.Close()
				return resp
			}
			if resp := chunked(want - 8); resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("chunked undersized status = %d, want 400", resp.StatusCode)
			}
			if resp := chunked(want + 8); resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Fatalf("chunked oversized status = %d, want 413", resp.StatusCode)
			}

			// Neither rejected body may have touched a single element.
			got, err := c.Download(ctx, "f")
			if err != nil {
				t.Fatalf("download: %v", err)
			}
			valbitsEqual(t, got, vals, "field after rejected chunked uploads")
		})
	}
}

// TestConcurrentUploadsSerialize: two racing PUTs to one field must not
// interleave stripe commits — the final field is one payload or the other
// in its entirety, never a stripe-wise mix.
func TestConcurrentUploadsSerialize(t *testing.T) {
	const rows, cols = 32, 32
	eng := core.NewEngine(core.Options{Seed: 5})
	_, base, shutdown := startServer(t, eng, httpapi.ServerConfig{
		Service: service.Config{Workers: 1, QueueDepth: 4},
	})
	defer func() {
		if err := shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	ctx := context.Background()
	c := client.New(client.Config{BaseURL: base, Tenant: "t1"})
	if _, err := c.Register(ctx, httpapi.RegisterRequest{
		Name: "f", Dims: []int{rows, cols}, DType: "float64",
		Policy: httpapi.PolicyInfo{Any: true},
	}); err != nil {
		t.Fatalf("register: %v", err)
	}

	payload := func(v float64) []float64 {
		p := make([]float64, rows*cols)
		for i := range p {
			p[i] = v
		}
		return p
	}
	for round := 0; round < 8; round++ {
		var wg sync.WaitGroup
		for _, v := range []float64{1, 2} {
			wg.Add(1)
			go func(v float64) {
				defer wg.Done()
				if err := c.Upload(ctx, "f", payload(v)); err != nil {
					t.Errorf("upload %v: %v", v, err)
				}
			}(v)
		}
		wg.Wait()
		got, err := c.Download(ctx, "f")
		if err != nil {
			t.Fatalf("download: %v", err)
		}
		for i := 1; i < len(got); i++ {
			if got[i] != got[0] {
				t.Fatalf("round %d: field mixes payloads: element 0 = %v, element %d = %v",
					round, got[0], i, got[i])
			}
		}
	}
}

// TestFailedRegisterLeavesNoOrphanFile: when an mmap-mode registration fails
// after the backing file was created, the file must be deleted — an orphaned
// zero-filled file would make every future registration of that tenant/name
// with a different shape fail as torn. A duplicate-name failure, by
// contrast, must NOT delete the live registration's backing file.
func TestFailedRegisterLeavesNoOrphanFile(t *testing.T) {
	const rows, cols = 8, 8
	dataDir := t.TempDir()
	eng := core.NewEngine(core.Options{Seed: 9})
	_, base, shutdown := startServer(t, eng, httpapi.ServerConfig{
		Service:    service.Config{Workers: 1, QueueDepth: 4},
		FieldStore: httpapi.FieldStoreMmap,
		DataDir:    dataDir,
	})
	defer func() {
		if err := shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	ctx := context.Background()
	c := client.New(client.Config{BaseURL: base, Tenant: "t1"})
	if _, err := c.Register(ctx, httpapi.RegisterRequest{
		Name: "f", Dims: []int{rows, cols}, DType: "float64",
		Policy: httpapi.PolicyInfo{Any: true},
	}); err != nil {
		t.Fatalf("register: %v", err)
	}
	vals := smoothField(rows, cols)
	if err := c.Upload(ctx, "f", vals); err != nil {
		t.Fatalf("upload: %v", err)
	}

	// Duplicate name: rejected, and the live registration's backing file and
	// contents survive untouched.
	if _, err := c.Register(ctx, httpapi.RegisterRequest{
		Name: "f", Dims: []int{rows, cols}, DType: "float64",
		Policy: httpapi.PolicyInfo{Any: true},
	}); err == nil {
		t.Fatal("duplicate register succeeded")
	}
	if _, err := os.Stat(httpapi.FieldPath(dataDir, "t1", "f")); err != nil {
		t.Fatalf("live backing file gone after duplicate register: %v", err)
	}
	got, err := c.Download(ctx, "f")
	if err != nil {
		t.Fatalf("download: %v", err)
	}
	valbitsEqual(t, got, vals, "field after duplicate register")
}

// TestRecoverReplaysAfterCrashOnMmap: an explicit /recover is journaled like
// an event. The process dies between the in-place write and the journaled
// outcome; a server restarted over the same data dir re-registers the
// persisted field before it starts, and its journal replay must
// re-quarantine the cell, recover it to the value the dead process wrote,
// and leave the journal closed.
func TestRecoverReplaysAfterCrashOnMmap(t *testing.T) {
	const rows, cols, off, bit = 16, 16, 119, 62
	dataDir := t.TempDir()
	jpath := filepath.Join(dataDir, "journal.jsonl")
	cfg := httpapi.ServerConfig{
		EnableInject: true,
		Service:      service.Config{Workers: 1, QueueDepth: 4, JournalPath: jpath},
		FieldStore:   httpapi.FieldStoreMmap,
		DataDir:      dataDir,
	}
	ctx := context.Background()

	// First life: the /recover dies at the armed crash point.
	defer faultinject.DisarmCrashes()
	_, base1, shutdown1 := startServer(t, core.NewEngine(core.Options{Seed: 7}), cfg)
	c1 := client.New(client.Config{BaseURL: base1, Tenant: "t1"})
	if _, err := c1.Register(ctx, httpapi.RegisterRequest{
		Name: "f", Dims: []int{rows, cols}, DType: "float64",
		Policy: httpapi.PolicyInfo{Method: "Lorenzo 1-Layer"},
	}); err != nil {
		t.Fatalf("register: %v", err)
	}
	if err := c1.Upload(ctx, "f", smoothField(rows, cols)); err != nil {
		t.Fatalf("upload: %v", err)
	}
	o, b := off, bit
	if _, err := c1.Inject(ctx, "f", httpapi.InjectRequest{Offset: &o, Bit: &b}); err != nil {
		t.Fatalf("inject: %v", err)
	}
	faultinject.ArmCrash("service/recovery-done")
	if _, err := c1.Recover(ctx, "f", off); !errors.Is(err, service.ErrStopped) {
		t.Fatalf("recover through a crash: err = %v, want the service stopped", err)
	}
	written, err := c1.Element(ctx, "f", off)
	if err != nil {
		t.Fatalf("element after the crash: %v", err)
	}
	if err := shutdown1(); err != nil {
		t.Fatalf("shutdown server 1: %v", err)
	}

	// Second life: the field is remapped and registered before the server
	// (and its journal replay) starts; the replay parks at its first ladder
	// stage so the re-quarantine can be observed.
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	eng2 := core.NewEngine(core.Options{Seed: 7, StageHook: func(core.StageEvent) {
		once.Do(func() { close(parked); <-release })
	}})
	st, err := mmapstore.OpenOrCreate(httpapi.FieldPath(dataDir, "t1", "f"), rows*cols)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := ndarray.NewWithBacking(st, rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := eng2.ProtectTenant("t1", "f", arr, bitflip.Float64, registry.RecoverWith(predict.MethodLorenzo1))
	if err != nil {
		t.Fatal(err)
	}
	srv2, base2, shutdown2 := startServer(t, eng2, cfg)
	<-parked
	if !eng2.IsQuarantined(alloc, off) {
		t.Error("replay did not re-quarantine the cell")
	}
	close(release)
	c2 := client.New(client.Config{BaseURL: base2, Tenant: "t1"})
	var rec *httpapi.OutcomeRecord
	for deadline := time.Now().Add(10 * time.Second); rec == nil; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no replayed outcome")
		}
		page, err := c2.Outcomes(ctx, 0, "f", 0)
		if err != nil {
			t.Fatalf("outcomes: %v", err)
		}
		for i := range page.Outcomes {
			if page.Outcomes[i].Offset == off && page.Outcomes[i].Replayed {
				rec = &page.Outcomes[i]
			}
		}
	}
	if !rec.OK || rec.NewBits != written.ValueBits {
		t.Errorf("replayed outcome = %+v, want ok with the bits %x the dead process wrote", rec, written.ValueBits)
	}
	if got := srv2.Service().Stats().Replayed; got != 1 {
		t.Errorf("Replayed = %d, want 1", got)
	}
	if eng2.IsQuarantined(alloc, off) {
		t.Error("cell still quarantined after the replayed recovery")
	}
	if err := shutdown2(); err != nil {
		t.Fatalf("shutdown server 2: %v", err)
	}
	jr, dangling, err := journal.OpenRecovery(jpath, false)
	if err != nil {
		t.Fatalf("reopen journal: %v", err)
	}
	defer jr.Close()
	if len(dangling) != 0 {
		t.Errorf("%d dangling intents after the replay: %+v", len(dangling), dangling)
	}
}
