package httpapi_test

import (
	"context"
	"math"
	"path/filepath"
	"testing"
	"time"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/core"
	"spatialdue/internal/httpapi"
	"spatialdue/internal/httpapi/client"
	"spatialdue/internal/journal"
	"spatialdue/internal/ndarray"
	"spatialdue/internal/registry"
	"spatialdue/internal/service"
)

// TestStreamMatchesSequential pins the NDJSON path to the library: one
// client streams 130 injected events (past two 64-line result flushes) to a
// one-worker server with the tune cache on, and every recovered cell must
// carry the bits an in-process engine's RecoverElement produces for the
// same corruption in submission order. The sites sit 12 cells apart, so no
// site lies in another's stencil or auto-tune probe patch. The journal must
// hold one intent and one outcome per event, both in submission order.
func TestStreamMatchesSequential(t *testing.T) {
	const (
		rows, cols = 128, 160
		seed       = 31
		spacing    = 12
	)
	vals := smoothField(rows, cols)
	policy := httpapi.PolicyInfo{Any: true, Range: &httpapi.RangeInfo{Lo: 50, Hi: 150}}
	jpath := filepath.Join(t.TempDir(), "journal")

	eng := core.NewEngine(core.Options{Seed: seed, TuneCacheBlock: 8})
	_, base, shutdown := startServer(t, eng, httpapi.ServerConfig{
		EnableInject: true,
		Service:      service.Config{Workers: 1, QueueDepth: 256, JournalPath: jpath},
	})
	stopped := false
	defer func() {
		if !stopped {
			_ = shutdown()
		}
	}()

	ctx := context.Background()
	c := client.New(client.Config{BaseURL: base, Tenant: "seq"})
	if _, err := c.Register(ctx, httpapi.RegisterRequest{
		Name: "field", Dims: []int{rows, cols}, DType: "float32", Policy: policy,
	}); err != nil {
		t.Fatalf("register: %v", err)
	}
	if err := c.Upload(ctx, "field", vals); err != nil {
		t.Fatalf("upload: %v", err)
	}
	stored, err := c.Download(ctx, "field")
	if err != nil {
		t.Fatalf("download: %v", err)
	}

	var offs []int
	var evs []httpapi.EventRequest
	corrupted := map[int]uint64{}
	for r := spacing / 2; r+spacing/2 <= rows; r += spacing {
		for col := spacing / 2; col+spacing/2 <= cols; col += spacing {
			off := r*cols + col
			inj, err := c.Inject(ctx, "field", httpapi.InjectRequest{Offset: &off})
			if err != nil {
				t.Fatalf("inject %d: %v", off, err)
			}
			offs = append(offs, off)
			evs = append(evs, httpapi.EventRequest{Addr: inj.Addr, Bit: inj.Bit})
			corrupted[off] = inj.CorruptedBits
		}
	}
	if len(offs) != 130 {
		t.Fatalf("laid out %d sites, want 130", len(offs))
	}

	results, err := c.IngestBatch(ctx, evs)
	if err != nil {
		t.Fatalf("ingest batch: %v", err)
	}
	if len(results) != len(evs) {
		t.Fatalf("got %d result lines for %d events", len(results), len(evs))
	}
	for i, res := range results {
		if res.Status != httpapi.StatusAccepted {
			t.Fatalf("line %d: status %q (error %+v), want accepted", i, res.Status, res.Error)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		q, err := c.Quarantine(ctx)
		if err != nil {
			t.Fatalf("quarantine: %v", err)
		}
		if q.Total == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d cells still quarantined", q.Total)
		}
		time.Sleep(2 * time.Millisecond)
	}
	got, err := c.Download(ctx, "field")
	if err != nil {
		t.Fatalf("download: %v", err)
	}
	stopped = true
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Reference: the same field and corruption, recovered in process one
	// element at a time in submission order.
	refEng := core.NewEngine(core.Options{Seed: seed, TuneCacheBlock: 8})
	refArr := ndarray.New(rows, cols)
	copy(refArr.Data(), stored)
	refAlloc := refEng.Protect("field", refArr, bitflip.Float32, registry.RecoverAny().WithRange(50, 150))
	for _, off := range offs {
		refArr.SetOffset(off, math.Float64frombits(corrupted[off]))
	}
	for i, off := range offs {
		if _, err := refEng.RecoverElement(refAlloc, off); err != nil {
			t.Fatalf("reference recovery %d (offset %d): %v", i, off, err)
		}
	}
	for off := range got {
		if math.Float64bits(got[off]) != math.Float64bits(refArr.AtOffset(off)) {
			t.Errorf("offset %d: streamed %x, sequential %x",
				off, math.Float64bits(got[off]), math.Float64bits(refArr.AtOffset(off)))
		}
	}

	// The journal: intents in submission order, then one ok outcome per
	// intent, also in submission order.
	var intents, outcomes []int
	offOf := map[uint64]int{}
	if err := journal.Scan(jpath, func(line []byte) error {
		rec, err := journal.DecodeRecord(line)
		if err != nil {
			return err
		}
		switch rec.Kind {
		case journal.KindIntent:
			offOf[rec.Intent.ID] = rec.Intent.Offset
			intents = append(intents, rec.Intent.Offset)
		case journal.KindOutcome:
			off, ok := offOf[rec.Outcome.ID]
			if !ok || !rec.Outcome.OK {
				t.Errorf("outcome %+v: no earlier intent, or not ok", rec.Outcome)
			}
			outcomes = append(outcomes, off)
		}
		return nil
	}); err != nil {
		t.Fatalf("scan journal: %v", err)
	}
	for name, seq := range map[string][]int{"intents": intents, "outcomes": outcomes} {
		if len(seq) != len(offs) {
			t.Fatalf("journal holds %d %s, want %d", len(seq), name, len(offs))
		}
		for i := range offs {
			if seq[i] != offs[i] {
				t.Fatalf("journal %s[%d] is offset %d, want %d (submission order)", name, i, seq[i], offs[i])
			}
		}
	}
}
