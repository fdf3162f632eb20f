package httpapi_test

import (
	"context"
	"errors"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"spatialdue/internal/core"
	"spatialdue/internal/httpapi"
	"spatialdue/internal/httpapi/client"
	"spatialdue/internal/registry"
	"spatialdue/internal/service"
)

// TestLatchedReportsKeepTheirTraces: two reports of one alloc+offset that
// both latch behind a parked token each keep the trace their ingest
// answered, because each bank record carries its own event. Once the token
// frees, the outcome feed holds both trace IDs.
func TestLatchedReportsKeepTheirTraces(t *testing.T) {
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	hook := func(core.StageEvent) {
		once.Do(func() { close(parked) })
		<-release
	}
	srv, c, inj, shutdown := windowServer(t, hook, httpapi.ServerConfig{
		RedeliverEvery: -1,
		Service:        service.Config{Workers: 1, QueueDepth: 1, Deadline: -1},
	}, 17)
	unpark := sync.OnceFunc(func() { close(release) })
	defer func() {
		unpark()
		if err := shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	ctx := context.Background()
	evs := []httpapi.EventRequest{{Addr: inj.Addr, Bit: inj.Bit}}
	for _, off := range []int{119, 221} {
		r, err := c.Inject(ctx, "field", httpapi.InjectRequest{Offset: &off})
		if err != nil {
			t.Fatalf("inject %d: %v", off, err)
		}
		evs = append(evs, httpapi.EventRequest{Addr: r.Addr, Bit: r.Bit})
	}

	// The first event's recovery holds the only token; the second is
	// admitted and waits for it, taking the one admission slot.
	ingested := make(chan error, 2)
	go func() { _, err := c.Ingest(ctx, evs[0]); ingested <- err }()
	<-parked
	go func() { _, err := c.Ingest(ctx, evs[1]); ingested <- err }()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Service().QueueLen() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second event never waited for the token")
		}
		time.Sleep(time.Millisecond)
	}

	// Two reports of offset 221, each with its own traceparent: both latch.
	off := 221
	var want []string
	for _, id := range []string{"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb"} {
		res, err := c.IngestTraced(ctx, httpapi.EventRequest{Alloc: "field", Offset: &off},
			"00-"+id+"-00f067aa0ba902b7-01")
		if !errors.Is(err, service.ErrOverloaded) || res == nil || res.Status != httpapi.StatusLatched || res.TraceID != id {
			t.Fatalf("report traced %s = %+v, %v; want latched under its trace", id, res, err)
		}
		want = append(want, id)
	}
	if n := len(srv.Machine().LatchedBanks()); n != 2 {
		t.Fatalf("%d banks latched, want 2", n)
	}

	unpark()
	for range 2 {
		if err := <-ingested; err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	var cursor uint64
	for len(got) < 2 && time.Now().Before(deadline) {
		page, err := c.Outcomes(ctx, cursor, "field", 10)
		if err != nil {
			t.Fatalf("outcomes: %v", err)
		}
		cursor = page.Next
		for _, rec := range page.Outcomes {
			if rec.Offset == off {
				got = append(got, rec.TraceID)
			}
		}
		if len(page.Outcomes) == 0 {
			time.Sleep(2 * time.Millisecond)
		}
	}
	sort.Strings(got)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("outcome traces for offset %d = %v, want %v", off, got, want)
	}
}

// refusedEventServer serves a 32x32 field whose descriptor is corrupted
// beyond what its parity reconstructs, and posts one alloc+offset event on
// it, which must be refused with 422 metadata_corrupt.
func refusedEventServer(t *testing.T) (*httpapi.Server, string, func() error) {
	t.Helper()
	const rows, cols = 32, 32
	srv, base, shutdown := startServer(t, core.NewEngine(core.Options{Seed: 9}), httpapi.ServerConfig{
		EnableInject: true,
		Service:      service.Config{Workers: 2, QueueDepth: 16},
	})
	ctx := context.Background()
	c := client.New(client.Config{BaseURL: base, Tenant: "t1"})
	if _, err := c.Register(ctx, httpapi.RegisterRequest{
		Name: "field", Dims: []int{rows, cols}, DType: "float32",
		Policy: httpapi.PolicyInfo{Any: true, Range: &httpapi.RangeInfo{Lo: 50, Hi: 150}},
	}); err != nil {
		t.Fatalf("register: %v", err)
	}
	if err := c.Upload(ctx, "field", smoothField(rows, cols)); err != nil {
		t.Fatalf("upload: %v", err)
	}
	// Descriptor bytes 0, 1 and 2 lie in three parity shards: more than
	// the two parity shards reconstruct.
	for _, b := range []int{0, 8, 16} {
		if _, err := c.Inject(ctx, "field", httpapi.InjectRequest{Class: "metadata", Bit: &b}); err != nil {
			t.Fatalf("inject metadata bit %d: %v", b, err)
		}
	}
	off := 117
	res, err := c.Ingest(ctx, httpapi.EventRequest{Alloc: "field", Offset: &off})
	var apiErr *httpapi.Error
	if !errors.Is(err, registry.ErrMetadataCorrupt) || !errors.As(err, &apiErr) ||
		apiErr.Status != http.StatusUnprocessableEntity || apiErr.Latched ||
		res == nil || res.Status != httpapi.StatusRejected {
		t.Fatalf("event on a corrupt descriptor = %+v, %v; want rejected 422 %s", res, err, httpapi.CodeMetadataCorrupt)
	}
	return srv, base, shutdown
}

// TestRefusedEventIsConsumed: an event the service refuses is consumed by
// its one delivery. Its bank is not left latched, so the redelivery loop
// does not refuse it again and again.
func TestRefusedEventIsConsumed(t *testing.T) {
	srv, base, shutdown := refusedEventServer(t)
	defer func() {
		if err := shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	// Several periods of the default 25 ms redelivery loop.
	time.Sleep(300 * time.Millisecond)
	if banks := srv.Machine().LatchedBanks(); len(banks) != 0 {
		t.Errorf("banks %v still latched after the refusal", banks)
	}
	if metrics := fetchMetrics(t, base); !strings.Contains(metrics, "spatialdue_descriptor_refusals_total 1\n") {
		t.Errorf("want exactly one descriptor refusal:\n%s", grepMetrics(metrics, "descriptor"))
	}
}

// TestRefusedEventDoesNotHoldStop: a refused event leaves nothing for the
// graceful stop to settle, so the stop returns at once instead of waiting
// out its drain bound.
func TestRefusedEventDoesNotHoldStop(t *testing.T) {
	_, _, shutdown := refusedEventServer(t)
	start := time.Now()
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("graceful stop took %v, want under 1s", d)
	}
}
