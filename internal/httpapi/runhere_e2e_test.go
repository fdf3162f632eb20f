package httpapi_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"spatialdue/internal/core"
	"spatialdue/internal/httpapi"
	"spatialdue/internal/httpapi/client"
	"spatialdue/internal/service"
)

// runHereServer serves a 16x16 field under tenant "here" on an engine with
// the given stage hook, and plants one fault at offset off.
func runHereServer(t *testing.T, hook func(core.StageEvent), off int) (*httpapi.Server, *client.Client, *httpapi.InjectReport, func() error) {
	t.Helper()
	const rows, cols = 16, 16
	eng := core.NewEngine(core.Options{Seed: 9, StageHook: hook})
	srv, base, shutdown := startServer(t, eng, httpapi.ServerConfig{
		EnableInject: true,
		Service:      service.Config{Workers: 2, QueueDepth: 8},
	})
	ctx := context.Background()
	c := client.New(client.Config{BaseURL: base, Tenant: "here"})
	if _, err := c.Register(ctx, httpapi.RegisterRequest{
		Name: "field", Dims: []int{rows, cols}, DType: "float32",
		Policy: httpapi.PolicyInfo{Any: true, Range: &httpapi.RangeInfo{Lo: 50, Hi: 150}},
	}); err != nil {
		t.Fatalf("register: %v", err)
	}
	if err := c.Upload(ctx, "field", smoothField(rows, cols)); err != nil {
		t.Fatalf("upload: %v", err)
	}
	inj, err := c.Inject(ctx, "field", httpapi.InjectRequest{Offset: &off})
	if err != nil {
		t.Fatalf("inject: %v", err)
	}
	return srv, c, inj, shutdown
}

// TestSingleEventOutcomeBeforeReply: on an idle server a single POST
// /v1/events runs on its request goroutine, so its outcome is in the feed
// when the 202 arrives. The slow ladder stage keeps a queued recovery from
// finishing before the reply could.
func TestSingleEventOutcomeBeforeReply(t *testing.T) {
	srv, c, inj, shutdown := runHereServer(t, func(core.StageEvent) { time.Sleep(20 * time.Millisecond) }, 117)
	defer func() {
		if err := shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	ctx := context.Background()
	res, err := c.Ingest(ctx, httpapi.EventRequest{Addr: inj.Addr, Bit: inj.Bit})
	if err != nil || res.Status != httpapi.StatusAccepted {
		t.Fatalf("ingest = %+v, %v; want accepted", res, err)
	}
	page, err := c.Outcomes(ctx, 0, "field", 10)
	if err != nil {
		t.Fatalf("outcomes: %v", err)
	}
	if len(page.Outcomes) != 1 || !page.Outcomes[0].OK || page.Outcomes[0].Offset != 117 ||
		page.Outcomes[0].TraceID != res.TraceID {
		t.Fatalf("feed right after the reply = %+v, want the one recovery of 117 (trace %s)", page.Outcomes, res.TraceID)
	}
	if st := srv.Service().Stats(); st.Recovered != 1 || st.Batched != 0 {
		t.Errorf("service stats = %+v, want 1 recovered, none batched", st)
	}
}

// TestClientHangUpDoesNotAbandonRecovery: a single event's recovery runs on
// the request goroutine but never sees the request's context, so a client
// that hangs up mid-recovery does not cancel it.
func TestClientHangUpDoesNotAbandonRecovery(t *testing.T) {
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	srv, c, inj, shutdown := runHereServer(t, func(core.StageEvent) {
		once.Do(func() { close(parked) })
		<-release
	}, 117)
	defer func() {
		if err := shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	reqCtx, hangUp := context.WithCancel(context.Background())
	ingested := make(chan error, 1)
	go func() {
		_, err := c.Ingest(reqCtx, httpapi.EventRequest{Addr: inj.Addr, Bit: inj.Bit})
		ingested <- err
	}()
	<-parked
	hangUp()
	if err := <-ingested; !errors.Is(err, context.Canceled) {
		t.Fatalf("ingest after hang-up = %v, want context.Canceled", err)
	}
	close(release)

	ctx := context.Background()
	deadline := time.Now().Add(10 * time.Second)
	var recs []httpapi.OutcomeRecord
	for len(recs) == 0 && time.Now().Before(deadline) {
		page, err := c.Outcomes(ctx, 0, "field", 10)
		if err != nil {
			t.Fatalf("outcomes: %v", err)
		}
		recs = page.Outcomes
		if len(recs) == 0 {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if len(recs) != 1 || !recs[0].OK || recs[0].Attempts != 1 {
		t.Fatalf("outcomes = %+v, want one clean first-attempt recovery", recs)
	}
	if st := srv.Service().Stats(); st.Abandoned != 0 || st.Retries != 0 {
		t.Errorf("service stats = %+v, want nothing abandoned or retried", st)
	}
	if q, err := c.Quarantine(ctx); err != nil || q.Total != 0 {
		t.Errorf("quarantine = %+v, %v; want empty", q, err)
	}
}
