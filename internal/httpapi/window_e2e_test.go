package httpapi_test

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"spatialdue/internal/core"
	"spatialdue/internal/httpapi"
	"spatialdue/internal/httpapi/client"
	"spatialdue/internal/journal"
	"spatialdue/internal/service"
)

// runHereServer serves a 16x16 field under tenant "here" on an engine with
// the given stage hook, and plants one fault at offset off.
func runHereServer(t *testing.T, hook func(core.StageEvent), off int) (*httpapi.Server, *client.Client, *httpapi.InjectReport, func() error) {
	t.Helper()
	return windowServer(t, hook, httpapi.ServerConfig{Service: service.Config{Workers: 2, QueueDepth: 8}}, off)
}

// windowServer is runHereServer with the server configuration spelled out.
func windowServer(t *testing.T, hook func(core.StageEvent), cfg httpapi.ServerConfig, off int) (*httpapi.Server, *client.Client, *httpapi.InjectReport, func() error) {
	t.Helper()
	const rows, cols = 16, 16
	eng := core.NewEngine(core.Options{Seed: 9, StageHook: hook})
	cfg.EnableInject = true
	srv, base, shutdown := startServer(t, eng, cfg)
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

// TestSingleEventOutcomeBeforeReply: a single POST /v1/events runs on its
// request goroutine, so its outcome is in the feed when the 202 arrives.
// The slow ladder stage keeps a recovery run anywhere else from finishing
// before the reply could.
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

// TestTickerOffRedeliversOnRelease: with the redelivery ticker off, an
// event latched while the only token is held recovers once the holders
// finish: every token release redelivers latched events.
func TestTickerOffRedeliversOnRelease(t *testing.T) {
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	hook := func(core.StageEvent) {
		once.Do(func() { close(parked) })
		<-release
	}
	srv, c, inj, shutdown := windowServer(t, hook, httpapi.ServerConfig{
		RedeliverEvery: -1,
		Service:        service.Config{Workers: 1, QueueDepth: 1},
	}, 17)
	defer func() {
		if err := shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	ctx := context.Background()
	var offs []int
	var evs []httpapi.EventRequest
	for _, off := range []int{17, 119, 221} {
		if off != inj.Offset {
			var err error
			if inj, err = c.Inject(ctx, "field", httpapi.InjectRequest{Offset: &off}); err != nil {
				t.Fatalf("inject %d: %v", off, err)
			}
		}
		offs = append(offs, off)
		evs = append(evs, httpapi.EventRequest{Addr: inj.Addr, Bit: inj.Bit})
	}

	// The first event's recovery holds the only token; the second is
	// admitted and waits for it; the third finds the bound reached.
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
	if res, err := c.Ingest(ctx, evs[2]); !errors.Is(err, service.ErrOverloaded) || res.Status != httpapi.StatusLatched {
		t.Fatalf("third ingest = %+v, %v; want latched", res, err)
	}

	close(release)
	for range 2 {
		if err := <-ingested; err != nil {
			t.Fatal(err)
		}
	}
	pending := map[int]bool{offs[0]: true, offs[1]: true, offs[2]: true}
	var cursor uint64
	for len(pending) > 0 && time.Now().Before(deadline) {
		page, err := c.Outcomes(ctx, cursor, "field", 10)
		if err != nil {
			t.Fatalf("outcomes: %v", err)
		}
		cursor = page.Next
		for _, rec := range page.Outcomes {
			if rec.OK {
				delete(pending, rec.Offset)
			}
		}
		if len(page.Outcomes) == 0 {
			time.Sleep(2 * time.Millisecond)
		}
	}
	if len(pending) > 0 {
		t.Fatalf("offsets %v never recovered with the ticker off", pending)
	}
}

// TestQueuedRaiseAnswersLatched: an event that finds every bank's record
// mid-delivery waits on the MCA's overflow queue. No handler has seen it, so
// the ingest answers latched (429, do not resend), not accepted; once the
// banks free, the event recovers exactly once, with one journal intent and
// one outcome.
func TestQueuedRaiseAnswersLatched(t *testing.T) {
	// One bank: the 16x16 field is a single lock stripe, so a second
	// recovery parked inside its handler would wait for the first's stripe
	// rather than its ladder stage.
	const banks = 1
	release := make(chan struct{})
	parked := make(chan struct{}, banks)
	hook := func(core.StageEvent) {
		select {
		case <-release:
			return
		default:
		}
		parked <- struct{}{}
		<-release
	}
	jpath := filepath.Join(t.TempDir(), "journal")
	srv, c, inj, shutdown := windowServer(t, hook, httpapi.ServerConfig{
		Banks:          banks,
		RedeliverEvery: -1,
		Service:        service.Config{Workers: banks, QueueDepth: banks, Deadline: -1, JournalPath: jpath},
	}, 17)
	stopped := false
	defer func() {
		if !stopped {
			_ = shutdown()
		}
	}()
	unpark := sync.OnceFunc(func() { close(release) })
	defer unpark() // before the shutdown above, which waits for the parked recovery
	ctx := context.Background()
	reports := []*httpapi.InjectReport{inj}
	for _, off := range []int{119, 221}[:banks] {
		r, err := c.Inject(ctx, "field", httpapi.InjectRequest{Offset: &off})
		if err != nil {
			t.Fatalf("inject %d: %v", off, err)
		}
		reports = append(reports, r)
	}

	// A fault discovered by a demand access outside any request latches the
	// bank and recovers inside its handler, parked at its first ladder
	// stage, so the bank stays mid-delivery.
	touched := make(chan error, banks)
	for _, r := range reports[:banks] {
		go func() {
			_, err := srv.Machine().Touch(r.Addr, 4)
			touched <- err
		}()
	}
	for range banks {
		<-parked
	}
	queued := reports[banks]
	res, err := c.Ingest(ctx, httpapi.EventRequest{Addr: queued.Addr, Bit: queued.Bit})
	var apiErr *httpapi.Error
	if !errors.Is(err, service.ErrOverloaded) || !errors.As(err, &apiErr) || !apiErr.Latched || res == nil || res.Status != httpapi.StatusLatched {
		t.Fatalf("ingest behind busy banks = %+v, %v; want latched", res, err)
	}
	if n := srv.Machine().PendingOverflow(); n != 1 {
		t.Fatalf("%d events on the overflow queue, want 1", n)
	}

	unpark()
	for range banks {
		if err := <-touched; err != nil {
			t.Fatalf("parked delivery: %v", err)
		}
	}
	oks := map[int]int{}
	deadline := time.Now().Add(10 * time.Second)
	var cursor uint64
	for oks[queued.Offset] == 0 && time.Now().Before(deadline) {
		page, err := c.Outcomes(ctx, cursor, "field", 10)
		if err != nil {
			t.Fatalf("outcomes: %v", err)
		}
		cursor = page.Next
		for _, rec := range page.Outcomes {
			if rec.OK {
				oks[rec.Offset]++
			}
		}
		if len(page.Outcomes) == 0 {
			time.Sleep(2 * time.Millisecond)
		}
	}
	stopped = true
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for _, r := range reports {
		if oks[r.Offset] != 1 {
			t.Errorf("offset %d: %d ok outcomes, want 1", r.Offset, oks[r.Offset])
		}
	}

	intents, outcomes := map[int]int{}, map[int]int{}
	offOf := map[uint64]int{}
	if err := journal.Scan(jpath, func(line []byte) error {
		rec, err := journal.DecodeRecord(line)
		if err != nil {
			return err
		}
		switch rec.Kind {
		case journal.KindIntent:
			offOf[rec.Intent.ID] = rec.Intent.Offset
			intents[rec.Intent.Offset]++
		case journal.KindOutcome:
			if rec.Outcome.OK {
				outcomes[offOf[rec.Outcome.ID]]++
			}
		}
		return nil
	}); err != nil {
		t.Fatalf("scan journal: %v", err)
	}
	if intents[queued.Offset] != 1 || outcomes[queued.Offset] != 1 {
		t.Errorf("journal: %d intents and %d ok outcomes for the queued event, want 1 and 1",
			intents[queued.Offset], outcomes[queued.Offset])
	}
}
