package httpapi_test

import (
	"context"
	"errors"
	"net"
	"net/http"
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

// TestGracefulShutdownDrainsJournal proves the shutdown ordering contract:
// cancelling Run stops the listener, settles bank-latched events into the
// pool, and drains the service — so when Run returns, every journaled
// intent has a journaled outcome. A crash would replay; a graceful stop
// must not need to.
func TestGracefulShutdownDrainsJournal(t *testing.T) {
	const rows, cols = 16, 16
	const events = 12
	jpath := filepath.Join(t.TempDir(), "recovery.jsonl")

	eng := core.NewEngine(core.Options{
		Seed: 5,
		// Slow recoveries guarantee work is still queued (and some events
		// still bank-latched) at the moment shutdown starts.
		StageHook: func(core.StageEvent) { time.Sleep(5 * time.Millisecond) },
	})
	srv, err := httpapi.NewServer(eng, httpapi.ServerConfig{
		EnableInject:   true,
		RedeliverEvery: 5 * time.Millisecond,
		Service: service.Config{
			Workers: 1, QueueDepth: 2,
			JournalPath: jpath, JournalSync: true,
		},
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx, l) }()

	cctx := context.Background()
	c := client.New(client.Config{BaseURL: "http://" + l.Addr().String(), Tenant: "shut"})
	if _, err := c.Register(cctx, httpapi.RegisterRequest{
		Name: "field", Dims: []int{rows, cols}, DType: "float32",
		Policy: httpapi.PolicyInfo{Any: true},
	}); err != nil {
		t.Fatalf("register: %v", err)
	}
	if err := c.Upload(cctx, "field", smoothField(rows, cols)); err != nil {
		t.Fatalf("upload: %v", err)
	}

	injected := make([]*httpapi.InjectReport, events)
	for n := 0; n < events; n++ {
		off := n * 11 % (rows * cols)
		inj, err := c.Inject(cctx, "field", httpapi.InjectRequest{Offset: &off})
		if err != nil {
			t.Fatalf("inject %d: %v", n, err)
		}
		injected[n] = inj
	}
	// A single ingest that runs on its request goroutine returns only once
	// its recovery does, so the events go out together: the rest queue or
	// latch behind the one that holds the only worker token.
	errs := make([]error, events)
	var wg sync.WaitGroup
	for n, inj := range injected {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[n] = c.Ingest(cctx, httpapi.EventRequest{Addr: inj.Addr, Bit: inj.Bit})
		}()
	}
	wg.Wait()
	accepted, latched := 0, 0
	for n, err := range errs {
		switch {
		case err == nil:
			accepted++
		case errors.Is(err, service.ErrOverloaded):
			latched++
		default:
			t.Fatalf("ingest %d: %v", n, err)
		}
	}
	if accepted == 0 {
		t.Fatal("no events accepted; nothing to drain")
	}

	// Shut down while recoveries are still in flight (and, with a 1-worker
	// pool and 5ms stages, almost certainly still queued or latched).
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("Run did not return")
	}

	st := srv.Service().Stats()
	t.Logf("at shutdown: %d accepted + %d latched ingests; service accepted %d, recovered %d, failed %d",
		accepted, latched, st.Accepted, st.Recovered, st.Failed)
	if st.Accepted != st.Recovered+st.Failed {
		t.Fatalf("drain lost work: %d accepted but only %d recovered + %d failed",
			st.Accepted, st.Recovered, st.Failed)
	}

	// The journal must be fully resolved: reopening it finds no unfinished
	// intents to replay.
	jr, unfinished, err := journal.OpenRecovery(jpath, false)
	if err != nil {
		t.Fatalf("reopen journal: %v", err)
	}
	defer jr.Close()
	if len(unfinished) != 0 {
		t.Fatalf("%d journaled intents lost their outcomes across graceful shutdown: %+v",
			len(unfinished), unfinished)
	}

	// Post-drain submissions are refused, not silently dropped.
	if _, err := c.Ingest(cctx, httpapi.EventRequest{Addr: injected[0].Addr}); err == nil {
		t.Fatal("ingest after shutdown succeeded")
	}
}

// TestShutdownClosesSilentConnections: a connection that was dialled and
// never sent a request does not hold up a graceful stop (net/http alone
// would wait 5 s for it), while a request in flight when the stop begins
// still completes.
func TestShutdownClosesSilentConnections(t *testing.T) {
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	eng := core.NewEngine(core.Options{Seed: 9, StageHook: func(core.StageEvent) {
		once.Do(func() { close(parked) })
		<-release
	}})
	srv, err := httpapi.NewServer(eng, httpapi.ServerConfig{EnableInject: true})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx, l) }()

	cctx := context.Background()
	c := client.New(client.Config{BaseURL: "http://" + l.Addr().String(), Tenant: "silent"})
	if _, err := c.Register(cctx, httpapi.RegisterRequest{
		Name: "field", Dims: []int{16, 16}, DType: "float32", Policy: httpapi.PolicyInfo{Any: true},
	}); err != nil {
		t.Fatalf("register: %v", err)
	}
	if err := c.Upload(cctx, "field", smoothField(16, 16)); err != nil {
		t.Fatalf("upload: %v", err)
	}
	off := 17
	inj, err := c.Inject(cctx, "field", httpapi.InjectRequest{Offset: &off})
	if err != nil {
		t.Fatalf("inject: %v", err)
	}

	// The silent connection is dialled before the ingest's, so the server
	// has accepted it by the time it serves the ingest.
	silent, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer silent.Close()
	fresh := client.New(client.Config{BaseURL: "http://" + l.Addr().String(), Tenant: "silent",
		HTTPClient: &http.Client{Transport: &http.Transport{}}})
	ingested := make(chan error, 1)
	go func() {
		_, err := fresh.Ingest(cctx, httpapi.EventRequest{Addr: inj.Addr, Bit: inj.Bit})
		ingested <- err
	}()
	<-parked

	start := time.Now()
	cancel()
	time.AfterFunc(50*time.Millisecond, func() { close(release) })
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return")
	}
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Errorf("graceful stop took %v with a silent connection open, want well under 1 s", took)
	}
	if err := <-ingested; err != nil {
		t.Errorf("in-flight ingest: %v", err)
	}
}
