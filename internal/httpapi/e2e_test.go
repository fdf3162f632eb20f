package httpapi_test

import (
	"context"
	"errors"
	"math"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/core"
	"spatialdue/internal/httpapi"
	"spatialdue/internal/httpapi/client"
	"spatialdue/internal/ndarray"
	"spatialdue/internal/registry"
	"spatialdue/internal/service"
)

// startServer runs a Server on a loopback listener and returns its base
// URL, plus a shutdown func that cancels Run and waits for the graceful
// drain to finish.
func startServer(t *testing.T, eng *core.Engine, cfg httpapi.ServerConfig) (*httpapi.Server, string, func() error) {
	t.Helper()
	srv, err := httpapi.NewServer(eng, cfg)
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

	base := "http://" + l.Addr().String()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("server never became healthy: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return srv, base, func() error {
		cancel()
		select {
		case err := <-done:
			return err
		case <-time.After(30 * time.Second):
			return errors.New("Run did not return within 30s")
		}
	}
}

// smoothField builds a rows x cols field that spatial prediction
// reconstructs accurately.
func smoothField(rows, cols int) []float64 {
	vals := make([]float64, rows*cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			vals[i*cols+j] = 100 +
				10*math.Sin(2*math.Pi*float64(i)/float64(rows))*
					math.Cos(2*math.Pi*float64(j)/float64(cols))
		}
	}
	return vals
}

// TestEndToEndRecoveryMatchesInProcess proves the wire adds nothing and
// loses nothing: register → upload → inject a bit flip → recover over real
// HTTP, and the reconstructed value is bit-identical to what an in-process
// engine with the same seed produces on the same corruption.
func TestEndToEndRecoveryMatchesInProcess(t *testing.T) {
	const (
		rows, cols = 32, 32
		offset     = 117
		bit        = 30
		seed       = 42
	)
	vals := smoothField(rows, cols)

	eng := core.NewEngine(core.Options{Seed: seed})
	_, base, shutdown := startServer(t, eng, httpapi.ServerConfig{
		EnableInject: true,
		Service:      service.Config{Workers: 2, QueueDepth: 16},
	})
	defer func() {
		if err := shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	ctx := context.Background()
	c := client.New(client.Config{BaseURL: base, Tenant: "t1"})

	alloc, err := c.Register(ctx, httpapi.RegisterRequest{
		Name: "field", Dims: []int{rows, cols}, DType: "float32",
		Policy: httpapi.PolicyInfo{Any: true, Range: &httpapi.RangeInfo{Lo: 50, Hi: 150}},
	})
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	if alloc.Tenant != "t1" || alloc.Elements != rows*cols {
		t.Fatalf("allocation = %+v", alloc)
	}
	if err := c.Upload(ctx, "field", vals); err != nil {
		t.Fatalf("upload: %v", err)
	}

	off := offset
	b := bit
	inj, err := c.Inject(ctx, "field", httpapi.InjectRequest{Offset: &off, Bit: &b})
	if err != nil {
		t.Fatalf("inject: %v", err)
	}
	if inj.Offset != offset || inj.Bit != bit {
		t.Fatalf("inject = %+v, want offset %d bit %d", inj, offset, bit)
	}
	if inj.OrigBits != math.Float64bits(vals[offset]) {
		t.Fatalf("inject orig = %x, want %x", inj.OrigBits, math.Float64bits(vals[offset]))
	}

	rep, err := c.Recover(ctx, "field", offset)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}

	// Reference: the identical recovery, fully in process.
	refEng := core.NewEngine(core.Options{Seed: seed})
	refArr := ndarray.New(rows, cols)
	copy(refArr.Data(), vals)
	refAlloc := refEng.Protect("field", refArr, bitflip.Float32,
		registry.RecoverAny().WithRange(50, 150))
	refArr.SetOffset(offset, bitflip.Flip(vals[offset], bitflip.Float32, bit))
	refOut, err := refEng.RecoverElement(refAlloc, offset)
	if err != nil {
		t.Fatalf("in-process reference recovery: %v", err)
	}

	if math.Float64bits(rep.New) != math.Float64bits(refOut.New) {
		t.Fatalf("HTTP recovery = %v (%x), in-process = %v (%x): wire path diverged",
			rep.New, math.Float64bits(rep.New), refOut.New, math.Float64bits(refOut.New))
	}
	if rep.Method != refOut.Method.String() || rep.Stage != refOut.Stage.String() {
		t.Fatalf("HTTP recovery via %s/%s, in-process via %s/%s",
			rep.Method, rep.Stage, refOut.Method, refOut.Stage)
	}

	// The repaired element reads back recovered and unquarantined.
	el, err := c.Element(ctx, "field", offset)
	if err != nil {
		t.Fatalf("element: %v", err)
	}
	if el.Quarantined {
		t.Fatal("element still quarantined after successful recovery")
	}
	if el.ValueBits != math.Float64bits(refOut.New) {
		t.Fatalf("element valbits = %x, want %x", el.ValueBits, math.Float64bits(refOut.New))
	}

	// Download round-trips the repaired field.
	got, err := c.Download(ctx, "field")
	if err != nil {
		t.Fatalf("download: %v", err)
	}
	if len(got) != rows*cols || math.Float64bits(got[offset]) != math.Float64bits(refOut.New) {
		t.Fatalf("downloaded field does not carry the repaired value")
	}
}

// TestOverloadLatchesAndRedelivers floods a one-worker server: bursts must
// surface as 429/latched (matching service.ErrOverloaded via errors.Is
// across the wire), and every latched event must still recover — delivered
// late by bank redelivery, never dropped.
func TestOverloadLatchesAndRedelivers(t *testing.T) {
	const rows, cols = 16, 16
	const events = 24
	vals := smoothField(rows, cols)

	// The backlog is built deterministically: the first event's recovery
	// parks the only token at its first ladder stage until release closes
	// (no deadline abandons it), one later event takes the one admission
	// slot and waits for the token, and every other one finds the admission
	// bound reached.
	parked, release := make(chan struct{}), make(chan struct{})
	var parkOnce sync.Once
	eng := core.NewEngine(core.Options{
		Seed: 7,
		StageHook: func(core.StageEvent) {
			parkOnce.Do(func() { close(parked) })
			<-release
		},
	})
	srv, base, shutdown := startServer(t, eng, httpapi.ServerConfig{
		EnableInject:   true,
		RedeliverEvery: 5 * time.Millisecond,
		Service:        service.Config{Workers: 1, QueueDepth: 1, Deadline: -1},
	})
	defer func() {
		if err := shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	ctx := context.Background()
	// The concurrent ingests below dial connections the transport may
	// never use; net/http's graceful shutdown counts a new connection as
	// idle only after 5 s, so the test closes them before the server stops.
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	c := client.New(client.Config{BaseURL: base, Tenant: "storm", HTTPClient: &http.Client{Transport: transport}})
	if _, err := c.Register(ctx, httpapi.RegisterRequest{
		Name: "field", Dims: []int{rows, cols}, DType: "float32",
		Policy: httpapi.PolicyInfo{Any: true, Range: &httpapi.RangeInfo{Lo: 50, Hi: 150}},
	}); err != nil {
		t.Fatalf("register: %v", err)
	}
	if err := c.Upload(ctx, "field", vals); err != nil {
		t.Fatalf("upload: %v", err)
	}

	// Plant all faults before reporting any: injection waits on the array's
	// recovery lock, so interleaving it with ingestion would pace the burst
	// to the worker and never build a backlog.
	injected := make([]*httpapi.InjectReport, events)
	for n := 0; n < events; n++ {
		off := n * 7 % (rows * cols) // distinct offsets (7 coprime to 256)
		inj, err := c.Inject(ctx, "field", httpapi.InjectRequest{Offset: &off})
		if err != nil {
			t.Fatalf("inject %d: %v", n, err)
		}
		injected[n] = inj
	}

	// A single ingest returns once its recovery does, so every ingest goes
	// out from a goroutine of its own. The first holds the token until the
	// hook is released; of the rest, one is admitted and blocks with it,
	// and the others come back while the token is still parked: latched,
	// or accepted when every bank was mid-redelivery and the MCA queued the
	// event as an overflow.
	type ingested struct {
		n   int
		res *httpapi.EventResult
		err error
	}
	done := make(chan ingested, events)
	ingest := func(n int) {
		res, err := c.Ingest(ctx, httpapi.EventRequest{Addr: injected[n].Addr, Bit: injected[n].Bit})
		done <- ingested{n, res, err}
	}
	go ingest(0)
	<-parked
	for n := 1; n < events; n++ {
		go ingest(n)
	}

	accepted, latched := 0, 0
	check := func(in ingested) {
		switch {
		case in.err == nil:
			accepted++
		case errors.Is(in.err, service.ErrOverloaded):
			// The sentinel survived the wire; the event stays latched.
			latched++
			if in.res == nil || in.res.Status != httpapi.StatusLatched {
				t.Fatalf("overloaded ingest result = %+v, want latched", in.res)
			}
			var apiErr *httpapi.Error
			if !errors.As(in.err, &apiErr) || apiErr.Status != http.StatusTooManyRequests || !apiErr.Latched {
				t.Fatalf("overloaded ingest error = %#v, want 429 latched", in.err)
			}
		default:
			t.Fatalf("ingest %d: unexpected error %v", in.n, in.err)
		}
	}
	for accepted+latched < events-2 {
		check(<-done)
	}
	if q := srv.Service().QueueLen(); q != 1 || latched == 0 {
		t.Fatalf("with the token parked: %d latched, %d waiting for the token; want some latched and 1 waiting", latched, q)
	}
	close(release)
	for accepted+latched < events {
		check(<-done)
	}
	t.Logf("burst: %d accepted, %d latched (429)", accepted, latched)

	// Every event — latched included — must eventually recover.
	deadline := time.Now().Add(30 * time.Second)
	okOffsets := map[int]bool{}
	var cursor uint64
	for len(okOffsets) < events && time.Now().Before(deadline) {
		page, err := c.Outcomes(ctx, cursor, "field", 1000)
		if err != nil {
			t.Fatalf("outcomes: %v", err)
		}
		cursor = page.Next
		for _, rec := range page.Outcomes {
			if rec.OK {
				okOffsets[rec.Offset] = true
			}
		}
		if len(page.Outcomes) == 0 {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if len(okOffsets) != events {
		t.Fatalf("only %d/%d events recovered: latched events were dropped", len(okOffsets), events)
	}
	for time.Now().Before(deadline) {
		q, err := c.Quarantine(ctx)
		if err != nil {
			t.Fatalf("quarantine: %v", err)
		}
		if q.Total == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if q, _ := c.Quarantine(ctx); q.Total != 0 {
		t.Fatalf("%d cells still quarantined after settle", q.Total)
	}
	if got := srv.Machine().PendingFaults(); got != 0 {
		t.Fatalf("%d planted faults never discovered", got)
	}
}

// TestTenantIsolation checks the namespace boundary: same-name allocations
// coexist across tenants, names do not resolve across tenants, and one
// tenant cannot ingest events against another tenant's addresses.
func TestTenantIsolation(t *testing.T) {
	eng := core.NewEngine(core.Options{Seed: 1})
	_, base, shutdown := startServer(t, eng, httpapi.ServerConfig{
		EnableInject: true,
		Service:      service.Config{Workers: 1, QueueDepth: 4},
	})
	defer func() {
		if err := shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	ctx := context.Background()
	reg := httpapi.RegisterRequest{
		Name: "field", Dims: []int{8, 8}, DType: "float64",
		Policy: httpapi.PolicyInfo{Any: true},
	}
	c1 := client.New(client.Config{BaseURL: base, Tenant: "alpha"})
	c2 := client.New(client.Config{BaseURL: base, Tenant: "beta"})

	a1, err := c1.Register(ctx, reg)
	if err != nil {
		t.Fatalf("alpha register: %v", err)
	}
	if _, err := c2.Register(ctx, reg); err != nil {
		t.Fatalf("beta register (same name, different tenant): %v", err)
	}
	if _, err := c1.Register(ctx, reg); !errors.Is(err, registry.ErrNameTaken) {
		t.Fatalf("alpha duplicate register = %v, want ErrNameTaken", err)
	}

	// beta's view: its own "field", not alpha's.
	list, err := c2.Allocations(ctx)
	if err != nil {
		t.Fatalf("beta list: %v", err)
	}
	if len(list.Allocations) != 1 || list.Allocations[0].Base == a1.Base {
		t.Fatalf("beta sees %+v, want exactly its own allocation", list.Allocations)
	}

	// beta cannot raise events against alpha's address space.
	_, err = c2.Ingest(ctx, httpapi.EventRequest{Addr: a1.Base})
	if !errors.Is(err, registry.ErrNotRegistered) {
		t.Fatalf("cross-tenant ingest = %v, want ErrNotRegistered", err)
	}
	var apiErr *httpapi.Error
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("cross-tenant ingest error = %#v, want 404", err)
	}
}

// TestStreamIngestion drives the NDJSON batch endpoint: per-line results in
// order, mixing accepted and rejected events in one stream.
func TestStreamIngestion(t *testing.T) {
	const rows, cols = 8, 8
	eng := core.NewEngine(core.Options{Seed: 3})
	_, base, shutdown := startServer(t, eng, httpapi.ServerConfig{
		EnableInject: true,
		Service:      service.Config{Workers: 2, QueueDepth: 32},
	})
	defer func() {
		if err := shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	ctx := context.Background()
	c := client.New(client.Config{BaseURL: base, Tenant: "stream"})
	if _, err := c.Register(ctx, httpapi.RegisterRequest{
		Name: "field", Dims: []int{rows, cols}, DType: "float32",
		Policy: httpapi.PolicyInfo{Any: true},
	}); err != nil {
		t.Fatalf("register: %v", err)
	}
	if err := c.Upload(ctx, "field", smoothField(rows, cols)); err != nil {
		t.Fatalf("upload: %v", err)
	}

	var evs []httpapi.EventRequest
	for n := 0; n < 6; n++ {
		off := n * 5
		inj, err := c.Inject(ctx, "field", httpapi.InjectRequest{Offset: &off})
		if err != nil {
			t.Fatalf("inject %d: %v", n, err)
		}
		evs = append(evs, httpapi.EventRequest{Addr: inj.Addr, Bit: inj.Bit})
	}
	// One bogus event mid-stream must reject without poisoning the batch.
	evs = append(evs[:3], append([]httpapi.EventRequest{{Addr: 0xdeadbeef}}, evs[3:]...)...)

	results, err := c.IngestBatch(ctx, evs)
	if err != nil {
		t.Fatalf("ingest batch: %v", err)
	}
	if len(results) != len(evs) {
		t.Fatalf("got %d results for %d events", len(results), len(evs))
	}
	for i, res := range results {
		want := httpapi.StatusAccepted
		if i == 3 {
			want = httpapi.StatusRejected
		}
		if res.Status != want && res.Status != httpapi.StatusLatched {
			t.Fatalf("line %d: status %q (error %+v), want %q", i, res.Status, res.Error, want)
		}
	}
	if results[3].Error == nil || results[3].Error.Code != httpapi.CodeNotRegistered {
		t.Fatalf("bogus line result = %+v, want not_registered", results[3])
	}

	// All six real events settle to zero quarantine.
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		q, err := c.Quarantine(ctx)
		if err != nil {
			t.Fatalf("quarantine: %v", err)
		}
		if q.Total == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("quarantine never cleared")
}

// TestStreamBatchLongerThanWindow pins that an NDJSON batch is answered
// line for line whatever its length. Results are flushed every 64 lines
// while the rest of the body is unread, and an HTTP/1 server that is not
// in full-duplex mode discards that rest at the first flush: a 512-line
// batch used to come back as ~100 lines.
func TestStreamBatchLongerThanWindow(t *testing.T) {
	const rows, cols = 64, 64
	eng := core.NewEngine(core.Options{Seed: 5})
	srv, base, shutdown := startServer(t, eng, httpapi.ServerConfig{
		EnableInject:   true,
		RedeliverEvery: 5 * time.Millisecond,
		Service:        service.Config{Workers: 2, QueueDepth: 1024},
	})
	defer func() {
		if err := shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	ctx := context.Background()
	c := client.New(client.Config{BaseURL: base, Tenant: "stream"})
	if _, err := c.Register(ctx, httpapi.RegisterRequest{
		Name: "field", Dims: []int{rows, cols}, DType: "float32",
		Policy: httpapi.PolicyInfo{Any: true},
	}); err != nil {
		t.Fatalf("register: %v", err)
	}
	if err := c.Upload(ctx, "field", smoothField(rows, cols)); err != nil {
		t.Fatalf("upload: %v", err)
	}

	var cursor uint64
	for _, lines := range []int{64, 65, 128, 512} {
		// Eight interior sites per row, staggered between rows so that no
		// two of a batch's faults are neighbours.
		evs := make([]httpapi.EventRequest, lines)
		pending := map[int]bool{}
		for n := range evs {
			row := n / 8
			off := row*cols + (n%8)*8 + 2 + (row%2)*4
			inj, err := c.Inject(ctx, "field", httpapi.InjectRequest{Offset: &off})
			if err != nil {
				t.Fatalf("%d lines: inject %d: %v", lines, n, err)
			}
			evs[n] = httpapi.EventRequest{Addr: inj.Addr, Bit: inj.Bit}
			pending[off] = true
		}
		results, err := c.IngestBatch(ctx, evs)
		if err != nil {
			t.Fatalf("%d lines: ingest batch: %v", lines, err)
		}
		if len(results) != len(evs) {
			t.Fatalf("%d lines: got %d result lines", lines, len(results))
		}
		for i, res := range results {
			if res.Status != httpapi.StatusAccepted && res.Status != httpapi.StatusLatched {
				t.Fatalf("%d lines: line %d: status %q (error %+v)", lines, i, res.Status, res.Error)
			}
		}

		deadline := time.Now().Add(30 * time.Second)
		for len(pending) > 0 && time.Now().Before(deadline) {
			page, err := c.Outcomes(ctx, cursor, "field", 1000)
			if err != nil {
				t.Fatalf("%d lines: outcomes: %v", lines, err)
			}
			if page.Dropped {
				t.Fatalf("%d lines: outcome feed dropped records before %d", lines, cursor)
			}
			cursor = page.Next
			for _, rec := range page.Outcomes {
				if !rec.OK {
					t.Fatalf("%d lines: offset %d failed: %s", lines, rec.Offset, rec.Error)
				}
				delete(pending, rec.Offset)
			}
			if len(page.Outcomes) == 0 {
				time.Sleep(2 * time.Millisecond)
			}
		}
		if len(pending) > 0 {
			t.Fatalf("%d lines: %d events never reached an ok outcome", lines, len(pending))
		}
		q, err := c.Quarantine(ctx)
		for ; err == nil && q.Total != 0 && time.Now().Before(deadline); q, err = c.Quarantine(ctx) {
			time.Sleep(2 * time.Millisecond)
		}
		if err != nil || q.Total != 0 {
			t.Fatalf("%d lines: quarantine after settle: %+v, err %v", lines, q, err)
		}
	}
	if got := srv.Machine().PendingFaults(); got != 0 {
		t.Fatalf("%d planted faults never discovered", got)
	}
}

// Forwarded is the one rule for which routes a cluster node shard-routes
// and the SDK's owner hint may redirect: tenant routes, not the node-local
// ones nor the cluster status.
func TestForwardedRoutes(t *testing.T) {
	for path, want := range map[string]bool{
		"/v1/events":           true,
		"/v1/events/stream":    true,
		"/v1/allocations/grid": true,
		"/v1/outcomes":         true,
		"/v1/cluster/status":   false,
		"/v1/cluster/status/x": true,
		"/metrics":             false,
		"/readyz":              false,
		"/healthz":             false,
		"/v1":                  false,
	} {
		if got := httpapi.Forwarded(path); got != want {
			t.Errorf("Forwarded(%q) = %v, want %v", path, got, want)
		}
	}
}

// TestElementReportsQuarantine checks GET .../element answers the
// quarantine bit of exactly the cell asked for: a quarantined cell reads
// true, its neighbours (in the same bitmap word and across a word boundary)
// read false, and a cleared cell reads false again.
func TestElementReportsQuarantine(t *testing.T) {
	eng := core.NewEngine(core.Options{Seed: 7})
	_, base, shutdown := startServer(t, eng, httpapi.ServerConfig{
		Service: service.Config{Workers: 1, QueueDepth: 8},
	})
	defer func() {
		if err := shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	ctx := context.Background()
	c := client.New(client.Config{BaseURL: base, Tenant: "t1"})
	if _, err := c.Register(ctx, httpapi.RegisterRequest{
		Name: "field", Dims: []int{16, 16}, DType: "float64", Policy: httpapi.PolicyInfo{Any: true},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Upload(ctx, "field", smoothField(16, 16)); err != nil {
		t.Fatal(err)
	}
	a, ok := eng.Table().ByTenantName("t1", "field")
	if !ok {
		t.Fatal("field not registered")
	}
	quarantined := map[int]bool{5: true, 63: true, 64: true}
	for off := range quarantined {
		eng.MarkCorrupt(a, off)
	}
	check := func() {
		t.Helper()
		for _, off := range []int{0, 4, 5, 6, 62, 63, 64, 65, 255} {
			el, err := c.Element(ctx, "field", off)
			if err != nil {
				t.Fatalf("element %d: %v", off, err)
			}
			if el.Quarantined != quarantined[off] {
				t.Errorf("element %d quarantined = %v, want %v", off, el.Quarantined, quarantined[off])
			}
		}
	}
	check()
	eng.ClearCorrupt(a, 63)
	delete(quarantined, 63)
	check()
}
