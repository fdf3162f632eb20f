package main

import (
	"bytes"
	"context"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"spatialdue/internal/httpapi"
	"spatialdue/internal/httpapi/client"
	"spatialdue/internal/journal"
)

// syncBuffer is an io.Writer the test may read while run still writes.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestOneShotTrials(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-trials", "2", "-scale", "tiny"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{"protected ", "trial 0: elem ", "trial 1: elem ", "\nengine: 2 recovered"} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
}

func TestFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-serve"},
		{"-events", "20"},
		{"-rate", "0"},
		{"-cluster-config", "ring.json", "-scale", "tiny"},
		{"-method", "bogus", "-scale", "tiny"},
	} {
		if err := run(context.Background(), args, &bytes.Buffer{}); err == nil {
			t.Errorf("run %q: no error", args)
		}
	}
}

// TestServerMode drives -listen end to end: register, inject, ingest and
// read the outcome over HTTP; cancelling the context stops the server
// gracefully, which prints the drained line and leaves the journal closed
// with the recovery's intent resolved.
func TestServerMode(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "recovery.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-listen", "127.0.0.1:0", "-scale", "tiny",
			"-journal", jpath, "-data-dir", dir}, out)
	}()

	apiLine := regexp.MustCompile(`recovery API on (http://[^ ]+) `)
	var base string
	for deadline := time.Now().Add(10 * time.Second); base == ""; {
		if m := apiLine.FindStringSubmatch(out.String()); m != nil {
			base = m[1]
			break
		}
		select {
		case err := <-done:
			t.Fatalf("run returned %v before serving:\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("server did not come up:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	cctx := context.Background()
	c := client.New(client.Config{BaseURL: base, Tenant: "cli"})
	if _, err := c.Register(cctx, httpapi.RegisterRequest{
		Name: "grid", Dims: []int{8, 8}, DType: "float64", Policy: httpapi.PolicyInfo{Any: true},
	}); err != nil {
		t.Fatalf("register: %v", err)
	}
	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = 3*float64(i/8) + float64(i%8)
	}
	if err := c.Upload(cctx, "grid", vals); err != nil {
		t.Fatalf("upload: %v", err)
	}
	off := 36
	inj, err := c.Inject(cctx, "grid", httpapi.InjectRequest{Offset: &off})
	if err != nil {
		t.Fatalf("inject: %v", err)
	}
	res, err := c.Ingest(cctx, httpapi.EventRequest{Addr: inj.Addr, Bit: inj.Bit})
	if err != nil || res.Status != httpapi.StatusAccepted {
		t.Fatalf("ingest = %+v, %v", res, err)
	}
	page, err := c.Outcomes(cctx, 0, "grid", 10)
	if err != nil {
		t.Fatalf("outcomes: %v", err)
	}
	if len(page.Outcomes) != 1 || !page.Outcomes[0].OK || page.Outcomes[0].Offset != off {
		t.Fatalf("outcomes = %+v, want one OK recovery at offset %d", page.Outcomes, off)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after cancel")
	}
	if want := "drained: 1 submitted, 1 accepted, 0 rejected, 1 recovered, 0 failed"; !strings.Contains(out.String(), want) {
		t.Errorf("output lacks %q:\n%s", want, out.String())
	}
	if recs, err := journal.CountRecords(jpath); err != nil || recs != 2 {
		t.Errorf("journal holds %d records (err %v), want the recovery's intent and outcome", recs, err)
	}
	jr, dangling, err := journal.OpenRecovery(jpath, false)
	if err != nil {
		t.Fatalf("reopen journal: %v", err)
	}
	defer jr.Close()
	if len(dangling) != 0 {
		t.Errorf("%d dangling intents after a graceful stop: %+v", len(dangling), dangling)
	}
}
