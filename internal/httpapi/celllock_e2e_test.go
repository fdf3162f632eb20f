package httpapi_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"spatialdue/internal/core"
	"spatialdue/internal/httpapi"
	"spatialdue/internal/httpapi/client"
	"spatialdue/internal/service"
)

// TestCellAccessSkipsParkedStripes: reading one element and flipping one
// bit take only that cell's stripe lock, so neither waits for a recovery
// parked in a stripe far away.
func TestCellAccessSkipsParkedStripes(t *testing.T) {
	const rows, cols = 256, 16
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	eng := core.NewEngine(core.Options{Seed: 9, StageHook: func(core.StageEvent) {
		once.Do(func() { close(parked) })
		<-release
	}})
	_, base, shutdown := startServer(t, eng, httpapi.ServerConfig{
		EnableInject: true,
		Service:      service.Config{Workers: 2, QueueDepth: 8, Deadline: -1},
	})
	unpark := sync.OnceFunc(func() { close(release) })
	defer func() {
		unpark()
		if err := shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	ctx := context.Background()
	c := client.New(client.Config{BaseURL: base, Tenant: "cells"})
	if _, err := c.Register(ctx, httpapi.RegisterRequest{
		Name: "field", Dims: []int{rows, cols}, DType: "float32",
		Policy: httpapi.PolicyInfo{Any: true, Range: &httpapi.RangeInfo{Lo: 50, Hi: 150}},
	}); err != nil {
		t.Fatalf("register: %v", err)
	}
	if err := c.Upload(ctx, "field", smoothField(rows, cols)); err != nil {
		t.Fatalf("upload: %v", err)
	}

	// A recovery on row 0 parks at its first ladder stage, holding the
	// stripes around row 0.
	off := 3
	inj, err := c.Inject(ctx, "field", httpapi.InjectRequest{Offset: &off})
	if err != nil {
		t.Fatalf("inject: %v", err)
	}
	ingested := make(chan error, 1)
	go func() { _, err := c.Ingest(ctx, httpapi.EventRequest{Addr: inj.Addr, Bit: inj.Bit}); ingested <- err }()
	<-parked

	far := (rows-1)*cols + 5
	tctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	if _, err := c.Element(tctx, "field", far); err != nil {
		t.Fatalf("GET element on row %d with row 0 parked: %v", rows-1, err)
	}
	if _, err := c.Inject(tctx, "field", httpapi.InjectRequest{Offset: &far}); err != nil {
		t.Fatalf("single-bit inject on row %d with row 0 parked: %v", rows-1, err)
	}

	unpark()
	if err := <-ingested; err != nil {
		t.Fatalf("parked recovery: %v", err)
	}
}
