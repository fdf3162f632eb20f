package main

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"spatialdue/internal/httpapi"
	"spatialdue/internal/httpapi/client"
)

// TestStormDigestIsOneDownload: every -storm client shares one field, so
// the printed digest must be that field's, read after the run. XORing the
// clients' own downloads cancelled to zero for an even client count.
func TestStormDigestIsOneDownload(t *testing.T) {
	base := startServer(t, false)
	out := mustRun(t, "OK:", append([]string{"-addr", base, "-storm", "-clients", "2", "-events", "32", "-burst", "8"}, small...)...)
	var printed uint64
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "field valbits sum: ") {
			if _, err := fmt.Sscanf(line, "field valbits sum: %x", &printed); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
		}
	}
	field, err := client.New(client.Config{BaseURL: base, Tenant: "storm"}).Download(context.Background(), allocName)
	if err != nil {
		t.Fatalf("download: %v", err)
	}
	if want := valbitsSum(field); printed != want {
		t.Fatalf("printed digest %016x, want %016x (the shared field's)", printed, want)
	}
}

// TestRerunAgainstOneServer: a run owns its tenants' allocation names, so
// the same invocation passes twice in a row against one server.
func TestRerunAgainstOneServer(t *testing.T) {
	for _, tc := range []struct {
		name, ok string
		args     []string
	}{
		{"isolated", "OK:", []string{"-clients", "2", "-events", "16", "-burst", "8"}},
		{"storm", "OK:", []string{"-storm", "-clients", "2", "-events", "16", "-burst", "8"}},
		{"row", "OK [profile row]", []string{"-storm-profile", "row", "-events", "6"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append(append([]string{"-addr", startServer(t, false)}, small...), tc.args...)
			mustRun(t, tc.ok, args...)
			mustRun(t, tc.ok, args...)
		})
	}
}

// TestSettleSkipsEarlierRuns: a second run over the same tenant, name and
// offset must not count the first run's outcome as its own recovery.
func TestSettleSkipsEarlierRuns(t *testing.T) {
	ctx := context.Background()
	base := startServer(t, false)
	off := 10*32 + 10
	first := newRun([]string{base}, 0, "rerun")
	if _, err := first.setup(ctx, 32, 32, "float32", 1); err != nil {
		t.Fatalf("setup: %v", err)
	}
	cells, err := first.inject(ctx, httpapi.InjectRequest{Offset: &off, Seed: 1})
	if err != nil {
		t.Fatalf("inject: %v", err)
	}
	if err := first.ingest(ctx, cells, false); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if err := first.settle(ctx, time.Now().Add(10*time.Second)); err != nil || len(first.ok) != 1 {
		t.Fatalf("first run settled %v (err %v), want its one cell", first.ok, err)
	}

	second := newRun([]string{base}, 0, "rerun")
	if _, err := second.setup(ctx, 32, 32, "float32", 1); err != nil {
		t.Fatalf("second setup: %v", err)
	}
	second.own[off] = true // injected, its DUE not yet delivered
	if err := second.settle(ctx, time.Now().Add(200*time.Millisecond)); err != nil {
		t.Fatalf("settle: %v", err)
	}
	if len(second.ok) != 0 {
		t.Fatalf("second run counted %v as recovered before delivering its DUE", second.ok)
	}
}

// TestVerifyCountsOnlyExactCellsRestored builds the structured profile's
// restore case: cell a is recovered in place, cell b is not (its whole
// neighborhood was corrupted out of the policy range first, so its
// recovery fails and leaves it quarantined). b counts as restored only
// once it reads back bit-exact to the upload and unquarantined; before
// the restore it would count as lost.
func TestVerifyCountsOnlyExactCellsRestored(t *testing.T) {
	ctx := context.Background()
	const cols, tol = 32, 0.01
	r := newRun([]string{startServer(t, false)}, 0, "restore")
	if _, err := r.setup(ctx, 32, cols, "float32", 1); err != nil {
		t.Fatalf("setup: %v", err)
	}
	a, b := 8*cols+8, 20*cols+20
	bit := 29
	for i := -3; i <= 3; i++ {
		for j := -3; j <= 3; j++ {
			off := b + i*cols + j
			if off == b {
				continue
			}
			if _, err := r.f.c.Inject(ctx, allocName, httpapi.InjectRequest{Offset: &off, Bit: &bit}); err != nil {
				t.Fatalf("corrupt neighbor %d: %v", off, err)
			}
		}
	}
	var cells []httpapi.InjectCell
	for _, off := range []int{a, b} {
		c, err := r.inject(ctx, httpapi.InjectRequest{Offset: &off, Seed: 1})
		if err != nil {
			t.Fatalf("inject %d: %v", off, err)
		}
		cells = append(cells, c...)
	}
	if err := r.ingest(ctx, cells, false); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if err := r.settle(ctx, time.Now().Add(10*time.Second)); err != nil {
		t.Fatalf("settle: %v", err)
	}
	if _, ok := r.ok[a]; !ok {
		t.Fatalf("cell a was not recovered in place (ok %v)", r.ok)
	}
	if _, ok := r.ok[b]; ok {
		t.Fatalf("cell b was recovered in place; the case needs it to fail")
	}

	verify := func(off int) quality {
		t.Helper()
		q, err := r.verify(ctx, []int{off}, tol)
		if err != nil {
			t.Fatalf("verify %d: %v", off, err)
		}
		return q
	}
	if q := verify(b); q.exact != 0 || q.quarantined != 1 {
		t.Fatalf("before restore: %+v, want b neither exact nor out of quarantine", q)
	}
	if err := r.restore(ctx, time.Now().Add(10*time.Second)); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if q := verify(b); q.exact != 1 || q.quarantined != 0 {
		t.Fatalf("after restore: %+v, want b bit-exact and out of quarantine", q)
	}
}
