package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/core"
	"spatialdue/internal/faultinject"
	"spatialdue/internal/httpapi"
	"spatialdue/internal/httpapi/client"
	"spatialdue/internal/registry"
	"spatialdue/internal/service"
)

// runStormProfile drives one structured-fault storm against the server and
// enforces the zero-lost-recoveries contract: every cell corrupted by every
// event must end the run either recovered in place or checkpoint-restored
// (re-uploaded from the original field), with an empty quarantine. The
// metadata profile additionally pairs each data DUE with a live descriptor
// corruption and requires the server's parity to have repaired descriptors
// without one refusal — a refusal would mean a recovery was (correctly)
// blocked, but a single-bit flip must never exceed the parity.
func runStormProfile(addr, profile string, events, rows, cols, span int, settle time.Duration, seed int64, tol float64) {
	class, err := faultinject.ParseFaultClass(profile)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("dueload: structured storm profile %q: %d events against %s (%dx%d field)\n",
		profile, events, addr, rows, cols)

	ctx, cancel := context.WithTimeout(context.Background(), 2*settle+5*time.Minute)
	defer cancel()

	const allocName = "field"
	c := client.New(client.Config{BaseURL: addr, Tenant: "storm-" + profile})
	if _, err := c.Register(ctx, httpapi.RegisterRequest{
		Name: allocName, Dims: []int{rows, cols}, DType: "float32",
		Policy: httpapi.PolicyInfo{Any: true, Range: &httpapi.RangeInfo{Lo: 50, Hi: 150}},
	}); err != nil {
		fatalf("register: %v", err)
	}
	orig := smoothField(rows, cols, seed)
	if err := c.Upload(ctx, allocName, orig); err != nil {
		fatalf("upload: %v", err)
	}

	// Inject event-by-event, ingesting each event's cells immediately.
	// Events may overlap on cells (two row wipes can hit the same aligned
	// block); the tracked set is the union, and re-ingesting a cell just
	// triggers another recovery — the contract is per-cell, not per-event.
	tracked := map[int]bool{}
	totalCells, latched := 0, 0
	// The metadata profile needs disjoint data-DUE offsets so each event's
	// outcome is attributable; the data classes let the server's planner
	// place cells.
	dataOffsets := distinctOffsets(events, rows*cols, seed)
	for n := 0; n < events; n++ {
		var inj *httpapi.InjectReport
		var err error
		if class == faultinject.ClassMetadata {
			// A descriptor flip alone is invisible until a lookup runs, so
			// pair it with one data DUE: plant the data fault first (while
			// the descriptor is clean, so the planted address is right),
			// then corrupt the descriptor, then ingest — the ingest lookup
			// must detect and repair the descriptor before the recovery.
			off := dataOffsets[n]
			inj, err = c.Inject(ctx, allocName, httpapi.InjectRequest{
				Offset: &off, Seed: seed + int64(n),
			})
			if err == nil {
				descBit := (n * 7) % registry.DescriptorBits
				_, err = c.Inject(ctx, allocName, httpapi.InjectRequest{
					Class: "metadata", Bit: &descBit,
				})
			}
		} else {
			inj, err = c.Inject(ctx, allocName, httpapi.InjectRequest{
				Seed: seed + int64(n), Class: profile, Span: span,
			})
		}
		if err != nil {
			fatalf("inject event %d: %v", n, err)
		}
		cells := inj.Cells
		if len(cells) == 0 {
			cells = []httpapi.InjectCell{{
				Offset: inj.Offset, Bit: inj.Bit, Addr: inj.Addr,
				OrigBits: inj.OrigBits, CorruptedBits: inj.CorruptedBits, Orig: inj.Orig,
			}}
		}
		totalCells += len(cells)
		for _, cell := range cells {
			tracked[cell.Offset] = true
			_, err := c.Ingest(ctx, httpapi.EventRequest{Addr: cell.Addr, Bit: cell.Bit})
			switch {
			case err == nil:
			case errors.Is(err, service.ErrOverloaded), errors.Is(err, service.ErrCircuitOpen):
				latched++ // bank-latched server-side, redelivered late
			default:
				fatalf("ingest event %d offset %d: %v", n, cell.Offset, err)
			}
		}
	}
	fmt.Printf("injected %d events (%d cells, %d unique; %d latched)\n",
		events, totalCells, len(tracked), latched)

	// Settle on the outcome feed until every tracked cell has a successful
	// recovery or the feed has gone quiet with only failures left.
	deadline := time.Now().Add(settle)
	okAt := map[int]bool{}
	failedAt := map[int]bool{}
	var cursor uint64
	for len(okAt) < len(tracked) && time.Now().Before(deadline) {
		page, err := c.Outcomes(ctx, cursor, allocName, 1000)
		if err != nil {
			fatalf("outcomes: %v", err)
		}
		cursor = page.Next
		for _, rec := range page.Outcomes {
			if !tracked[rec.Offset] {
				continue
			}
			if rec.OK {
				okAt[rec.Offset] = true
				delete(failedAt, rec.Offset)
			} else if !okAt[rec.Offset] {
				failedAt[rec.Offset] = true
			}
		}
		if len(page.Outcomes) == 0 {
			if len(okAt)+len(failedAt) >= len(tracked) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Repair sweep: cells that failed while their neighborhood was still
	// corrupt usually succeed synchronously once the storm has settled.
	needRestore := false
	for time.Now().Before(deadline) {
		q, err := c.Quarantine(ctx)
		if err != nil {
			fatalf("quarantine: %v", err)
		}
		remaining := q.Allocations[allocName]
		if len(remaining) == 0 {
			break
		}
		progressed := false
		for _, off := range remaining {
			if _, err := c.Recover(ctx, allocName, off); err == nil {
				okAt[off] = true
				progressed = true
			} else if errors.Is(err, core.ErrCheckpointRestartRequired) ||
				errors.Is(err, registry.ErrMetadataCorrupt) {
				needRestore = true
			}
		}
		if !progressed {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Checkpoint restore: anything in-place recovery could not save is
	// restored by re-uploading the original field, then a final sweep clears
	// the quarantine flags on the now-pristine cells.
	restored := 0
	if len(okAt) < len(tracked) || needRestore {
		for off := range tracked {
			if !okAt[off] {
				restored++
			}
		}
		if err := c.Upload(ctx, allocName, orig); err != nil {
			fatalf("checkpoint-restore upload: %v", err)
		}
		for attempt := 0; attempt < 50; attempt++ {
			q, err := c.Quarantine(ctx)
			if err != nil {
				fatalf("quarantine after restore: %v", err)
			}
			remaining := q.Allocations[allocName]
			if len(remaining) == 0 {
				break
			}
			for _, off := range remaining {
				_, _ = c.Recover(ctx, allocName, off)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// Verify: the final field must match the upload within tolerance.
	final, err := c.Download(ctx, allocName)
	if err != nil {
		fatalf("download: %v", err)
	}
	maxRelErr, withinTol := 0.0, 0
	for off := range tracked {
		re := bitflip.RelErr(orig[off], final[off])
		if re <= tol {
			withinTol++
		}
		maxRelErr = math.Max(maxRelErr, re)
	}

	q, err := c.Quarantine(ctx)
	if err != nil {
		fatalf("quarantine: %v", err)
	}
	quarantined := len(q.Allocations[allocName])

	fmt.Printf("\n== profile %q results ==\n", profile)
	fmt.Printf("recovered in place    %6d\n", len(okAt))
	fmt.Printf("checkpoint-restored   %6d\n", restored)
	fmt.Printf("within %.2g rel err: %d/%d (max rel err %.3g)\n", tol, withinTol, len(tracked), maxRelErr)
	fmt.Printf("quarantined at end: %d\n", quarantined)

	if class == faultinject.ClassMetadata {
		vals, err := scrapeMetrics(addr)
		if err != nil {
			fatalf("profile metadata: %v", err)
		}
		repairs, refusals := vals["spatialdue_descriptor_repairs_total"], vals["spatialdue_descriptor_refusals_total"]
		fmt.Printf("descriptor repairs %g, refusals %g\n", repairs, refusals)
		if repairs < 1 {
			fatalf("profile metadata: server parity never repaired a descriptor")
		}
		if refusals > 0 {
			fatalf("profile metadata: %g descriptor refusals — single-bit corruption must stay within parity", refusals)
		}
	}
	if lost := len(tracked) - len(okAt) - restored; lost > 0 {
		fatalf("profile %s: %d cells neither recovered nor checkpoint-restored", profile, lost)
	}
	if quarantined > 0 {
		fatalf("profile %s: run ended with %d quarantined cells", profile, quarantined)
	}
	// Quality stays a report, not an exit assertion: a degraded-stencil
	// recovery beside a wiped row is correct even when it misses the 1%
	// band — zero lost recoveries is the contract, precision is the metric.
	fmt.Printf("\nOK [profile %s]: %d cells across %d events, %d recovered in place, %d checkpoint-restored, zero lost\n",
		profile, len(tracked), events, len(okAt), restored)
}
