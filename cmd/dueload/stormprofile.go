package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"spatialdue/internal/faultinject"
	"spatialdue/internal/httpapi"
	"spatialdue/internal/httpapi/client"
	"spatialdue/internal/registry"
)

// runStormProfile drives one structured-fault storm against the server and
// enforces the zero-lost-recoveries contract: every cell corrupted by every
// event must end the run either recovered in place or checkpoint-restored
// (re-uploaded from the original field), with an empty quarantine. The
// metadata profile additionally pairs each data DUE with a live descriptor
// corruption and requires the server's parity to have repaired descriptors
// without one refusal — a refusal would mean a recovery was (correctly)
// blocked, but a single-bit flip must never exceed the parity.
func runStormProfile(ctx context.Context, cfg config) error {
	class, err := faultinject.ParseFaultClass(cfg.profile)
	if err != nil {
		return err
	}
	fmt.Printf("dueload: structured storm profile %q: %d events against %s (%dx%d field)\n",
		cfg.profile, cfg.events, cfg.addr, cfg.rows, cfg.cols)

	r := newRun([]string{cfg.addr}, 0, "storm-"+cfg.profile)
	if _, err := r.setup(ctx, cfg.rows, cfg.cols, "float32", cfg.seed); err != nil {
		return err
	}

	// Inject event-by-event, ingesting each event's cells immediately.
	// Events may overlap on cells (two row wipes can hit the same aligned
	// block); the run owns the union, and re-ingesting a cell just
	// triggers another recovery — the contract is per-cell, not per-event.
	// The metadata profile needs disjoint data-DUE offsets so each event's
	// outcome is attributable; the data classes let the server's planner
	// place cells.
	dataOffsets := distinctOffsets(cfg.events, cfg.rows*cfg.cols, cfg.seed)
	for n := 0; n < cfg.events; n++ {
		req := httpapi.InjectRequest{Seed: cfg.seed + int64(n), Class: cfg.profile, Span: cfg.span}
		if class == faultinject.ClassMetadata {
			req = httpapi.InjectRequest{Offset: &dataOffsets[n], Seed: cfg.seed + int64(n)}
		}
		cells, err := r.inject(ctx, req)
		if err == nil && class == faultinject.ClassMetadata {
			// A descriptor flip alone is invisible until a lookup runs, so
			// it is paired with the data DUE planted above (while the
			// descriptor was clean, so the planted address is right); the
			// ingest lookup must detect and repair the descriptor before
			// the recovery.
			descBit := (n * 7) % registry.DescriptorBits
			_, err = call(ctx, r.f, func(c *client.Client) (*httpapi.InjectReport, error) {
				return c.Inject(ctx, allocName, httpapi.InjectRequest{Class: "metadata", Bit: &descBit})
			})
		}
		if err != nil {
			return fmt.Errorf("inject event %d: %w", n, err)
		}
		if err := r.ingest(ctx, cells, false); err != nil {
			return fmt.Errorf("event %d: %w", n, err)
		}
	}
	fmt.Printf("injected %d events (%d cells, %d unique; %d latched)\n",
		cfg.events, r.rep.accepted+r.rep.latched, len(r.own), r.rep.latched)

	deadline := time.Now().Add(cfg.settle)
	if err := r.settle(ctx, deadline); err != nil {
		return err
	}
	if err := r.sweep(ctx, deadline); err != nil {
		return err
	}
	// Quality is scored before any restore, over the cells recovered in
	// place: the restore rewrites every cell with the upload's bits.
	inPlace := r.owned(func(off int) bool { _, ok := r.ok[off]; return ok })
	q, err := r.verify(ctx, inPlace, cfg.tol)
	if err != nil {
		return err
	}
	quarantined, restored := q.quarantined, 0
	if len(inPlace) < len(r.own) || quarantined > 0 {
		rest := r.owned(func(off int) bool { _, ok := r.ok[off]; return !ok })
		if err := r.restore(ctx, time.Now().Add(cfg.settle)); err != nil {
			return fmt.Errorf("checkpoint-restore %w", err)
		}
		after, err := r.verify(ctx, rest, cfg.tol)
		if err != nil {
			return err
		}
		quarantined, restored = after.quarantined, after.exact
	}

	fmt.Printf("\n== profile %q results ==\n", cfg.profile)
	fmt.Printf("recovered in place    %6d\n", len(inPlace))
	fmt.Printf("checkpoint-restored   %6d\n", restored)
	fmt.Printf("within %.2g rel err: %d/%d (max rel err %.3g)\n", cfg.tol, q.within, q.cells, q.maxRelErr)
	fmt.Printf("quarantined at end: %d\n", quarantined)

	if class == faultinject.ClassMetadata {
		vals, err := scrapeMetrics(cfg.addr)
		if err != nil {
			return fmt.Errorf("profile metadata: %v", err)
		}
		repairs, refusals := vals["spatialdue_descriptor_repairs_total"], vals["spatialdue_descriptor_refusals_total"]
		fmt.Printf("descriptor repairs %g, refusals %g\n", repairs, refusals)
		if repairs < 1 {
			return errors.New("profile metadata: server parity never repaired a descriptor")
		}
		if refusals > 0 {
			return fmt.Errorf("profile metadata: %g descriptor refusals — single-bit corruption must stay within parity", refusals)
		}
	}
	if lost := len(r.own) - len(inPlace) - restored; lost > 0 {
		return fmt.Errorf("profile %s: %d cells neither recovered nor checkpoint-restored", cfg.profile, lost)
	}
	if quarantined > 0 {
		return fmt.Errorf("profile %s: run ended with %d quarantined cells", cfg.profile, quarantined)
	}
	// Quality stays a report, not an exit assertion: a degraded-stencil
	// recovery beside a wiped row is correct even when it misses the 1%
	// band — zero lost recoveries is the contract, precision is the metric.
	fmt.Printf("\nOK [profile %s]: %d cells across %d events, %d recovered in place, %d checkpoint-restored, zero lost\n",
		cfg.profile, len(r.own), cfg.events, len(inPlace), restored)
	return nil
}

// restore is the checkpoint fallback for cells in-place recovery could not
// save: upload the original field again, sweep the quarantine flags an
// upload leaves set (each sweep recovery re-predicts its cell), then
// upload once more, so every cell holds the checkpoint's bits.
func (r *run) restore(ctx context.Context, dl time.Time) error {
	if err := r.upload(ctx); err != nil {
		return err
	}
	if err := r.sweep(ctx, dl); err != nil {
		return err
	}
	return r.upload(ctx)
}
