package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/httpapi"
	"spatialdue/internal/httpapi/client"
	"spatialdue/internal/registry"
	"spatialdue/internal/service"
)

// allocName is the allocation every mode registers in its tenant.
const allocName = "field"

// run is one client's side of a load run: a failover client bound to one
// tenant, the field uploaded to its allocation, and the cells the run
// injected. Every mode drives the same phases on it: setup, ingest,
// settle, sweep, verify.
type run struct {
	f    *failover
	orig []float64
	// own holds every cell the run injected. The outcome feed, the sweep
	// and the quarantine count are filtered to it, so storm clients sharing
	// one allocation never claim each other's recoveries.
	own map[int]bool
	// ok maps each owned cell recovered so far to its stage; failed holds
	// owned cells whose only outcomes failed.
	ok       map[int]string
	failed   map[int]bool
	ingestAt map[int]time.Time
	cursor   uint64 // outcome-feed position
	rep      *report
}

func newRun(addrs []string, entry int, tenant string) *run {
	return &run{
		f:   newFailover(addrs, entry, tenant),
		own: map[int]bool{}, ok: map[int]string{}, failed: map[int]bool{},
		ingestAt: map[int]time.Time{}, rep: newReport(),
	}
}

// setup registers the allocation, uploads a smooth field to it and reads
// the outcome feed's head. The run owns its tenant's name: a field an
// earlier run left registered is unregistered and registered afresh, and
// that run's outcome records are behind the cursor.
func (r *run) setup(ctx context.Context, rows, cols int, dtype string, seed int64) (*httpapi.AllocationInfo, error) {
	req := httpapi.RegisterRequest{
		Name: allocName, Dims: []int{rows, cols}, DType: dtype,
		Policy: httpapi.PolicyInfo{Any: true, Range: &httpapi.RangeInfo{Lo: 50, Hi: 150}},
	}
	info, err := call(ctx, r.f, func(c *client.Client) (*httpapi.AllocationInfo, error) {
		info, err := c.Register(ctx, req)
		if errors.Is(err, registry.ErrNameTaken) {
			if err = c.Unregister(ctx, allocName); err == nil {
				info, err = c.Register(ctx, req)
			}
		}
		return info, err
	})
	if err != nil {
		return nil, fmt.Errorf("register: %w", err)
	}
	r.orig = smoothField(rows, cols, seed)
	if err := r.upload(ctx); err != nil {
		return nil, err
	}
	for {
		page, err := r.outcomes(ctx)
		if err != nil {
			return nil, err
		}
		r.cursor = page.Next
		if len(page.Outcomes) == 0 {
			return info, nil
		}
	}
}

func (r *run) upload(ctx context.Context) error {
	if err := r.f.do(ctx, func(c *client.Client) error {
		return c.Upload(ctx, allocName, r.orig)
	}); err != nil {
		return fmt.Errorf("upload: %w", err)
	}
	return nil
}

// inject plants one fault and returns the cells it corrupted, each now
// owned by the run.
func (r *run) inject(ctx context.Context, req httpapi.InjectRequest) ([]httpapi.InjectCell, error) {
	inj, err := call(ctx, r.f, func(c *client.Client) (*httpapi.InjectReport, error) {
		return c.Inject(ctx, allocName, req)
	})
	if err != nil {
		return nil, err
	}
	cells := inj.Cells
	if len(cells) == 0 {
		cells = []httpapi.InjectCell{{Offset: inj.Offset, Bit: inj.Bit, Addr: inj.Addr}}
	}
	for _, cell := range cells {
		r.own[cell.Offset] = true
	}
	return cells, nil
}

// event addresses one cell's DUE. Cluster runs address by alloc+offset,
// which survives a failover (simulated addresses are node-local), while
// single-node runs keep the simulated physical-address path hot.
func (r *run) event(cell httpapi.InjectCell) httpapi.EventRequest {
	if len(r.f.addrs) > 1 {
		off := cell.Offset
		return httpapi.EventRequest{Alloc: allocName, Offset: &off}
	}
	return httpapi.EventRequest{Addr: cell.Addr, Bit: cell.Bit}
}

// ingest reports cells as DUEs, one request each or as one NDJSON stream.
// Backpressure discipline: a latched (429/503) event is counted, never
// resent — the server keeps it bank-latched and redelivers it itself, and
// settle proves it was delivered late, not dropped. Any other rejection
// ends the run.
func (r *run) ingest(ctx context.Context, cells []httpapi.InjectCell, stream bool) error {
	evs := make([]httpapi.EventRequest, len(cells))
	for i, cell := range cells {
		evs[i] = r.event(cell)
	}
	if stream {
		// The whole burst down the stream: the server admits it
		// back-to-back, which is what feeds the workers' RecoverBatch
		// coalescing.
		t0 := time.Now()
		results, err := call(ctx, r.f, func(c *client.Client) ([]httpapi.EventResult, error) {
			return c.IngestBatch(ctx, evs)
		})
		if err != nil {
			return fmt.Errorf("ingest stream: %w", err)
		}
		rtt := time.Since(t0).Seconds() / float64(len(evs))
		for i, res := range results {
			if err := r.tally(cells[i].Offset, t0, rtt, res.Status, res.Error); err != nil {
				return err
			}
		}
		return nil
	}
	for i, cell := range cells {
		t0 := time.Now()
		_, err := call(ctx, r.f, func(c *client.Client) (*httpapi.EventResult, error) {
			return c.Ingest(ctx, evs[i])
		})
		if err := r.tally(cell.Offset, t0, time.Since(t0).Seconds(), ingestStatus(err), err); err != nil {
			return err
		}
	}
	return nil
}

// ingestStatus classifies a single ingest's error the way the stream
// endpoint reports each event.
func ingestStatus(err error) string {
	switch {
	case err == nil:
		return httpapi.StatusAccepted
	case errors.Is(err, service.ErrOverloaded), errors.Is(err, service.ErrCircuitOpen):
		return httpapi.StatusLatched
	}
	return httpapi.StatusRejected
}

func (r *run) tally(off int, t0 time.Time, rtt float64, status string, cause any) error {
	r.rep.ingest.Add(rtt)
	r.ingestAt[off] = t0
	switch status {
	case httpapi.StatusAccepted:
		r.rep.accepted++
	case httpapi.StatusLatched:
		r.rep.latched++
	default:
		r.rep.rejected++
		return fmt.Errorf("ingest offset %d rejected: %v", off, cause)
	}
	return nil
}

// settle follows the outcome feed until every owned cell has a successful
// recovery (latched events arrive late — that is the point), or until the
// feed is quiet and every cell is either recovered or known failed: the
// sweep owns the failures and needs the remaining time.
func (r *run) settle(ctx context.Context, dl time.Time) error {
	for len(r.ok) < len(r.own) && time.Now().Before(dl) {
		moves := r.f.moved
		page, err := r.outcomes(ctx)
		if err != nil {
			return err
		}
		if r.f.moved != moves {
			// The page came from a different node, whose feed is a
			// different sequence: drop it and restart from that feed's
			// head (ok dedups records already counted).
			r.cursor = 0
			continue
		}
		r.cursor = page.Next
		for _, rec := range page.Outcomes {
			if !r.own[rec.Offset] {
				continue
			}
			_, done := r.ok[rec.Offset]
			if !rec.OK {
				r.rep.failedOutcomes++
				r.rep.byCode[rec.Code]++
				if !done {
					r.failed[rec.Offset] = true
				}
				continue
			}
			delete(r.failed, rec.Offset)
			if done {
				continue // counted before a cursor reset re-read it
			}
			r.ok[rec.Offset] = rec.Stage
			r.rep.recovered++
			r.rep.byMethod[rec.Method]++
			if rec.Tuned {
				r.rep.tuned++
			}
			if t0, seen := r.ingestAt[rec.Offset]; seen {
				r.rep.e2e.Add(time.Unix(0, rec.UnixNano).Sub(t0).Seconds())
			}
		}
		if len(page.Outcomes) == 0 {
			if len(r.ok)+len(r.failed) >= len(r.own) {
				return nil
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return nil
}

func (r *run) outcomes(ctx context.Context) (*httpapi.OutcomesPage, error) {
	page, err := call(ctx, r.f, func(c *client.Client) (*httpapi.OutcomesPage, error) {
		return c.Outcomes(ctx, r.cursor, allocName, 1000)
	})
	if err != nil {
		return nil, fmt.Errorf("outcomes: %w", err)
	}
	return page, nil
}

// sweep is the operator loop: poll the quarantine and synchronously
// recover every owned cell still in it. A recovery that ran while its
// neighborhood was still corrupt fails verification and leaves the cell
// quarantined; once the storm has settled and the neighbors are repaired,
// the re-recovery succeeds. It stops when the owned quarantine is empty,
// a pass recovers nothing, or dl passes.
func (r *run) sweep(ctx context.Context, dl time.Time) error {
	for time.Now().Before(dl) {
		left, err := r.quarantined(ctx)
		if err != nil {
			return err
		}
		progressed := false
		for _, off := range left {
			if _, err := r.recoverCell(ctx, off); err == nil {
				progressed = true
			}
		}
		if !progressed {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return nil
}

// recoverCell synchronously recovers one cell; a cell it recovers first
// counts as swept.
func (r *run) recoverCell(ctx context.Context, off int) (*httpapi.RecoverReport, error) {
	rep, err := call(ctx, r.f, func(c *client.Client) (*httpapi.RecoverReport, error) {
		return c.Recover(ctx, allocName, off)
	})
	if err != nil {
		return nil, err
	}
	if _, done := r.ok[off]; !done {
		r.ok[off] = rep.Stage
		r.rep.swept++
	}
	return rep, nil
}

// quarantined lists the owned cells still quarantined.
func (r *run) quarantined(ctx context.Context) ([]int, error) {
	q, err := call(ctx, r.f, func(c *client.Client) (*httpapi.QuarantineReport, error) {
		return c.Quarantine(ctx)
	})
	if err != nil {
		return nil, fmt.Errorf("quarantine: %w", err)
	}
	var left []int
	for _, off := range q.Allocations[allocName] {
		if r.own[off] {
			left = append(left, off)
		}
	}
	return left, nil
}

// quality is what verify reads back from the server.
type quality struct {
	// cells were scored; within of them are within the tolerance of the
	// upload, and exact are bit-identical to it and not quarantined.
	cells, within, exact int
	maxRelErr            float64
	// quarantined counts the owned cells still quarantined.
	quarantined int
	// sum is valbitsSum of the downloaded field.
	sum uint64
}

// verify downloads the field and scores cells against the upload.
func (r *run) verify(ctx context.Context, cells []int, tol float64) (quality, error) {
	final, err := call(ctx, r.f, func(c *client.Client) ([]float64, error) {
		return c.Download(ctx, allocName)
	})
	if err != nil {
		return quality{}, fmt.Errorf("download: %w", err)
	}
	left, err := r.quarantined(ctx)
	if err != nil {
		return quality{}, err
	}
	q := quality{cells: len(cells), quarantined: len(left), sum: valbitsSum(final)}
	for _, off := range cells {
		re := bitflip.RelErr(r.orig[off], final[off])
		if re <= tol {
			q.within++
		}
		q.maxRelErr = math.Max(q.maxRelErr, re)
		if math.Float64bits(final[off]) == math.Float64bits(r.orig[off]) && !slices.Contains(left, off) {
			q.exact++
		}
	}
	return q, nil
}

// owned lists the owned cells for which keep holds (all of them when keep
// is nil), in ascending order.
func (r *run) owned(keep func(off int) bool) []int {
	var cells []int
	for off := range r.own {
		if keep == nil || keep(off) {
			cells = append(cells, off)
		}
	}
	sort.Ints(cells)
	return cells
}
