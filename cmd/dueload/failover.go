package main

import (
	"context"
	"errors"
	"io"
	"net"
	"net/url"
	"syscall"
	"time"

	"spatialdue/internal/httpapi/client"
)

// failoverBudget bounds how long a client keeps rotating entry nodes while
// every request fails at the transport level. It must outlast the cluster's
// heartbeat budget plus the promotion replay, or clients give up in the
// exact window the cluster is healing.
const failoverBudget = 15 * time.Second

// failover wraps the SDK client with entry-node rotation for cluster runs.
// A transport-level failure — connection refused/reset, a torn response;
// the signature of a dead node, not a busy one — rotates to the next node
// in the list and retries the call. API-level errors pass through
// untouched: a 4xx/5xx means a node is alive and speaking for itself, and
// backpressure (429/503) must reach the caller's latch accounting, never a
// retry that would double-deliver the event.
//
// Rotation also covers the promotion window: a request 307-forwarded to a
// dead owner fails the same way until the partner promotes, so do keeps
// cycling (with a short pause) until the budget runs out.
type failover struct {
	addrs  []string
	tenant string
	idx    int
	c      *client.Client
	// moved counts rotations; callers watch it to detect that a paginated
	// feed now comes from a different node and reset their cursor.
	moved int
}

func newFailover(addrs []string, start int, tenant string) *failover {
	f := &failover{addrs: addrs, tenant: tenant, idx: start % len(addrs)}
	f.c = client.New(client.Config{BaseURL: f.addrs[f.idx], Tenant: tenant})
	return f
}

// do runs op against the current node, rotating on transport errors until
// one node answers or the failover budget expires. With a single address it
// degrades to a plain call.
func (f *failover) do(ctx context.Context, op func(c *client.Client) error) error {
	deadline := time.Now().Add(failoverBudget)
	for {
		err := op(f.c)
		if err == nil || !isTransportErr(err) {
			return err
		}
		if len(f.addrs) == 1 || ctx.Err() != nil || !time.Now().Before(deadline) {
			return err
		}
		f.idx = (f.idx + 1) % len(f.addrs)
		f.moved++
		f.c = client.New(client.Config{BaseURL: f.addrs[f.idx], Tenant: f.tenant})
		time.Sleep(100 * time.Millisecond)
	}
}

// isTransportErr reports whether err means the node is gone rather than
// answering with an error. Context cancellation is the caller's own
// deadline, not node death.
func isTransportErr(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var ue *url.Error
	if errors.As(err, &ue) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET)
}

// call is do for an operation with a result.
func call[T any](ctx context.Context, f *failover, op func(c *client.Client) (T, error)) (T, error) {
	var out T
	err := f.do(ctx, func(c *client.Client) (err error) {
		out, err = op(c)
		return err
	})
	return out, err
}
