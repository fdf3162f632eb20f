package main

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spatialdue/internal/cluster"
	"spatialdue/internal/core"
	"spatialdue/internal/httpapi"
	"spatialdue/internal/httpapi/client"
	"spatialdue/internal/service"
)

// asDueload, when set in the environment, makes the test binary run
// dueload's main instead of the tests: each mode runs as a real process
// (flags, stdout, exit status) without a nested go build, and under -race
// the child is race-instrumented too.
const asDueload = "DUELOAD_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asDueload) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// dueload runs the command with args and returns its combined output and
// exit status.
func dueload(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asDueload+"=1")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0
	case errors.As(err, &ee):
		return string(out), ee.ExitCode()
	default:
		t.Fatalf("run dueload %v: %v", args, err)
		return "", -1
	}
}

// mustRun runs dueload and fails the test unless it exits 0 and prints a
// line starting with okPrefix.
func mustRun(t *testing.T, okPrefix string, args ...string) string {
	t.Helper()
	out, code := dueload(t, args...)
	if code != 0 {
		t.Fatalf("dueload %v exited %d:\n%s", args, code, out)
	}
	if !hasLine(out, okPrefix) {
		t.Fatalf("dueload %v printed no %q line:\n%s", args, okPrefix, out)
	}
	return out
}

func hasLine(out, prefix string) bool {
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, prefix) {
			return true
		}
	}
	return false
}

// startServer serves an in-process recovery server the way duerecover
// -listen does (fault injection on, tune cache on), optionally with
// the predictive health tier, and returns its base URL.
func startServer(t *testing.T, predictor bool) string {
	t.Helper()
	eng := core.NewEngine(core.Options{Seed: 1, TuneCacheBlock: 8})
	srv, err := httpapi.NewServer(eng, httpapi.ServerConfig{
		Service:      service.Config{Workers: 2, QueueDepth: 64, Seed: 1},
		EnableInject: true,
		Predictor:    predictor,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Close(ctx); err != nil {
			t.Errorf("server close: %v", err)
		}
	})
	return ts.URL
}

// small keeps every mode to a few seconds.
var small = []string{"-rows", "32", "-cols", "32", "-pause", "0", "-settle", "60s"}

func TestModes(t *testing.T) {
	cases := []struct {
		name, ok string
		args     []string
	}{
		{"isolated", "OK:", []string{"-clients", "2", "-events", "32", "-burst", "8"}},
		{"storm", "OK:", []string{"-storm", "-clients", "2", "-events", "32", "-burst", "8"}},
		{"bit", "OK [profile bit]", []string{"-storm-profile", "bit", "-events", "12"}},
		{"burst", "OK [profile burst]", []string{"-storm-profile", "burst", "-events", "8"}},
		{"row", "OK [profile row]", []string{"-storm-profile", "row", "-events", "6"}},
		{"column", "OK [profile column]", []string{"-storm-profile", "column", "-events", "6"}},
		{"metadata", "OK [profile metadata]", []string{"-storm-profile", "metadata", "-events", "8"}},
		{"hotspot", "OK [profile hotspot]", []string{"-storm-profile", "hotspot", "-events", "36"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := startServer(t, false)
			mustRun(t, tc.ok, append(append([]string{"-addr", base}, small...), tc.args...)...)
		})
	}
	t.Run("predicted", func(t *testing.T) {
		base := startServer(t, true)
		mustRun(t, "OK [profile predicted]", "-addr", base, "-storm-profile", "predicted", "-settle", "60s")
	})
}

// TestClusterAddrs spreads two clients over a two-node loopback cluster:
// each rides the 307 redirects to its tenant's owner, and the run ends
// with every DUE recovered.
func TestClusterAddrs(t *testing.T) {
	listen := func() net.Listener {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		return ln
	}
	names := []string{"a", "b"}
	var infos []cluster.NodeInfo
	var lns [][2]net.Listener
	for _, name := range names {
		h, r := listen(), listen()
		lns = append(lns, [2]net.Listener{h, r})
		infos = append(infos, cluster.NodeInfo{Name: name, URL: "http://" + h.Addr().String(), Repl: r.Addr().String()})
	}
	m, err := cluster.NewMap(infos, 0)
	if err != nil {
		t.Fatalf("NewMap: %v", err)
	}
	for i, name := range names {
		node, err := cluster.New(core.NewEngine(core.Options{Seed: 1, TuneCacheBlock: 8}), cluster.Config{
			Self: name, Map: m, DataDir: t.TempDir(),
			Server: httpapi.ServerConfig{
				Service:      service.Config{Workers: 2, QueueDepth: 64, Seed: 1},
				EnableInject: true,
			},
		})
		if err != nil {
			t.Fatalf("cluster.New(%s): %v", name, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func(h, r net.Listener) { done <- node.Serve(ctx, h, r) }(lns[i][0], lns[i][1])
		t.Cleanup(func() {
			cancel()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Errorf("node %s did not shut down", name)
			}
		})
	}
	mustRun(t, "OK:", append([]string{"-addrs", infos[0].URL + "," + infos[1].URL,
		"-clients", "2", "-events", "16", "-burst", "8"}, small...)...)
}

// TestFailoverDo pins the entry-node rotation contract: a dead node in the
// list is rotated past and counted in moved, while an API error and a 429
// come back on the first call, never retried on another node.
func TestFailoverDo(t *testing.T) {
	ctx := context.Background()
	live := startServer(t, false)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	dead := "http://" + ln.Addr().String()
	ln.Close()

	t.Run("dead node rotates", func(t *testing.T) {
		f := newFailover([]string{dead, live}, 0, "failover")
		err := f.do(ctx, func(c *client.Client) error {
			_, e := c.Quarantine(ctx)
			return e
		})
		if err != nil {
			t.Fatalf("do: %v", err)
		}
		if f.moved != 1 {
			t.Fatalf("moved = %d, want 1", f.moved)
		}
	})

	answering := func(status int, code string) (string, *atomic.Int32) {
		var calls atomic.Int32
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			_, _ = w.Write([]byte(`{"error":{"code":"` + code + `","message":"test"}}`))
		}))
		t.Cleanup(ts.Close)
		return ts.URL, &calls
	}
	for _, tc := range []struct {
		name   string
		status int
		code   string
		want   error
	}{
		{"api error passes through", http.StatusNotFound, httpapi.CodeNotRegistered, nil},
		{"429 passes through", http.StatusTooManyRequests, httpapi.CodeOverloaded, service.ErrOverloaded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			url, calls := answering(tc.status, tc.code)
			f := newFailover([]string{url, live}, 0, "failover")
			off := 0
			err := f.do(ctx, func(c *client.Client) error {
				_, e := c.Ingest(ctx, httpapi.EventRequest{Alloc: "field", Offset: &off})
				return e
			})
			var apiErr *httpapi.Error
			if !errors.As(err, &apiErr) || apiErr.Status != tc.status {
				t.Fatalf("do = %v, want the %d API error", err, tc.status)
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("do = %v, want errors.Is %v", err, tc.want)
			}
			if n := calls.Load(); n != 1 {
				t.Fatalf("server saw %d calls, want 1", n)
			}
			if f.moved != 0 {
				t.Fatalf("moved = %d, want 0", f.moved)
			}
		})
	}
}
