package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"spatialdue/internal/core"
	"spatialdue/internal/httpapi"
	"spatialdue/internal/httpapi/client"
)

// wireStatus fetches GET /v1/cluster/status as an operator or a peer sees it.
func wireStatus(t *testing.T, base string) httpapi.ClusterStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/cluster/status")
	if err != nil {
		t.Fatalf("cluster status: %v", err)
	}
	defer resp.Body.Close()
	var cs httpapi.ClusterStatus
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		t.Fatalf("decode cluster status: %v", err)
	}
	return cs
}

// Two nodes whose listeners are open before either serves must answer each
// other's start-up probe: both learn their role from the partner instead of
// giving up on it, and both then serve their own tenants.
func TestCoStartProbeAnswered(t *testing.T) {
	httpA, replA := listen(t), listen(t)
	httpB, replB := listen(t), listen(t)
	m, err := NewMap([]NodeInfo{
		{Name: "a", URL: "http://" + httpA.Addr().String(), Repl: replA.Addr().String()},
		{Name: "b", URL: "http://" + httpB.Addr().String(), Repl: replB.Addr().String()},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Seed: 7}
	nodes := []*testNode{
		serveNode(t, "a", m, httpA, replA, 25*time.Millisecond, time.Hour, opts),
		serveNode(t, "b", m, httpB, replB, 25*time.Millisecond, time.Hour, opts),
	}
	// Both are serving already; wait for each in turn.
	for _, tn := range nodes {
		tn.waitHealthy(t)
	}

	ctx := context.Background()
	for _, tn := range nodes {
		self := tn.node.cfg.Self
		cs := wireStatus(t, tn.base)
		if cs.StartupProbe != httpapi.StartupProbeAnswered || cs.Standby || cs.Starting() {
			t.Errorf("node %s status = %+v, want startup_probe %q and owner role", self, cs, httpapi.StartupProbeAnswered)
		}
		tenant := tenantOwnedBy(m, self)
		c := client.New(client.Config{BaseURL: tn.base, Tenant: tenant})
		if _, err := c.Register(ctx, httpapi.RegisterRequest{
			Name: "grid", Dims: []int{4, 4}, DType: "float64",
			Policy: httpapi.PolicyInfo{Any: true},
		}); err != nil {
			t.Fatalf("node %s register: %v", self, err)
		}
		if _, ok := tn.eng.Table().ByTenantName(tenant, "grid"); !ok {
			t.Errorf("node %s did not serve its own tenant", self)
		}
	}
}

// A tenant request that reaches a node while its start-up probe is still
// open must wait for the role: here the partner answers late that it
// promoted over the node, so the request must be forwarded to the partner,
// never served locally. /readyz says "starting" meanwhile.
func TestEarlyRequestWaitsForRole(t *testing.T) {
	httpA, replA := listen(t), listen(t)
	stubLn := listen(t)
	stubURL := "http://" + stubLn.Addr().String()
	m, err := NewMap([]NodeInfo{
		{Name: "a", URL: "http://" + httpA.Addr().String(), Repl: replA.Addr().String()},
		{Name: "b", URL: stubURL, Repl: deadAddr(t)},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}

	// The partner stub holds its status answer until released.
	probed, release := make(chan struct{}), make(chan struct{})
	var probedOnce sync.Once
	stub := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/cluster/status" {
			http.NotFound(w, r)
			return
		}
		probedOnce.Do(func() { close(probed) })
		<-release
		_ = json.NewEncoder(w).Encode(httpapi.ClusterStatus{Node: "b", Partner: "a", PromotedFor: []string{"a"}})
	})}
	go func() { _ = stub.Serve(stubLn) }()
	t.Cleanup(func() { _ = stub.Close() })
	var releaseOnce sync.Once
	releaseStub := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(releaseStub)

	na := serveNode(t, "a", m, httpA, replA, 25*time.Millisecond, time.Hour, core.Options{Seed: 7})
	select {
	case <-probed:
	case <-time.After(5 * time.Second):
		t.Fatal("node a never probed its partner")
	}

	// The probe is open: the status route answers, and says so.
	if cs := wireStatus(t, na.base); !cs.Starting() || cs.StartupProbe != "" {
		t.Errorf("status during the probe = %+v, want starting", cs)
	}
	rec := httptest.NewRecorder()
	na.node.Server().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	var ready httpapi.ReadyReport
	_ = json.Unmarshal(rec.Body.Bytes(), &ready)
	if rec.Code != http.StatusServiceUnavailable || ready.Reason != "starting" {
		t.Errorf("readyz during the probe = %d %q, want 503 starting", rec.Code, ready.Reason)
	}

	// A tenant request sent now must not be answered before the role is.
	ta := tenantOwnedBy(m, "a")
	raw := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	type result struct {
		status   int
		location string
		err      error
	}
	got := make(chan result, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodPost, na.base+"/v1/allocations",
			strings.NewReader(`{"name":"grid","dims":[4,4],"dtype":"float64","policy":{"any":true}}`))
		req.Header.Set(httpapi.TenantHeader, ta)
		resp, err := raw.Do(req)
		if err != nil {
			got <- result{err: err}
			return
		}
		resp.Body.Close()
		got <- result{status: resp.StatusCode, location: resp.Header.Get("Location")}
	}()
	select {
	case res := <-got:
		t.Fatalf("tenant request answered before the role was decided: %+v", res)
	case <-time.After(100 * time.Millisecond):
	}
	releaseStub()

	res := <-got
	if res.err != nil {
		t.Fatalf("tenant request: %v", res.err)
	}
	if res.status != http.StatusTemporaryRedirect || !strings.HasPrefix(res.location, stubURL) {
		t.Errorf("tenant request = %d Location %q, want the standby forward 307 to %s", res.status, res.location, stubURL)
	}
	if _, ok := na.eng.Table().ByTenantName(ta, "grid"); ok {
		t.Error("the registration was served locally by a standby")
	}
	if cs := na.node.Status(); !cs.Standby || cs.StartupProbe != httpapi.StartupProbeAnswered {
		t.Errorf("status after the probe = %+v, want standby after an answered probe", cs)
	}
}

// Every way the start-up probe can end is recorded, and only an answer
// decides the role.
func TestStartupProbeOutcomes(t *testing.T) {
	serve := func(t *testing.T, h http.HandlerFunc) string {
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		return srv.URL
	}
	silent := func(t *testing.T) string {
		ln := listen(t) // accepts into the backlog, never answers
		t.Cleanup(func() { _ = ln.Close() })
		return "http://" + ln.Addr().String()
	}
	cases := []struct {
		name    string
		partner func(t *testing.T) string
		want    string
		standby bool
	}{
		{"answered", func(t *testing.T) string {
			return serve(t, func(w http.ResponseWriter, _ *http.Request) {
				_, _ = w.Write([]byte(`{"node":"b","degraded":true,"promoted_for":["a"],"replication_lag_records":0}`))
			})
		}, httpapi.StartupProbeAnswered, true},
		{"unreachable", func(t *testing.T) string { return "http://" + deadAddr(t) }, httpapi.StartupProbeUnreachable, false},
		{"timeout", silent, httpapi.StartupProbeTimeout, false},
		{"undecodable", func(t *testing.T) string {
			return serve(t, func(w http.ResponseWriter, _ *http.Request) { _, _ = w.Write([]byte("<html>")) })
		}, httpapi.StartupProbeUndecodable, false},
		{"not a status", func(t *testing.T) string { return serve(t, http.NotFound) }, httpapi.StartupProbeUndecodable, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := NewMap([]NodeInfo{
				{Name: "a", URL: "http://" + deadAddr(t), Repl: deadAddr(t)},
				{Name: "b", URL: tc.partner(t), Repl: deadAddr(t)},
			}, 0)
			if err != nil {
				t.Fatal(err)
			}
			n, err := New(core.NewEngine(core.Options{Seed: 7}), Config{
				Self: "a", Map: m, DataDir: t.TempDir(), Server: testServerConfig(),
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = n.Server().Close(context.Background()) })
			got, standby := n.probeStandby()
			if got != tc.want || standby != tc.standby {
				t.Errorf("probe = (%q, %v), want (%q, %v)", got, standby, tc.want, tc.standby)
			}
		})
	}
}
