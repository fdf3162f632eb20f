package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func threeNodeMap(t *testing.T) *Map {
	t.Helper()
	m, err := NewMap([]NodeInfo{
		{Name: "a", URL: "http://a:1", Repl: "a:2"},
		{Name: "b", URL: "http://b:1", Repl: "b:2"},
		{Name: "c", URL: "http://c:1", Repl: "c:2"},
	}, 0)
	if err != nil {
		t.Fatalf("NewMap: %v", err)
	}
	return m
}

// Ownership must be a pure function of the map contents: every node computes
// the same assignment or forwarding loops forever.
func TestOwnerDeterministicAndSpread(t *testing.T) {
	m1, m2 := threeNodeMap(t), threeNodeMap(t)
	hits := map[string]int{}
	for i := 0; i < 300; i++ {
		tenant := fmt.Sprintf("tenant-%d", i)
		o1, o2 := m1.Owner(tenant), m2.Owner(tenant)
		if o1.Name != o2.Name {
			t.Fatalf("tenant %q: owner %q vs %q across identical maps", tenant, o1.Name, o2.Name)
		}
		hits[o1.Name]++
	}
	for _, n := range []string{"a", "b", "c"} {
		if hits[n] == 0 {
			t.Errorf("node %s owns no tenants out of 300 (spread %v)", n, hits)
		}
	}
}

func TestPartnerRing(t *testing.T) {
	m := threeNodeMap(t)
	seen := map[string]bool{}
	for _, n := range []string{"a", "b", "c"} {
		p, ok := m.PartnerOf(n)
		if !ok {
			t.Fatalf("PartnerOf(%s): no partner", n)
		}
		if p.Name == n {
			t.Fatalf("PartnerOf(%s) = itself", n)
		}
		seen[p.Name] = true
	}
	if len(seen) != 3 {
		t.Errorf("partner ring is not a full cycle: %v", seen)
	}
	if _, ok := m.PartnerOf("nope"); ok {
		t.Error("PartnerOf(unknown) reported a partner")
	}

	// Two nodes must partner each other.
	m2, err := NewMap([]NodeInfo{
		{Name: "x", URL: "http://x:1"}, {Name: "y", URL: "http://y:1"},
	}, 8)
	if err != nil {
		t.Fatalf("NewMap: %v", err)
	}
	px, _ := m2.PartnerOf("x")
	py, _ := m2.PartnerOf("y")
	if px.Name != "y" || py.Name != "x" {
		t.Errorf("two-node partners: x->%s y->%s, want mutual", px.Name, py.Name)
	}

	// A single node has no partner (replication disabled, not crashed).
	m1, err := NewMap([]NodeInfo{{Name: "solo", URL: "http://s:1"}}, 0)
	if err != nil {
		t.Fatalf("NewMap: %v", err)
	}
	if _, ok := m1.PartnerOf("solo"); ok {
		t.Error("single-node map produced a partner")
	}
}

func TestOwnersPartneredTo(t *testing.T) {
	m := threeNodeMap(t)
	for _, n := range []string{"a", "b", "c"} {
		owners := m.OwnersPartneredTo(n)
		if len(owners) != 1 {
			t.Fatalf("OwnersPartneredTo(%s) = %d owners, want exactly 1 on a 3-ring", n, len(owners))
		}
		p, _ := m.PartnerOf(owners[0].Name)
		if p.Name != n {
			t.Errorf("inverse mismatch: %s listed as partnered to %s but PartnerOf says %s", owners[0].Name, n, p.Name)
		}
	}
}

func TestLoadMap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "map.json")
	blob := `{"vnodes": 16, "nodes": [
		{"name": "n1", "url": "http://127.0.0.1:8080", "repl": "127.0.0.1:9090"},
		{"name": "n2", "url": "http://127.0.0.1:8081", "repl": "127.0.0.1:9091"}]}`
	if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := LoadMap(path)
	if err != nil {
		t.Fatalf("LoadMap: %v", err)
	}
	n1, ok := m.Node("n1")
	if !ok || n1.Repl != "127.0.0.1:9091" && n1.Repl != "127.0.0.1:9090" {
		t.Fatalf("Node(n1) = %+v, ok=%v", n1, ok)
	}
	if _, err := LoadMap(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("LoadMap(missing) succeeded")
	}

	if _, err := NewMap([]NodeInfo{{Name: "d", URL: "u"}, {Name: "d", URL: "u"}}, 0); err == nil {
		t.Error("duplicate node names accepted")
	}
	if _, err := NewMap(nil, 0); err == nil {
		t.Error("empty map accepted")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte(`{"k":"intent","id":7}`)
	h := frameHeader{Type: frameJrec, Seq: 42}
	if err := writeFrame(&buf, h, payload); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	if err := writeFrame(&buf, frameHeader{Type: frameHello, From: "a", Seq: 9}, nil); err != nil {
		t.Fatalf("writeFrame hello: %v", err)
	}
	got, pl, err := readFrame(&buf)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if got.Type != frameJrec || got.Seq != 42 || !bytes.Equal(pl, payload) {
		t.Errorf("frame 1 = %+v payload %q", got, pl)
	}
	got, pl, err = readFrame(&buf)
	if err != nil || got.Type != frameHello || got.From != "a" || got.Seq != 9 || pl != nil {
		t.Errorf("frame 2 = %+v payload %v err %v", got, pl, err)
	}
	if _, _, err := readFrame(&buf); err != io.EOF {
		t.Errorf("empty stream read = %v, want io.EOF", err)
	}
}

func TestFrameTornAndGarbage(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameHeader{Type: frameField, Tenant: "t"}, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	torn := buf.Bytes()[:buf.Len()-10]
	if _, _, err := readFrame(bytes.NewReader(torn)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("torn frame read = %v, want ErrUnexpectedEOF", err)
	}

	// A garbage prefix claiming an enormous header must be rejected before
	// any allocation.
	garbage := []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}
	if _, _, err := readFrame(bytes.NewReader(garbage)); err == nil {
		t.Error("oversized header length accepted")
	}
	garbage = []byte{0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff, 'x'}
	if _, _, err := readFrame(bytes.NewReader(garbage)); err == nil {
		t.Error("oversized payload length accepted")
	}
}
