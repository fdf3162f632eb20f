package predictor

import (
	"math"
	"strings"
	"testing"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/core"
	"spatialdue/internal/mca"
	"spatialdue/internal/ndarray"
	"spatialdue/internal/predict"
	"spatialdue/internal/registry"
)

// stormRig is a full mca+engine+manager assembly with one protected field.
type stormRig struct {
	eng     *core.Engine
	machine *mca.Machine
	mgr     *Manager
	alloc   *registry.Allocation
	actions []Action
	repls   []string
}

func newStormRig(t *testing.T) *stormRig {
	t.Helper()
	rig := &stormRig{}
	rig.eng = core.NewEngine(core.Options{Seed: 1})
	rig.machine = mca.New(8)
	rig.machine.SetTopology(mca.Topology{Banks: 8, RowBytes: 1024, ColBytes: 8})

	arr := ndarray.New(64, 64)
	arr.FillFunc(func(idx []int) float64 {
		return float64(idx[0])*0.5 + float64(idx[1])*0.25
	})
	rig.alloc = rig.eng.Protect("field", arr, bitflip.Float64, registry.RecoverWith(predict.MethodAverage))

	mgr, err := NewManager(ManagerConfig{
		Machine: rig.machine,
		Engine:  rig.eng,
		Replicate: func(a *registry.Allocation, vals []float64) {
			rig.repls = append(rig.repls, a.QualifiedName())
			if len(vals) != a.Array.Len() {
				t.Errorf("replicated %d values, want %d", len(vals), a.Array.Len())
			}
		},
		OnAction: func(a Action) { rig.actions = append(rig.actions, a) },
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.mgr = mgr
	rig.machine.SetCEObserver(mgr.Observe)
	return rig
}

// storm raises a concentrated multi-bit CE storm inside one row of the
// allocation and returns that row's key.
func (rig *stormRig) storm(t *testing.T, n int) mca.RowKey {
	t.Helper()
	topo := rig.machine.Topology()
	addr := rig.alloc.AddrOf(512)
	bank, row, _ := topo.Decode(addr)
	lo, hi := topo.RowSpan(bank, row)
	if lo < rig.alloc.Base || hi > rig.alloc.End() {
		t.Fatalf("test row [%#x,%#x) not fully inside the allocation", lo, hi)
	}
	bits := []int{1, 5, 9, 17, 23, 42}
	for i := 0; i < n; i++ {
		rig.machine.RaiseMemoryCEAt(lo+uint64((i%16)*8), bits[i%6])
	}
	return mca.RowKey{Bank: bank, Row: row}
}

func (rig *stormRig) actionCount(k ActionKind) int {
	n := 0
	for _, a := range rig.actions {
		if a.Kind == k {
			n++
		}
	}
	return n
}

func TestManagerActionMatrix(t *testing.T) {
	rig := newStormRig(t)
	key := rig.storm(t, 40)

	// The storm must have walked the bank through every tier...
	risk, tier := rig.mgr.Predictor().BankRisk(key.Bank)
	if tier != TierCritical {
		t.Fatalf("bank %d risk=%v tier=%v, want critical", key.Bank, risk, tier)
	}
	// ...executing the full action matrix on the way up.
	if got := rig.actionCount(ActionScrub); got != 1 {
		t.Errorf("scrub actions = %d, want 1", got)
	}
	if got := rig.actionCount(ActionCkptShrink); got != 1 {
		t.Errorf("ckpt_shrink actions = %d, want 1", got)
	}
	if got := rig.actionCount(ActionPageOfflined); got == 0 {
		t.Error("no page_offlined action")
	}
	if len(rig.repls) == 0 || rig.repls[0] != "field" {
		t.Errorf("replication calls = %v, want [field]", rig.repls)
	}

	// The checkpoint interval shrank below the baseline Young interval.
	iv := rig.mgr.CheckpointInterval()
	base := math.Sqrt(2 * 60 * 86400)
	if iv <= 0 || iv >= base {
		t.Errorf("recomputed interval %v, want in (0, %v)", iv, base)
	}

	// The hot row is offlined in the machine, its elements in the shadow.
	if !rig.machine.RowOfflined(rig.alloc.AddrOf(512)) {
		t.Error("storm row not offlined in mca")
	}
	offl := rig.mgr.OfflinedRows()
	if len(offl) == 0 {
		t.Fatal("manager recorded no offlined rows")
	}
	if offl[0].Bank != key.Bank || offl[0].Row != key.Row {
		t.Errorf("offlined %+v, want bank=%d row=%d", offl[0], key.Bank, key.Row)
	}
	if offl[0].Elements != 128 { // 1024-byte row of float64s
		t.Errorf("shadowed %d elements, want 128", offl[0].Elements)
	}
	if got := rig.mgr.ShadowSize(); got < 128 {
		t.Errorf("ShadowSize = %d, want >= 128", got)
	}
}

func TestManagerShadowRestoreBitExact(t *testing.T) {
	rig := newStormRig(t)
	rig.storm(t, 40)

	// A DUE lands on the offlined row: corrupt the element, quarantine it
	// (what the service does at intake), and ask the shadow.
	off := 512
	want := rig.alloc.Array.AtOffset(off)
	rig.eng.WithArrayLock(rig.alloc.Array, func() {
		rig.alloc.Array.SetOffset(off, math.NaN())
	})
	rig.eng.MarkCorrupt(rig.alloc, off)

	old, got, ok := rig.mgr.Restore(rig.alloc, off)
	if !ok {
		t.Fatal("Restore missed an element the shadow should hold")
	}
	if !math.IsNaN(old) {
		t.Errorf("Restore old = %v, want the corrupted NaN", old)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("Restore value = %v, want bit-exact %v", got, want)
	}
	if rig.alloc.Array.AtOffset(off) != want {
		t.Error("array not rewritten")
	}
	if rig.eng.IsQuarantined(rig.alloc, off) {
		t.Error("quarantine entry not cleared")
	}
	if rig.mgr.ActionCounts()[ActionShadowRestore] != 1 {
		t.Errorf("shadow_restore count = %d, want 1", rig.mgr.ActionCounts()[ActionShadowRestore])
	}

	// An element outside the shadow is a miss.
	if _, _, ok := rig.mgr.Restore(rig.alloc, 4000); ok {
		t.Error("Restore hit for an element never migrated")
	}
}

// TestManagerNeverShadowsQuarantined: an element corrupt at migration time
// must not be copied into the shadow — its live value is garbage.
func TestManagerNeverShadowsQuarantined(t *testing.T) {
	rig := newStormRig(t)
	// Corrupt an element of the row the storm will offline, before the
	// storm runs.
	off := 512
	rig.eng.WithArrayLock(rig.alloc.Array, func() {
		rig.alloc.Array.SetOffset(off, math.Inf(1))
	})
	rig.eng.MarkCorrupt(rig.alloc, off)

	rig.storm(t, 40)

	if _, _, ok := rig.mgr.Restore(rig.alloc, off); ok {
		t.Error("Restore served a value that was quarantined at migration time")
	}
	offl := rig.mgr.OfflinedRows()
	if len(offl) == 0 {
		t.Fatal("row not offlined")
	}
	if offl[0].Elements != 127 {
		t.Errorf("shadowed %d elements, want 127 (quarantined one skipped)", offl[0].Elements)
	}
}

// TestManagerScrubSurfacesLatents: the watch-tier scrub discovers faults
// already planted in the bank.
func TestManagerScrubSurfacesLatents(t *testing.T) {
	rig := newStormRig(t)
	var events []mca.Event
	rig.machine.Handle(func(ev mca.Event) error { events = append(events, ev); return nil })

	topo := rig.machine.Topology()
	addr := rig.alloc.AddrOf(512)
	bank, _, _ := topo.Decode(addr)
	rig.machine.Plant(addr, 7)

	// Enough CEs to cross watch (which triggers the scrub) without
	// reaching critical immediately.
	lo, _ := topo.RowSpan(bank, 66) // a different row, same bank
	for i := 0; i < 5; i++ {
		rig.machine.RaiseMemoryCEAt(lo+uint64(i*8), 3)
	}

	if rig.actionCount(ActionScrub) == 0 {
		t.Fatal("watch tier did not scrub")
	}
	if len(events) != 1 || events[0].Addr != addr {
		t.Fatalf("scrub events = %v, want one at %#x", events, addr)
	}
	found := false
	for _, a := range rig.actions {
		if a.Kind == ActionScrub && strings.Contains(a.Detail, "found 1") {
			found = true
		}
	}
	if !found {
		t.Errorf("scrub action detail missing found count: %+v", rig.actions)
	}
}

func TestManagerMetrics(t *testing.T) {
	rig := newStormRig(t)
	rig.storm(t, 40)
	var sb strings.Builder
	if err := rig.mgr.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"spatialdue_predictor_risk{bank=",
		"spatialdue_predictor_tier{bank=",
		`spatialdue_predictor_actions_total{action="scrub"} 1`,
		`spatialdue_predictor_actions_total{action="ckpt_shrink"} 1`,
		`spatialdue_predictor_actions_total{action="page_offlined"}`,
		"spatialdue_predictor_ckpt_interval_seconds",
		"spatialdue_predictor_offlined_rows_total 1",
		"spatialdue_predictor_observations_total 40",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q\n%s", want, out)
		}
	}
}
