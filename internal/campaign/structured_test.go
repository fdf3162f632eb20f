package campaign

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/faultinject"
	"spatialdue/internal/ndarray"
	"spatialdue/internal/predict"
	"spatialdue/internal/sdrbench"
)

// Structured-fault campaigns: the fault-class axis must reject metadata,
// stay deterministic, and score every cell of multi-cell events.

func structuredConfig(class faultinject.FaultClass, span int) Config {
	cfg := DefaultConfig()
	cfg.Scale = sdrbench.ScaleTiny
	cfg.Trials = 25
	cfg.AutotuneTrials = 5
	cfg.AutotuneMaxProbes = 24
	cfg.Apps = []sdrbench.App{sdrbench.HACC}
	cfg.FaultClass = class
	cfg.FaultSpan = span
	return cfg
}

func TestRunRejectsMetadataClass(t *testing.T) {
	cfg := structuredConfig(faultinject.ClassMetadata, 0)
	if _, err := Run(cfg); err == nil {
		t.Fatal("metadata fault class accepted by a data campaign")
	}
}

func TestRowCampaignScoresEveryWipedCell(t *testing.T) {
	// A row wipe corrupts span cells per event, so each (method, app) cell
	// must accumulate span trials per injection event — not one.
	const span = 4
	cfg := structuredConfig(faultinject.ClassRow, span)
	cfg.AutotuneTrials = 0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nDatasets := sdrbench.DatasetCount(sdrbench.HACC)
	want := nDatasets * cfg.Trials * span
	for mi := range res.Methods {
		c := res.PerMethodApp[mi][0]
		if c.Trials != want {
			t.Errorf("method %v scored %d cells, want %d (%d events x %d cells)",
				res.Methods[mi], c.Trials, want, nDatasets*cfg.Trials, span)
		}
	}
}

func TestStructuredCampaignDeterministic(t *testing.T) {
	for _, class := range []faultinject.FaultClass{faultinject.ClassBurst, faultinject.ClassRow} {
		a, err := Run(structuredConfig(class, 0))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(structuredConfig(class, 0))
		if err != nil {
			t.Fatal(err)
		}
		for mi := range a.Methods {
			ca, cb := a.PerMethodApp[mi][0], b.PerMethodApp[mi][0]
			if ca.Trials != cb.Trials || ca.SumRelErr != cb.SumRelErr {
				t.Errorf("class %v method %v: reruns diverged (%d/%v vs %d/%v)",
					class, a.Methods[mi], ca.Trials, ca.SumRelErr, cb.Trials, cb.SumRelErr)
			}
		}
	}
}

func TestStructuredCampaignStillRecovers(t *testing.T) {
	// Degraded stencils must keep structured campaigns productive: a burst
	// (single-cell) campaign behaves like the bit campaign, and even a row
	// wipe must leave at least one method with a nonzero success rate at the
	// loosest threshold (survivor-side neighbors carry the prediction).
	res, err := Run(structuredConfig(faultinject.ClassRow, 4))
	if err != nil {
		t.Fatal(err)
	}
	loosest := len(res.Thresholds) - 1
	best := 0.0
	for mi := range res.Methods {
		if r := res.OverallRate(mi, loosest); r > best {
			best = r
		}
	}
	if best == 0 {
		t.Error("no method recovered any cell of any row wipe")
	}
}

// TestStructuredCampaignMatchesPerEventReference pins what an event's
// predictions may read: every cell of that event and no other is hidden.
// Sixteen aligned 4-cell slots on an 8x8 field take 40 events, so events
// overlap, and a cell wiped again must stay hidden from its fellow wiped
// cells. The reference builds a fresh Env per event (sharing one random
// stream, as the campaign's single Env does) and masks only that event's
// cells.
func TestStructuredCampaignMatchesPerEventReference(t *testing.T) {
	const span, events = 4, 40
	a := ndarray.New(8, 8)
	a.FillFunc(func(idx []int) float64 {
		x, y := float64(idx[0]), float64(idx[1])
		return 50 + 3*x - 2*y + 0.25*x*y + math.Sin(1.7*x+0.9*y)
	})
	ds := &sdrbench.Dataset{App: sdrbench.HACC, Name: "field8x8", DType: bitflip.Float32, Array: a}
	cfg := structuredConfig(faultinject.ClassRow, span)
	cfg.Trials = events
	cfg.AutotuneTrials = 0
	dr, err := runDataset(cfg, ds.App, ds.Name, func() (*sdrbench.Dataset, error) { return ds, nil })
	if err != nil {
		t.Fatal(err)
	}

	seed := seedFor(cfg.Seed, ds.App, ds.Name)
	rng := rand.New(rand.NewSource(seed))
	preds := make([]predict.Predictor, len(cfg.Methods))
	want := make([]*Cell, len(cfg.Methods))
	for mi, m := range cfg.Methods {
		preds[mi], want[mi] = predict.New(m), newCell(len(cfg.Thresholds))
	}
	plan := faultinject.New(seed+1, ds.DType).PlanStructured(a, faultinject.ClassRow, events, span)
	overlapped, wiped := 0, map[int]bool{}
	idx := make([]int, a.NumDims())
	for _, ev := range plan {
		offs := ev.Offsets()
		env := predict.NewEnv(a, seed)
		env.Rng = rng
		env.SetMaskFunc(func(off int) bool { return slices.Contains(offs, off) })
		for _, cell := range ev.Cells {
			if wiped[cell.Offset] {
				overlapped++
			}
			wiped[cell.Offset] = true
			a.CoordsInto(idx, cell.Offset)
			for mi, p := range preds {
				re := math.Inf(1)
				if got, err := p.Predict(env, idx); err == nil {
					re = bitflip.RelErr(cell.Orig, got)
				}
				want[mi].add(re, cfg.Thresholds, &splitmix{})
			}
		}
	}
	if overlapped == 0 {
		t.Fatal("no event overlapped an earlier one; the plan does not exercise re-wiped cells")
	}
	for mi, m := range cfg.Methods {
		got, ref := dr.cells[mi], want[mi]
		if got.Trials != ref.Trials || !slices.Equal(got.Hits, ref.Hits) ||
			math.Float64bits(got.SumRelErr) != math.Float64bits(ref.SumRelErr) {
			t.Errorf("%v: campaign trials %d hits %v sum %v, per-event reference trials %d hits %v sum %v",
				m, got.Trials, got.Hits, got.SumRelErr, ref.Trials, ref.Hits, ref.SumRelErr)
		}
	}
}
