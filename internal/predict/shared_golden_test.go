package predict

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"spatialdue/internal/ndarray"
)

// updateGolden regenerates testdata/shared_golden.json from whatever
// SharedStats and the moments walk do now. The committed file was generated
// by the per-cell CoordsInto/features/add loop, before the row-walk build
// landed, so it pins that loop's statistics bit for bit; only regenerate it
// for a change that is meant to move them.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/shared_golden.json from the current SharedStats")

const sharedGoldenPath = "testdata/shared_golden.json"

// goldenBits renders v as its IEEE-754 bits, so ±Inf, -0 and the last ulp
// survive the JSON round trip. Every NaN renders as "nan": which payload an
// Inf-Inf or a NaN+NaN produces is the instruction selection's business, not
// the statistics'.
func goldenBits(v float64) string {
	if math.IsNaN(v) {
		return "nan"
	}
	return fmt.Sprintf("%016x", math.Float64bits(v))
}

func goldenBitsOf(vs []float64) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = goldenBits(v)
	}
	return out
}

type sharedGoldenPredict struct {
	Idx  []int  `json:"idx"`
	Bits string `json:"bits,omitempty"`
	Err  string `json:"err,omitempty"`
}

// sharedGoldenStep is the statistics' state after one step of a case's
// script.
type sharedGoldenStep struct {
	Step    string                `json:"step"`
	N       int                   `json:"n"`
	XtX     []string              `json:"xtx"`
	XtV     []string              `json:"xtv"`
	Min     string                `json:"min,omitempty"`
	Max     string                `json:"max,omitempty"`
	Predict []sharedGoldenPredict `json:"predict,omitempty"`
}

type sharedGoldenCase struct {
	Name  string             `json:"name"`
	Steps []sharedGoldenStep `json:"steps"`
}

// sharedGoldenSpec is one case of the plan: a shape, how many cells are
// excluded before the first build, how many cells of the field are +Inf, NaN
// or -Inf (poison: one cell is a lone +Inf, six are two of each), and whether
// those are excluded too.
type sharedGoldenSpec struct {
	dims          []int
	excl          int
	poison        int
	excludePoison bool
}

func (c sharedGoldenSpec) name() string {
	s := strconv.Itoa(len(c.dims)) + "d"
	for i, d := range c.dims {
		if i == 0 {
			s += "_"
		} else {
			s += "x"
		}
		s += strconv.Itoa(d)
	}
	s += "_excl" + strconv.Itoa(c.excl)
	if c.poison > 0 {
		s += "_poison" + strconv.Itoa(c.poison)
	}
	if c.excludePoison {
		s += "_excluded"
	}
	return s
}

// sharedGoldenPlan lists the cases: 1-D to 5-D, the field_mixed shape
// (1024x1024), two shapes past the bound up to which X'X sums are exact
// (N*(maxDim-1)^2 > 2^53; along 400000 cells the squared coordinates sum past
// 2^51, where their quarter-integer terms round), extent-1 dimensions, and
// 0/1/50 pre-build exclusions.
func sharedGoldenPlan() []sharedGoldenSpec {
	var plan []sharedGoldenSpec
	for _, dims := range [][]int{{100}, {37, 53}, {20, 30, 17}, {5, 7, 6, 9}} {
		for _, excl := range []int{0, 1, 50} {
			plan = append(plan, sharedGoldenSpec{dims: dims, excl: excl})
		}
	}
	for _, dims := range [][]int{{300000}, {2, 400000}, {1024, 1024}} {
		for _, excl := range []int{0, 50} {
			plan = append(plan, sharedGoldenSpec{dims: dims, excl: excl})
		}
	}
	plan = append(plan, sharedGoldenSpec{dims: []int{3, 4, 2, 5, 3}, excl: 50})
	for _, dims := range [][]int{{1}, {2}, {1, 64}, {64, 1}, {4, 1, 9}} {
		plan = append(plan, sharedGoldenSpec{dims: dims, excl: 1})
	}
	for _, dims := range [][]int{{100}, {37, 53}, {20, 30, 17}} {
		plan = append(plan,
			sharedGoldenSpec{dims: dims, excl: 0, poison: 6},
			sharedGoldenSpec{dims: dims, excl: 50, poison: 1},
			sharedGoldenSpec{dims: dims, excl: 1, poison: 6, excludePoison: true})
	}
	return plan
}

// sharedGoldenField is a smooth seeded field with noise; poison overwrites
// the returned offsets with +Inf, NaN and -Inf in turn.
func sharedGoldenField(c sharedGoldenSpec, rng *rand.Rand) (a *ndarray.Array, poisoned []int) {
	a = ndarray.New(c.dims...)
	data := a.Data()
	for off := range data {
		data[off] = 280 + 35*math.Sin(float64(off)*0.013) + 4*rng.NormFloat64()
	}
	if c.poison > 0 {
		kinds := []float64{math.Inf(1), math.NaN(), math.Inf(-1)}
		poisoned = rng.Perm(len(data))[:c.poison]
		for i, off := range poisoned {
			data[off] = kinds[i%len(kinds)]
		}
	}
	return a, poisoned
}

// sharedGoldenExclusions picks the pre-build exclusion set, in the order it
// is handed to Exclude: the array's first and last cell and an adjacent pair
// once there is room for them, seeded offsets for the rest. Duplicates are
// left in — Exclude skips them.
func sharedGoldenExclusions(n, want int, rng *rand.Rand) []int {
	if want > n {
		want = n
	}
	var excl []int
	if want >= 4 {
		mid := n / 2
		excl = append(excl, n-1, 0, mid, mid+1)
	}
	for _, off := range rng.Perm(n) {
		if len(excl) >= want {
			break
		}
		excl = append(excl, off)
	}
	return excl
}

// sharedGoldenArgmin is the offset of the smallest non-NaN snapshot value
// among the cells not in skip (-1 when there is none).
func sharedGoldenArgmin(data []float64, skip map[int]bool) int {
	best := -1
	for off, v := range data {
		if skip[off] || math.IsNaN(v) {
			continue
		}
		if best < 0 || v < data[best] {
			best = off
		}
	}
	return best
}

// runSharedGoldenCase plays the case's script — Exclude, build,
// Exclude(argmin), Range, Readmit, mutate the live array, Rebuild(still) —
// and records the statistics after every step.
func runSharedGoldenCase(c sharedGoldenSpec) sharedGoldenCase {
	seed := int64(29 + c.excl)
	for _, d := range c.dims {
		seed = seed*31 + int64(d)
	}
	rng := rand.New(rand.NewSource(seed))
	a, poisoned := sharedGoldenField(c, rng)
	n := a.Len()
	excl := sharedGoldenExclusions(n, c.excl, rng)
	if c.excludePoison {
		excl = append(excl, poisoned...)
	}

	// Prediction sites: the array's corners and interior, one excluded cell,
	// one poisoned cell.
	siteOffs := []int{0, n - 1, n / 2, n / 3}
	if len(excl) > 0 {
		siteOffs = append(siteOffs, excl[len(excl)/2])
	}
	if len(poisoned) > 0 {
		siteOffs = append(siteOffs, poisoned[0])
	}

	out := sharedGoldenCase{Name: c.name()}
	record := func(step string, m *moments, s *SharedStats, predict bool) {
		st := sharedGoldenStep{Step: step, N: m.n, XtX: goldenBitsOf(m.xtx), XtV: goldenBitsOf(m.xtv)}
		if s != nil {
			lo, hi := s.Range()
			st.Min, st.Max = goldenBits(lo), goldenBits(hi)
		}
		if predict {
			for _, off := range siteOffs {
				p := sharedGoldenPredict{Idx: a.Coords(off)}
				if v, err := s.PredictExcluding(p.Idx); err != nil {
					p.Err = err.Error()
				} else {
					p.Bits = goldenBits(v)
				}
				st.Predict = append(st.Predict, p)
			}
		}
		out.Steps = append(out.Steps, st)
	}

	mom := newMoments(a)
	mom.accumulate(a.Data(), nil)
	record("moments", mom, nil, false)

	s := NewSharedStats(a)
	s.Exclude(excl...)
	s.Prepare()
	record("build", s.mom, s, true)

	skip := map[int]bool{}
	for _, off := range excl {
		skip[off] = true
	}
	if argmin := sharedGoldenArgmin(a.Data(), skip); argmin >= 0 {
		s.Exclude(argmin)
		record("exclude_argmin", s.mom, s, false)
		s.Readmit(argmin)
		record("readmit", s.mom, s, false)
	}

	// A new field version: every value moves, every third exclusion stays
	// quarantined, and the still-list carries two out-of-range offsets that
	// Rebuild must drop.
	data := a.Data()
	for off := range data {
		data[off] = data[off]*1.25 - 3
	}
	still := []int{-1, n}
	for i := 0; i < len(excl); i += 3 {
		still = append(still, excl[i])
	}
	s.Rebuild(still)
	s.Prepare()
	record("rebuild", s.mom, s, true)
	return out
}

// TestSharedStatsGolden replays the plan against testdata/shared_golden.json:
// every X'X and X'v entry, the row count, the range and a handful of
// predictions, compared as bits after every step of every case.
func TestSharedStatsGolden(t *testing.T) {
	var got []sharedGoldenCase
	for _, c := range sharedGoldenPlan() {
		got = append(got, runSharedGoldenCase(c))
	}
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(sharedGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(sharedGoldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cases)", sharedGoldenPath, len(got))
		return
	}
	raw, err := os.ReadFile(sharedGoldenPath)
	if err != nil {
		t.Fatalf("%v (generate it with -update-golden)", err)
	}
	var want []sharedGoldenCase
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("plan has %d cases, golden has %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name {
			t.Fatalf("case %d is %q, golden has %q", i, got[i].Name, want[i].Name)
		}
		if len(got[i].Steps) != len(want[i].Steps) {
			t.Errorf("%s: %d steps, golden has %d", want[i].Name, len(got[i].Steps), len(want[i].Steps))
			continue
		}
		for j := range want[i].Steps {
			g, _ := json.Marshal(got[i].Steps[j])
			w, _ := json.Marshal(want[i].Steps[j])
			if !bytes.Equal(g, w) {
				t.Errorf("%s step %s:\n got %s\nwant %s", want[i].Name, want[i].Steps[j].Step, g, w)
			}
		}
	}
}
