package autotune

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"spatialdue/internal/ndarray"
	"spatialdue/internal/predict"
	"spatialdue/internal/sdrbench"
)

// updateGolden regenerates testdata/select_golden.json from whatever Select
// does now. The committed file was generated before the row-walk regression
// kernel landed, so it pins the old kernel's tuner results bit for bit; only
// regenerate it for a change that is meant to move them.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/select_golden.json from the current Select")

const goldenPath = "testdata/select_golden.json"

// goldenScore is one candidate's score; the mean is stored as IEEE-754 bits
// so +Inf and the last ulp survive the JSON round trip.
type goldenScore struct {
	Method         int    `json:"method"`
	Hits           int    `json:"hits"`
	Probes         int    `json:"probes"`
	MeanRelErrBits string `json:"mean_rel_err_bits"`
}

type goldenSite struct {
	Field  string        `json:"field"`
	Idx    []int         `json:"idx"`
	Masked []int         `json:"masked,omitempty"` // pre-quarantined neighbour offsets (NaN-poisoned)
	Err    string        `json:"err,omitempty"`
	Best   int           `json:"best"`
	Scores []goldenScore `json:"scores"`
}

// goldenFields are the three arrays the golden sites live on: the lib_any
// workload's 3-D field, the lib_fixed workload's 2-D field, and a 1-D field.
func goldenFields() map[string]*ndarray.Array {
	return map[string]*ndarray.Array{
		"isabel/Pf48": sdrbench.Generate(sdrbench.Isabel, "Pf48", sdrbench.ScaleSmall).Array,
		"cesm/FLDS":   sdrbench.Generate(sdrbench.CESM, "FLDS", sdrbench.ScaleSmall).Array,
		"hacc/xx":     sdrbench.Generate(sdrbench.HACC, "xx", sdrbench.ScaleTiny).Array,
	}
}

// goldenPlan lists the sites: every corner/edge clip case by hand, seeded
// interior sites, and interior sites with 1-3 masked neighbours inside the
// probe neighbourhood. A pure function of the field shapes.
func goldenPlan(fields map[string]*ndarray.Array) []goldenSite {
	var plan []goldenSite
	add := func(field string, idx []int, masked ...[]int) {
		a := fields[field]
		s := goldenSite{Field: field, Idx: idx}
		for _, m := range masked {
			s.Masked = append(s.Masked, a.Offset(m...))
		}
		plan = append(plan, s)
	}
	rng := rand.New(rand.NewSource(17))
	interior := func(a *ndarray.Array, margin int) []int {
		idx := make([]int, a.NumDims())
		for d := range idx {
			idx[d] = margin + rng.Intn(a.Dim(d)-2*margin)
		}
		return idx
	}
	shift := func(idx []int, delta ...int) []int {
		out := append([]int(nil), idx...)
		for d := range out {
			out[d] += delta[d]
		}
		return out
	}

	// 3-D: 20 x 50 x 50.
	f3 := "isabel/Pf48"
	for _, idx := range [][]int{
		{0, 0, 0}, {19, 49, 49}, {0, 49, 0}, {19, 0, 49}, // corners
		{0, 25, 25}, {19, 25, 25}, {10, 0, 25}, {10, 49, 25}, {10, 25, 0}, {10, 25, 49}, // faces
		{0, 0, 25}, {19, 25, 49}, {10, 0, 0}, // edges
		{1, 1, 1}, {2, 47, 3}, {17, 2, 48}, {3, 3, 3}, // partially clipped
	} {
		add(f3, idx)
	}
	for i := 0; i < 14; i++ {
		add(f3, interior(fields[f3], 0))
	}
	for i := 0; i < 9; i++ {
		idx := interior(fields[f3], 4)
		nbs := [][]int{shift(idx, 0, 0, 1), shift(idx, -1, 0, 0), shift(idx, 2, -1, 3)}
		add(f3, idx, nbs[:1+i%3]...)
	}

	// 2-D: 90 x 180.
	f2 := "cesm/FLDS"
	for _, idx := range [][]int{
		{0, 0}, {89, 179}, {0, 179}, {89, 0}, // corners
		{0, 90}, {89, 90}, {45, 0}, {45, 179}, // edges
		{1, 1}, {2, 177}, {87, 3},
	} {
		add(f2, idx)
	}
	for i := 0; i < 12; i++ {
		add(f2, interior(fields[f2], 0))
	}
	for i := 0; i < 6; i++ {
		idx := interior(fields[f2], 4)
		nbs := [][]int{shift(idx, 0, -1), shift(idx, 1, 1), shift(idx, -3, 2)}
		add(f2, idx, nbs[:1+i%3]...)
	}

	// 1-D: 4096.
	f1 := "hacc/xx"
	for _, i := range []int{0, 1, 2, 3, 4092, 4094, 4095} {
		add(f1, []int{i})
	}
	for i := 0; i < 6; i++ {
		add(f1, interior(fields[f1], 0))
	}
	for i := 0; i < 3; i++ {
		idx := interior(fields[f1], 4)
		nbs := [][]int{shift(idx, 1), shift(idx, -2), shift(idx, 3)}
		add(f1, idx, nbs[:1+i]...)
	}
	return plan
}

// goldenRun tunes one site on a fresh Env with the site's masked neighbours
// NaN-poisoned (so a read of one would show) and hidden by install. Like the
// engine's Envs it carries SharedStats that exclude the masked cells, so
// GlobalRegression is O(1) per probe instead of an O(N) scan.
func goldenRun(a *ndarray.Array, site goldenSite, install func(env *predict.Env, offs []int)) goldenSite {
	saved := make([]float64, len(site.Masked))
	for i, off := range site.Masked {
		saved[i] = a.AtOffset(off)
		a.SetOffset(off, math.NaN())
	}
	defer func() {
		for i, off := range site.Masked {
			a.SetOffset(off, saved[i])
		}
	}()
	env := predict.NewEnv(a, 42)
	shared := predict.NewSharedStats(a)
	shared.Exclude(site.Masked...)
	env.SetShared(shared)
	if len(site.Masked) > 0 {
		install(env, site.Masked)
	}
	res, err := Select(env, site.Idx, DefaultConfig())
	out := goldenSite{Field: site.Field, Idx: site.Idx, Masked: site.Masked, Best: int(res.Best)}
	if err != nil {
		out.Err = err.Error()
	}
	for _, sc := range res.Scores {
		out.Scores = append(out.Scores, goldenScore{
			Method: int(sc.Method), Hits: sc.Hits, Probes: sc.Probes,
			MeanRelErrBits: strconv.FormatUint(math.Float64bits(sc.MeanRelErr), 16),
		})
	}
	return out
}

func maskByOffsets(env *predict.Env, offs []int) { env.Mask(offs...) }

func TestSelectGolden(t *testing.T) {
	fields := goldenFields()
	plan := goldenPlan(fields)
	if len(plan) < 64 {
		t.Fatalf("golden plan has %d sites, want >= 64", len(plan))
	}

	if *updateGolden {
		got := make([]goldenSite, len(plan))
		for i, site := range plan {
			got[i] = goldenRun(fields[site.Field], site, maskByOffsets)
		}
		// One site per line keeps the file diffable.
		var buf bytes.Buffer
		buf.WriteString("[\n")
		for i, site := range got {
			line, err := json.Marshal(site)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(line)
			if i < len(got)-1 {
				buf.WriteByte(',')
			}
			buf.WriteByte('\n')
		}
		buf.WriteString("]\n")
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d sites to %s", len(got), goldenPath)
		return
	}

	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenSite
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(plan) {
		t.Fatalf("%s holds %d sites, the plan %d", goldenPath, len(want), len(plan))
	}
	for name, install := range goldenMaskModes {
		for i, site := range plan {
			got := goldenRun(fields[site.Field], site, install)
			if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want[i]); g != w {
				t.Errorf("%s mask, site %d (%s %v masked %v) diverges from the golden record:\n got %s\nwant %s",
					name, i, site.Field, site.Idx, site.Masked, g, w)
			}
		}
	}
}

// goldenMaskModes are the ways a caller can hide the masked neighbours from
// an Env; every one must reproduce the same golden record.
var goldenMaskModes = map[string]func(env *predict.Env, offs []int){
	"offsets": maskByOffsets,
	"predicate": func(env *predict.Env, offs []int) {
		env.SetMaskFunc(func(off int) bool { return slices.Contains(offs, off) })
	},
	"enumerable": func(env *predict.Env, offs []int) {
		m := slices.Clone(offs)
		slices.Sort(m)
		env.SetMaskSource(offsetMask(m))
	},
}

// offsetMask is an enumerable predict.MaskSource over an ascending offset
// list, standing in for the engine's per-array quarantine view.
type offsetMask []int

func (m offsetMask) Masked(off int) bool { return slices.Contains(m, off) }

func (m offsetMask) AppendMasked(dst []int, lo, hi, _ int) ([]int, bool) {
	for _, off := range m {
		if off >= lo && off <= hi {
			dst = append(dst, off)
		}
	}
	return dst, true
}
