package sdrbench

import (
	"math"
	"testing"

	"spatialdue/internal/ndarray"
)

func TestTable2Counts(t *testing.T) {
	// Dataset counts must match the paper's Table 2 exactly.
	want := map[App]int{Nyx: 6, CESM: 79, Miranda: 7, HACC: 6, Isabel: 13}
	total := 0
	for app, n := range want {
		if got := DatasetCount(app); got != n {
			t.Errorf("DatasetCount(%v) = %d, want %d", app, got, n)
		}
		if got := len(Names(app)); got != n {
			t.Errorf("len(Names(%v)) = %d, want %d", app, got, n)
		}
		total += n
	}
	if total != 111 {
		t.Errorf("total datasets = %d, want 111", total)
	}
}

func TestNamesUnique(t *testing.T) {
	for _, app := range Apps() {
		seen := map[string]bool{}
		for _, n := range Names(app) {
			if seen[n] {
				t.Errorf("%v: duplicate dataset name %q", app, n)
			}
			seen[n] = true
		}
	}
}

func TestPaperDims(t *testing.T) {
	if d := PaperDims(CESM); len(d) != 2 || d[0] != 1800 || d[1] != 3600 {
		t.Errorf("CESM paper dims = %v", d)
	}
	if d := PaperDims(HACC); len(d) != 1 || d[0] != 280953867 {
		t.Errorf("HACC paper dims = %v", d)
	}
	if d := PaperDims(Nyx); len(d) != 3 || d[0] != 512 {
		t.Errorf("Nyx paper dims = %v", d)
	}
}

func TestDomains(t *testing.T) {
	if Domain(Nyx) != "Cosmology" || Domain(CESM) != "Climate" || Domain(Miranda) != "Hydrodynamics" {
		t.Error("domains wrong")
	}
}

func TestDimensionalityPerApp(t *testing.T) {
	wantDims := map[App]int{Nyx: 3, CESM: 2, Miranda: 3, HACC: 1, Isabel: 3}
	for app, nd := range wantDims {
		ds := Generate(app, Names(app)[0], ScaleTiny)
		if ds.Array.NumDims() != nd {
			t.Errorf("%v is %d-D, want %d-D", app, ds.Array.NumDims(), nd)
		}
	}
}

func TestScalesGrow(t *testing.T) {
	for _, app := range Apps() {
		tiny := ScaleTiny.dims(app)
		small := ScaleSmall.dims(app)
		medium := ScaleMedium.dims(app)
		nt, ns, nm := prod(tiny), prod(small), prod(medium)
		if !(nt < ns && ns < nm) {
			t.Errorf("%v scales not increasing: %d, %d, %d", app, nt, ns, nm)
		}
	}
}

func prod(dims []int) int {
	n := 1
	for _, d := range dims {
		n *= d
	}
	return n
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(CESM, "FLDS", ScaleTiny)
	b := Generate(CESM, "FLDS", ScaleTiny)
	if !ndarray.ApproxEqual(a.Array, b.Array, 0) {
		t.Error("same dataset generated differently twice")
	}
	c := Generate(CESM, "FLNS", ScaleTiny)
	if ndarray.ApproxEqual(a.Array, c.Array, 0) {
		t.Error("different fields produced identical data")
	}
}

func TestGeneratePanicsOnUnknownName(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown dataset name did not panic")
		}
	}()
	Generate(CESM, "NOPE", ScaleTiny)
}

func TestValuesAreFloat32Representable(t *testing.T) {
	for _, app := range Apps() {
		ds := Generate(app, Names(app)[0], ScaleTiny)
		for _, v := range ds.Array.Data() {
			if float64(float32(v)) != v {
				t.Fatalf("%v: value %v is not float32-representable", app, v)
			}
		}
	}
}

func TestValuesFinite(t *testing.T) {
	for _, app := range Apps() {
		for _, name := range Names(app) {
			ds := Generate(app, name, ScaleTiny)
			for _, v := range ds.Array.Data() {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s/%s contains non-finite value", app, name)
				}
			}
		}
	}
}

func TestSparseFieldsHaveZeros(t *testing.T) {
	// Sparse CESM fields and ISABEL hydrometeor fields must have a
	// substantial exact-zero fraction; smooth fields must not.
	frac := func(ds *Dataset) float64 {
		zeros := 0
		for _, v := range ds.Array.Data() {
			if v == 0 {
				zeros++
			}
		}
		return float64(zeros) / float64(ds.Array.Len())
	}
	if f := frac(Generate(CESM, "CLDTOT", ScaleSmall)); f < 0.1 || f > 0.8 {
		t.Errorf("CLDTOT zero fraction = %v, want 0.1-0.8", f)
	}
	if f := frac(Generate(Isabel, "CLOUDf48", ScaleSmall)); f < 0.3 || f > 0.95 {
		t.Errorf("CLOUDf48 zero fraction = %v, want 0.3-0.95", f)
	}
	if f := frac(Generate(CESM, "FLDS", ScaleSmall)); f > 0.001 {
		t.Errorf("FLDS zero fraction = %v, want ~0", f)
	}
	if f := frac(Generate(Nyx, "temperature", ScaleSmall)); f > 0.001 {
		t.Errorf("Nyx temperature zero fraction = %v, want ~0", f)
	}
}

func TestSmoothnessOrdering(t *testing.T) {
	// CESM smooth fields should score much smoother than HACC velocity
	// streams — the property the paper ties accuracy to.
	cesm := Generate(CESM, "FLDS", ScaleSmall).Smoothness()
	hacc := Generate(HACC, "vx", ScaleSmall).Smoothness()
	if cesm < 2*hacc {
		t.Errorf("smoothness: CESM %v not >> HACC %v", cesm, hacc)
	}
}

func TestConstantFieldsNearlyConstant(t *testing.T) {
	ds := Generate(CESM, "AODVIS", ScaleSmall)
	min, max := ds.Array.MinMax()
	if min <= 0 {
		t.Fatalf("constant field min = %v", min)
	}
	if (max-min)/min > 0.1 {
		t.Errorf("constant field relative variation = %v, want small", (max-min)/min)
	}
}

func TestAppString(t *testing.T) {
	if Nyx.String() != "NYX" || Isabel.String() != "ISABEL" || CESM.String() != "CESM" {
		t.Error("App strings wrong")
	}
}

func TestDatasetString(t *testing.T) {
	ds := Generate(HACC, "xx", ScaleTiny)
	if ds.String() != "HACC/xx ndarray[4096]" {
		t.Errorf("Dataset.String() = %q", ds.String())
	}
}

func TestSmoothnessDegenerate(t *testing.T) {
	a := ndarray.New(1)
	d := &Dataset{Array: a}
	if !math.IsInf(d.Smoothness(), 1) {
		t.Error("single-element smoothness should be +Inf")
	}
	b := ndarray.New(10)
	b.Fill(5)
	d2 := &Dataset{Array: b}
	if !math.IsInf(d2.Smoothness(), 1) {
		t.Error("constant-array smoothness should be +Inf")
	}
}

func TestSeedForStable(t *testing.T) {
	if seedFor(CESM, "FLDS") != seedFor(CESM, "FLDS") {
		t.Error("seedFor not stable")
	}
	if seedFor(CESM, "FLDS") == seedFor(CESM, "FLNS") {
		t.Error("seedFor collision across names")
	}
	if seedFor(Nyx, "xx") == seedFor(HACC, "xx") {
		t.Error("seedFor collision across apps")
	}
}
