// Package sdrbench provides deterministic synthetic stand-ins for the 111
// SDRBench datasets the paper evaluates on (Table 2): Nyx and HACC
// (cosmology), CESM-ATM and ISABEL (climate), and Miranda (hydrodynamics).
//
// The real SDRBench files are multi-gigabyte proprietary-format downloads;
// this repository substitutes generators that reproduce the *local spatial
// structure* each application exhibits, which is the only property the
// paper's reconstruction methods are sensitive to:
//
//   - CESM-ATM: very smooth 2-D climate fields — zonal (latitude) banding
//     plus long-wavelength weather systems; some fields (cloud fraction,
//     precipitation) have large exactly-zero regions.
//   - Nyx: 3-D cosmology grids — log-normal density contrast with
//     filamentary structure and a small-scale turbulence component.
//   - Miranda: 3-D hydrodynamics — smooth flow with thin shear/mixing
//     interfaces (steep tanh fronts a few cells wide).
//   - HACC: 1-D particle arrays — per-particle coordinates grouped by
//     spatial cell, so the linearized stream is piecewise-correlated with
//     cell-scale jitter and occasional jumps between cells.
//   - ISABEL: 3-D hurricane fields — smooth pressure/temperature, plus
//     sparse spike fields (cloud/precipitation) that are mostly zero with
//     steep localized plumes.
//
// Dataset counts per application match Table 2 exactly (6/79/7/6/13 = 111)
// so per-application weighting in pooled results matches the paper; grid
// dimensions are scaled down (Table 2 lists up to 512^3) to keep laptop-
// scale campaigns tractable. Generation is deterministic: a dataset's
// content depends only on its name and the configured scale.
package sdrbench

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/ndarray"
)

// App identifies the source application of a dataset.
type App int

const (
	// Nyx is the 3-D AMR cosmology code (6 fields).
	Nyx App = iota
	// CESM is the CESM-ATM 2-D climate model (79 fields).
	CESM
	// Miranda is the 3-D radiation-hydrodynamics code (7 fields).
	Miranda
	// HACC is the N-body cosmology code, 1-D particle arrays (6 fields).
	HACC
	// Isabel is the Hurricane Isabel WRF simulation (13 fields).
	Isabel

	// NumApps is the number of applications.
	NumApps int = iota
)

// String implements fmt.Stringer, matching the paper's application names.
func (a App) String() string {
	switch a {
	case Nyx:
		return "NYX"
	case CESM:
		return "CESM"
	case Miranda:
		return "Miranda"
	case HACC:
		return "HACC"
	case Isabel:
		return "ISABEL"
	default:
		return fmt.Sprintf("App(%d)", int(a))
	}
}

// Apps returns all applications in Table 2 order.
func Apps() []App { return []App{Nyx, CESM, Miranda, HACC, Isabel} }

// ParseApp resolves an application name case-insensitively.
func ParseApp(s string) (App, error) {
	for _, app := range Apps() {
		if strings.EqualFold(app.String(), s) {
			return app, nil
		}
	}
	return 0, fmt.Errorf("sdrbench: unknown application %q", s)
}

// Scale selects dataset grid sizes. Campaign accuracy statistics are nearly
// scale-invariant (the generators hold per-cell smoothness fixed); larger
// scales mostly increase runtime realism for the overhead experiments.
type Scale int

const (
	// ScaleTiny is for unit tests: a few thousand elements per dataset.
	ScaleTiny Scale = iota
	// ScaleSmall is the default campaign scale (~10^4-10^5 elements).
	ScaleSmall
	// ScaleMedium is for the overhead experiments (~10^5-10^6 elements).
	ScaleMedium
)

// ParseScale resolves a scale name: tiny, small or medium.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "tiny":
		return ScaleTiny, nil
	case "small":
		return ScaleSmall, nil
	case "medium":
		return ScaleMedium, nil
	}
	return 0, fmt.Errorf("sdrbench: unknown scale %q (want tiny, small, or medium)", s)
}

// dims returns the grid dimensions for an application at a scale.
func (s Scale) dims(app App) []int {
	switch app {
	case Nyx: // paper: 512 x 512 x 512
		switch s {
		case ScaleTiny:
			return []int{16, 16, 16}
		case ScaleSmall:
			return []int{32, 32, 32}
		default:
			return []int{64, 64, 64}
		}
	case CESM: // paper: 1800 x 3600
		switch s {
		case ScaleTiny:
			return []int{30, 60}
		case ScaleSmall:
			return []int{90, 180}
		default:
			return []int{180, 360}
		}
	case Miranda: // paper: 256 x 384 x 384
		switch s {
		case ScaleTiny:
			return []int{8, 12, 12}
		case ScaleSmall:
			return []int{16, 24, 24}
		default:
			return []int{32, 48, 48}
		}
	case HACC: // paper: 280,953,867-element 1-D arrays
		switch s {
		case ScaleTiny:
			return []int{4096}
		case ScaleSmall:
			return []int{65536}
		default:
			return []int{1048576}
		}
	case Isabel: // paper: 100 x 500 x 500
		switch s {
		case ScaleTiny:
			return []int{10, 25, 25}
		case ScaleSmall:
			return []int{20, 50, 50}
		default:
			return []int{40, 100, 100}
		}
	default:
		panic("sdrbench: unknown app")
	}
}

// PaperDims returns the dataset dimensions reported in Table 2 of the paper.
func PaperDims(app App) []int {
	switch app {
	case Nyx:
		return []int{512, 512, 512}
	case CESM:
		return []int{1800, 3600}
	case Miranda:
		return []int{256, 384, 384}
	case HACC:
		return []int{280953867}
	case Isabel:
		return []int{100, 500, 500}
	default:
		panic("sdrbench: unknown app")
	}
}

// Domain returns the science domain string from Table 2.
func Domain(app App) string {
	switch app {
	case Nyx, HACC:
		return "Cosmology"
	case CESM, Isabel:
		return "Climate"
	case Miranda:
		return "Hydrodynamics"
	default:
		return "?"
	}
}

// Dataset is one generated field.
type Dataset struct {
	// App is the source application.
	App App
	// Name is the field name (mirrors SDRBench file names).
	Name string
	// DType is the element representation (SDRBench data is float32).
	DType bitflip.DType
	// Array holds the field values.
	Array *ndarray.Array
}

// String implements fmt.Stringer.
func (d *Dataset) String() string {
	return fmt.Sprintf("%s/%s %v", d.App, d.Name, d.Array)
}

// Smoothness returns a dimensionless spatial-smoothness score in (0, +inf):
// the mean absolute value divided by the mean absolute difference between
// face neighbors along the *roughest* axis. Larger means smoother in the
// point-relative sense the reconstruction methods are judged by — a score
// of 100 says neighboring values along the least-smooth axis typically
// differ by ~1% of the value magnitude. Taking the worst axis (rather than
// the linearized order) matters for anisotropic fields: a dataset that is
// gentle along rows but banded across them is genuinely hard for the
// multi-dimensional methods, and its score reflects that. The paper's
// Section 6 ties reconstruction accuracy to this property ("data sets with
// greater spatial smoothness produce higher uniform accuracy").
func (d *Dataset) Smoothness() float64 {
	a := d.Array
	data := a.Data()
	if len(data) < 2 {
		return math.Inf(1)
	}
	sumAbs := 0.0
	for _, v := range data {
		sumAbs += math.Abs(v)
	}
	meanAbs := sumAbs / float64(len(data))

	strides := a.Strides()
	dims := a.NumDims()
	sumDiff := make([]float64, dims)
	nDiff := make([]int, dims)
	idx := make([]int, dims)
	for off := range data {
		a.CoordsInto(idx, off)
		for dim := 0; dim < dims; dim++ {
			if idx[dim]+1 < a.Dim(dim) {
				sumDiff[dim] += math.Abs(data[off+strides[dim]] - data[off])
				nDiff[dim]++
			}
		}
	}
	worst := 0.0
	for dim := 0; dim < dims; dim++ {
		if nDiff[dim] == 0 {
			continue
		}
		if m := sumDiff[dim] / float64(nDiff[dim]); m > worst {
			worst = m
		}
	}
	if worst == 0 {
		return math.Inf(1)
	}
	return meanAbs / worst
}

// ZeroFraction returns the share of exactly-zero elements (plateaus of
// thresholded fields). Datasets dominated by zeros are excluded from the
// smoothness-accuracy analysis: relative error at a zero is degenerate, so
// their success rates say little about spatial prediction quality.
func (d *Dataset) ZeroFraction() float64 {
	zeros := 0
	for _, v := range d.Array.Data() {
		if v == 0 {
			zeros++
		}
	}
	return float64(zeros) / float64(d.Array.Len())
}

// DatasetCount returns the Table 2 dataset count per application.
func DatasetCount(app App) int {
	switch app {
	case Nyx:
		return 6
	case CESM:
		return 79
	case Miranda:
		return 7
	case HACC:
		return 6
	case Isabel:
		return 13
	default:
		return 0
	}
}

// Names returns the dataset (field) names for an application, DatasetCount
// entries long.
func Names(app App) []string {
	switch app {
	case Nyx:
		return []string{
			"baryon_density", "dark_matter_density", "temperature",
			"velocity_x", "velocity_y", "velocity_z",
		}
	case Miranda:
		return []string{
			"density", "pressure", "diffusivity",
			"velocityx", "velocityy", "velocityz", "viscocity",
		}
	case HACC:
		return []string{"xx", "yy", "zz", "vx", "vy", "vz"}
	case Isabel:
		return []string{
			"CLOUDf48", "PRECIPf48", "QCLOUDf48", "QGRAUPf48", "QICEf48",
			"QRAINf48", "QSNOWf48", "QVAPORf48", "Pf48", "TCf48",
			"Uf48", "Vf48", "Wf48",
		}
	case CESM:
		return cesmNames()
	default:
		return nil
	}
}

// cesmNames lists the 79 CESM-ATM field names (matching the SDRBench
// CESM-ATM 26x1800x3600 collection's 2-D variables).
func cesmNames() []string {
	return []string{
		"AEROD_v", "ANRAIN", "ANSNOW", "AODABS", "AODDUST1", "AODDUST2",
		"AODDUST3", "AODVIS", "AQRAIN", "AQSNOW", "AREI", "AREL", "AWNC",
		"AWNI", "BURDEN1", "BURDEN2", "BURDEN3", "CCN3", "CDNUMC", "CLDHGH",
		"CLDICE", "CLDLIQ", "CLDLOW", "CLDMED", "CLDTOT", "CLOUD", "DCQ",
		"DMS_SRF", "DTCOND", "DTV", "EMISCLD", "FICE", "FLDS", "FLNS",
		"FLNSC", "FLNT", "FLNTC", "FLUT", "FLUTC", "FREQI", "FREQL", "FREQR",
		"FREQS", "FSDS", "FSDSC", "FSNS", "FSNSC", "FSNT", "FSNTC", "FSNTOA",
		"FSNTOAC", "FSUTOA", "H2O2_SRF", "H2SO4_SRF", "ICEFRAC", "ICIMR",
		"ICWMR", "IWC", "LANDFRAC", "LHFLX", "LWCF", "NUMICE", "NUMLIQ",
		"OCNFRAC", "OMEGA", "OMEGAT", "PBLH", "PHIS", "PRECC", "PRECL",
		"PRECSC", "PRECSL", "PS", "PSL", "Q", "QFLX", "QREFHT", "RELHUM",
		"SHFLX",
	}
}

// seedFor derives a stable 64-bit seed from an application and field name.
func seedFor(app App, name string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", int(app), name)
	return int64(h.Sum64())
}

// Generate builds the named dataset at the given scale. It panics if the
// name is not one of Names(app).
func Generate(app App, name string, scale Scale) *Dataset {
	found := false
	for _, n := range Names(app) {
		if n == name {
			found = true
			break
		}
	}
	if !found {
		panic(fmt.Sprintf("sdrbench: unknown dataset %s/%s", app, name))
	}
	rng := rand.New(rand.NewSource(seedFor(app, name)))
	dims := scale.dims(app)
	a := ndarray.New(dims...)
	switch app {
	case Nyx:
		genNyx(a, name, rng)
	case CESM:
		genCESM(a, name, rng)
	case Miranda:
		genMiranda(a, name, rng)
	case HACC:
		genHACC(a, name, rng)
	case Isabel:
		genIsabel(a, name, rng)
	}
	roundToFloat32(a)
	return &Dataset{App: app, Name: name, DType: bitflip.Float32, Array: a}
}

// roundToFloat32 snaps every value to its float32 representation, matching
// the storage precision of the real SDRBench files.
func roundToFloat32(a *ndarray.Array) {
	data := a.Data()
	for i, v := range data {
		data[i] = float64(float32(v))
	}
}
