// Package campaign implements the paper's experimental methodology
// (Section 4.2): for every dataset of every application, run a fault
// injection campaign of N trials; each trial corrupts one uniformly random
// element with one uniformly random bit flip and evaluates every
// reconstruction method (and optionally the auto-tuner) against the
// original value. Results aggregate into the success-rate statistics behind
// Figures 2-9.
package campaign

import (
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"

	"spatialdue/internal/autotune"
	"spatialdue/internal/bitflip"
	"spatialdue/internal/faultinject"
	"spatialdue/internal/predict"
	"spatialdue/internal/sdrbench"
)

// relErrClamp bounds individual relative errors when summing, so a handful
// of wild reconstructions cannot dominate mean statistics. Failed
// predictions are charged at the clamp.
const relErrClamp = 1e3

// reservoirCap bounds the per-(method, app) sample kept for quantiles.
const reservoirCap = 4096

// autotuneK is the tuner's neighborhood radius (paper: 3).
const autotuneK = 3

// Config parameterizes a campaign.
type Config struct {
	// Scale selects synthetic dataset sizes.
	Scale sdrbench.Scale
	// Trials is the number of fault injections per dataset. The paper runs
	// at least 6000; the package default is smaller to keep laptop runs
	// fast, and the cmd tools expose a flag.
	Trials int
	// AutotuneTrials is how many of each dataset's trials additionally run
	// the auto-tuner (Figures 8 and 9). Zero disables tuning.
	AutotuneTrials int
	// AutotuneMaxProbes caps tuner probes per trial (0 = no cap).
	AutotuneMaxProbes int
	// Tolerance is the tuner's scoring bound (paper: 0.01).
	Tolerance float64
	// Thresholds are the relative-error levels reported (paper: 1/5/10%).
	Thresholds []float64
	// Methods are the reconstruction methods evaluated, in figure order.
	Methods []predict.Method
	// Apps restricts the applications (empty = all five).
	Apps []sdrbench.App
	// DataDir, when set, runs the campaign on real SDRBench dumps loaded
	// from DataDir/manifest.json (sdrbench.LoadManifest) instead of the
	// synthetic generators. Scale and Apps are ignored in that mode.
	DataDir string
	// Seed makes the whole campaign reproducible.
	Seed int64
	// Workers bounds dataset-level parallelism (0 = GOMAXPROCS).
	Workers int
	// Progress, when non-nil, receives one line per completed dataset.
	Progress func(string)
	// FaultClass selects the injected fault shape (default ClassBit, the
	// paper's one-element one-bit model). Structured data classes plan one
	// physical event per trial — a multi-bit burst, a row wipe, or a column
	// failure — and every corrupted cell is masked while its neighbors'
	// predictions are scored, so multi-cell wipes exercise the degraded
	// stencils instead of silently reading doomed neighbors. ClassMetadata
	// corrupts descriptors, not data, and is rejected here.
	FaultClass faultinject.FaultClass
	// FaultSpan parameterizes FaultClass: adjacent-bit width for ClassBurst,
	// cells-per-wipe for ClassRow (0 selects the class defaults).
	FaultSpan int
}

// DefaultConfig returns a configuration that reproduces the paper's shape
// in about a minute on a laptop core.
func DefaultConfig() Config {
	return Config{
		Scale:             sdrbench.ScaleSmall,
		Trials:            1500,
		AutotuneTrials:    200,
		AutotuneMaxProbes: 48,
		Tolerance:         0.01,
		Thresholds:        []float64{0.01, 0.05, 0.10},
		Methods:           predict.HeadlineMethods(),
		Seed:              42,
	}
}

// Cell aggregates one (method, application) combination.
type Cell struct {
	// Trials is the number of injections evaluated.
	Trials int
	// Hits[i] counts reconstructions with relative error <= Thresholds[i].
	Hits []int
	// Failures counts trials where the method could not produce a
	// prediction at all (ErrUnsupported).
	Failures int
	// SumRelErr accumulates clamped relative errors (mean = Sum/Trials).
	SumRelErr float64
	// Sample is a deterministic reservoir of relative errors for quantiles.
	Sample []float64
	seen   int
}

func newCell(nThresh int) *Cell {
	return &Cell{Hits: make([]int, nThresh)}
}

func (c *Cell) add(re float64, thresholds []float64, rng *splitmix) {
	c.Trials++
	if math.IsInf(re, 0) || math.IsNaN(re) {
		// No usable prediction (or a NaN reconstruction, equally unusable):
		// count a failure and charge the clamp value.
		c.Failures++
		re = relErrClamp
	}
	for i, t := range thresholds {
		if re <= t {
			c.Hits[i]++
		}
	}
	if re > relErrClamp {
		re = relErrClamp
	}
	c.SumRelErr += re
	// Reservoir sampling (Algorithm R) with a deterministic generator.
	c.seen++
	if len(c.Sample) < reservoirCap {
		c.Sample = append(c.Sample, re)
	} else if j := int(rng.next() % uint64(c.seen)); j < reservoirCap {
		c.Sample[j] = re
	}
}

func (c *Cell) merge(o *Cell) {
	c.Trials += o.Trials
	c.Failures += o.Failures
	c.SumRelErr += o.SumRelErr
	for i := range c.Hits {
		c.Hits[i] += o.Hits[i]
	}
	c.seen += o.seen
	// Keep merge deterministic: concatenate then truncate.
	c.Sample = append(c.Sample, o.Sample...)
	if len(c.Sample) > reservoirCap {
		c.Sample = c.Sample[:reservoirCap]
	}
}

// Rate returns Hits[i]/Trials.
func (c *Cell) Rate(i int) float64 {
	if c.Trials == 0 {
		return 0
	}
	return float64(c.Hits[i]) / float64(c.Trials)
}

// MeanRelErr returns the clamped mean relative error.
func (c *Cell) MeanRelErr() float64 {
	if c.Trials == 0 {
		return 0
	}
	return c.SumRelErr / float64(c.Trials)
}

// MedianRelErr returns the sampled median relative error.
func (c *Cell) MedianRelErr() float64 {
	if len(c.Sample) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), c.Sample...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// AutotuneCell aggregates tuner quality for one application.
type AutotuneCell struct {
	// Trials is the number of tuned injections.
	Trials int
	// WithinTol counts trials where the tuner's chosen method reconstructed
	// within the tolerance (Figure 8's success definition).
	WithinTol int
	// OracleBest counts trials where the chosen method achieved the lowest
	// relative error among all candidates (Figure 9).
	OracleBest int
	// Chosen histograms which method the tuner picked, indexed like
	// Config.Methods.
	Chosen []int
}

func (c *AutotuneCell) merge(o *AutotuneCell) {
	c.Trials += o.Trials
	c.WithinTol += o.WithinTol
	c.OracleBest += o.OracleBest
	for i := range c.Chosen {
		c.Chosen[i] += o.Chosen[i]
	}
}

// DatasetInfo summarizes one generated dataset (Table 2 provenance plus the
// smoothness score the paper's conclusions reference).
type DatasetInfo struct {
	App        sdrbench.App
	Name       string
	Dims       []int
	Smoothness float64
	// ZeroFrac is the share of exactly-zero elements; plateau-dominated
	// datasets are excluded from the smoothness analysis.
	ZeroFrac float64
	Min, Max float64
}

// Results holds a completed campaign.
type Results struct {
	Thresholds []float64
	Methods    []predict.Method
	Apps       []sdrbench.App
	// PerMethodApp is indexed [method][app].
	PerMethodApp [][]*Cell
	// Autotune is indexed [app]; nil when tuning was disabled.
	Autotune []*AutotuneCell
	// Datasets describes every dataset evaluated.
	Datasets []DatasetInfo
	// PerDataset holds dataset-granularity results (same order as
	// Datasets), backing the smoothness-accuracy analysis.
	PerDataset []DatasetCells
	// TotalTrials is the number of injections across all datasets.
	TotalTrials int
}

// DatasetCells is one dataset's per-method result block.
type DatasetCells struct {
	Info DatasetInfo
	// Hits is indexed [method][threshold]; Trials is per method.
	Hits   [][]int
	Trials []int
}

// Rate returns the success rate of method mi at threshold ti.
func (d *DatasetCells) Rate(mi, ti int) float64 {
	if d.Trials[mi] == 0 {
		return 0
	}
	return float64(d.Hits[mi][ti]) / float64(d.Trials[mi])
}

// appIndex maps an App to its index in r.Apps.
func (r *Results) appIndex(app sdrbench.App) int {
	for i, a := range r.Apps {
		if a == app {
			return i
		}
	}
	return -1
}

// pooledCell merges one method's cells across every application.
func (r *Results) pooledCell(mi int) *Cell {
	pooled := newCell(len(r.Thresholds))
	for _, c := range r.PerMethodApp[mi] {
		pooled.merge(c)
	}
	return pooled
}

// OverallRate pools every application (Figures 2-4): total hits over total
// trials for method index mi at threshold index ti.
func (r *Results) OverallRate(mi, ti int) float64 {
	hits, trials := 0, 0
	for _, c := range r.PerMethodApp[mi] {
		hits += c.Hits[ti]
		trials += c.Trials
	}
	if trials == 0 {
		return 0
	}
	return float64(hits) / float64(trials)
}

// AppRate returns the per-application success rate (Figures 5-7).
func (r *Results) AppRate(mi, ai, ti int) float64 { return r.PerMethodApp[mi][ai].Rate(ti) }

// Run executes the campaign.
func Run(cfg Config) (*Results, error) {
	if cfg.Trials <= 0 {
		return nil, fmt.Errorf("campaign: Trials must be positive, got %d", cfg.Trials)
	}
	if cfg.FaultClass == faultinject.ClassMetadata {
		return nil, fmt.Errorf("campaign: fault class %v corrupts descriptors, not data; campaigns need a data class", cfg.FaultClass)
	}
	if len(cfg.Thresholds) == 0 {
		cfg.Thresholds = []float64{0.01, 0.05, 0.10}
	}
	if len(cfg.Methods) == 0 {
		cfg.Methods = predict.HeadlineMethods()
	}
	if len(cfg.Apps) == 0 {
		cfg.Apps = sdrbench.Apps()
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Tolerance <= 0 {
		cfg.Tolerance = 0.01
	}

	res := &Results{
		Thresholds:   cfg.Thresholds,
		Methods:      cfg.Methods,
		Apps:         cfg.Apps,
		PerMethodApp: make([][]*Cell, len(cfg.Methods)),
	}
	for mi := range cfg.Methods {
		res.PerMethodApp[mi] = make([]*Cell, len(cfg.Apps))
		for ai := range cfg.Apps {
			res.PerMethodApp[mi][ai] = newCell(len(cfg.Thresholds))
		}
	}
	if cfg.AutotuneTrials > 0 {
		res.Autotune = make([]*AutotuneCell, len(cfg.Apps))
		for ai := range cfg.Apps {
			res.Autotune[ai] = &AutotuneCell{Chosen: make([]int, len(cfg.Methods))}
		}
	}

	type job struct {
		app  sdrbench.App
		name string
		// load is non-nil in DataDir mode and produces the real dataset.
		load func() (*sdrbench.Dataset, error)
	}
	var jobs []job
	if cfg.DataDir != "" {
		manifest, err := sdrbench.LoadManifest(filepath.Join(cfg.DataDir, "manifest.json"))
		if err != nil {
			return nil, err
		}
		seen := map[sdrbench.App]bool{}
		var apps []sdrbench.App
		for _, e := range manifest.Datasets {
			e := e
			app, err := sdrbench.ParseApp(e.App)
			if err != nil {
				return nil, err
			}
			if !seen[app] {
				seen[app] = true
				apps = append(apps, app)
			}
			jobs = append(jobs, job{app: app, name: e.Name, load: func() (*sdrbench.Dataset, error) {
				return sdrbench.LoadEntry(cfg.DataDir, e)
			}})
		}
		sort.Slice(apps, func(i, j int) bool { return apps[i] < apps[j] })
		cfg.Apps = apps
		// Rebuild the result skeleton for the manifest's apps.
		res.Apps = apps
		for mi := range cfg.Methods {
			res.PerMethodApp[mi] = make([]*Cell, len(apps))
			for ai := range apps {
				res.PerMethodApp[mi][ai] = newCell(len(cfg.Thresholds))
			}
		}
		if res.Autotune != nil {
			res.Autotune = make([]*AutotuneCell, len(apps))
			for ai := range apps {
				res.Autotune[ai] = &AutotuneCell{Chosen: make([]int, len(cfg.Methods))}
			}
		}
	} else {
		for _, app := range cfg.Apps {
			for _, name := range sdrbench.Names(app) {
				jobs = append(jobs, job{app: app, name: name})
			}
		}
	}

	var (
		wg    sync.WaitGroup
		errMu sync.Mutex
		first error
	)
	// Finished datasets are parked in job order and folded into the campaign
	// totals only after every worker is done: float addition is not
	// associative, so a fold in completion order would let scheduling decide
	// the last ulp of SumRelErr and reruns of one configuration would differ.
	done := make([]*datasetResult, len(jobs))
	sem := make(chan struct{}, cfg.Workers)
	for i, j := range jobs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, j job) {
			defer wg.Done()
			defer func() { <-sem }()
			dr, err := runDatasetSafe(cfg, j.app, j.name, j.load)
			if err != nil {
				errMu.Lock()
				if first == nil {
					first = err
				}
				errMu.Unlock()
				return
			}
			done[i] = dr
			if cfg.Progress != nil {
				cfg.Progress(fmt.Sprintf("%s/%s done (%d trials)", j.app, dr.info.Name, cfg.Trials))
			}
		}(i, j)
	}
	wg.Wait()
	if first != nil {
		return nil, first
	}
	for i, dr := range done {
		dc := DatasetCells{
			Info:   dr.info,
			Hits:   make([][]int, len(cfg.Methods)),
			Trials: make([]int, len(cfg.Methods)),
		}
		for mi, c := range dr.cells {
			dc.Hits[mi] = append([]int(nil), c.Hits...)
			dc.Trials[mi] = c.Trials
		}
		ai := res.appIndex(jobs[i].app)
		for mi := range cfg.Methods {
			res.PerMethodApp[mi][ai].merge(dr.cells[mi])
		}
		if res.Autotune != nil && dr.autotune != nil {
			res.Autotune[ai].merge(dr.autotune)
		}
		res.Datasets = append(res.Datasets, dr.info)
		res.PerDataset = append(res.PerDataset, dc)
		res.TotalTrials += cfg.Trials
	}
	// Stable dataset ordering regardless of scheduling.
	sort.Slice(res.Datasets, func(i, k int) bool {
		if res.Datasets[i].App != res.Datasets[k].App {
			return res.Datasets[i].App < res.Datasets[k].App
		}
		return res.Datasets[i].Name < res.Datasets[k].Name
	})
	sort.Slice(res.PerDataset, func(i, k int) bool {
		a, b := res.PerDataset[i].Info, res.PerDataset[k].Info
		if a.App != b.App {
			return a.App < b.App
		}
		return a.Name < b.Name
	})
	return res, nil
}

// datasetResult is one dataset's contribution.
type datasetResult struct {
	cells    []*Cell
	autotune *AutotuneCell
	info     DatasetInfo
}

func seedFor(base int64, app sdrbench.App, name string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%s", base, int(app), name)
	return int64(h.Sum64())
}

// runDatasetSafe isolates per-trial panics: a predictor (or a corrupt real
// dataset) that panics mid-campaign loses that dataset's contribution but
// surfaces as an ordinary error on the campaign, instead of crashing every
// other in-flight dataset with it.
func runDatasetSafe(cfg Config, app sdrbench.App, name string, load func() (*sdrbench.Dataset, error)) (dr *datasetResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			dr = nil
			err = fmt.Errorf("campaign: dataset %s/%s panicked: %v\n%s", app, name, r, debug.Stack())
		}
	}()
	return runDataset(cfg, app, name, load)
}

func runDataset(cfg Config, app sdrbench.App, name string, load func() (*sdrbench.Dataset, error)) (*datasetResult, error) {
	var ds *sdrbench.Dataset
	if load != nil {
		var err error
		ds, err = load()
		if err != nil {
			return nil, err
		}
	} else {
		ds = sdrbench.Generate(app, name, cfg.Scale)
	}
	arr := ds.Array
	seed := seedFor(cfg.Seed, app, name)

	env := predict.NewEnv(arr, seed)
	env.Precompute() // O(1) global regression per trial; array stays pristine

	inj := faultinject.New(seed+1, ds.DType)
	preds := make([]predict.Predictor, len(cfg.Methods))
	for i, m := range cfg.Methods {
		preds[i] = predict.New(m)
	}

	dr := &datasetResult{cells: make([]*Cell, len(cfg.Methods))}
	for i := range dr.cells {
		dr.cells[i] = newCell(len(cfg.Thresholds))
	}
	min, max := arr.MinMax()
	dr.info = DatasetInfo{
		App: app, Name: name, Dims: arr.Dims(),
		Smoothness: ds.Smoothness(), ZeroFrac: ds.ZeroFraction(),
		Min: min, Max: max,
	}

	tuneCfg := autotune.Config{
		K:         autotuneK,
		Tolerance: cfg.Tolerance,
		Methods:   cfg.Methods,
		MaxProbes: cfg.AutotuneMaxProbes,
	}
	if cfg.AutotuneTrials > 0 {
		dr.autotune = &AutotuneCell{Chosen: make([]int, len(cfg.Methods))}
	}
	methodIdx := make(map[predict.Method]int, len(cfg.Methods))
	for i, m := range cfg.Methods {
		methodIdx[m] = i
	}

	rng := &splitmix{state: uint64(seed) ^ 0x9E3779B97F4A7C15}
	idx := make([]int, arr.NumDims())
	relerrs := make([]float64, len(cfg.Methods))
	// evalCell scores every method's prediction at one corrupted cell
	// (leaving relerrs populated for the tuner); tuneCell runs the
	// auto-tuner against the cell evalCell just scored.
	evalCell := func(offset int, orig float64) {
		arr.CoordsInto(idx, offset)
		for mi, p := range preds {
			got, err := p.Predict(env, idx)
			var re float64
			if err != nil {
				re = math.Inf(1)
			} else {
				re = bitflip.RelErr(orig, got)
			}
			relerrs[mi] = re
			dr.cells[mi].add(re, cfg.Thresholds, rng)
		}
	}
	tuneCell := func() {
		sel, err := autotune.Select(env, idx, tuneCfg)
		if err != nil {
			return
		}
		ci, ok := methodIdx[sel.Best]
		if !ok {
			return
		}
		dr.autotune.Trials++
		dr.autotune.Chosen[ci]++
		if relerrs[ci] <= cfg.Tolerance {
			dr.autotune.WithinTol++
		}
		best := math.Inf(1)
		for _, re := range relerrs {
			if re < best {
				best = re
			}
		}
		// The tuner "found the oracle method" if its choice achieved
		// the minimum error (ties count: several methods often
		// reconstruct exactly).
		if relerrs[ci] <= best*(1+1e-12)+1e-300 {
			dr.autotune.OracleBest++
		}
	}

	if cfg.FaultClass == faultinject.ClassBit {
		// The paper's model, byte-for-byte: Plan keeps the injector's draw
		// sequence identical to historical campaigns.
		for ti, t := range inj.Plan(arr, cfg.Trials) {
			evalCell(t.Offset, t.Orig)
			if dr.autotune != nil && ti < cfg.AutotuneTrials {
				tuneCell()
			}
		}
		return dr, nil
	}
	// Structured classes: one physical event per trial, possibly many cells.
	// Every cell of the event is masked for the event's whole evaluation, so
	// a wiped cell's prediction can only draw on survivors — the degraded
	// stencils, not the doomed neighbors, carry the score.
	for ti, st := range inj.PlanStructured(arr, cfg.FaultClass, cfg.Trials, cfg.FaultSpan) {
		offs := st.Offsets()
		env.Mask(offs...)
		for ci, cell := range st.Cells {
			evalCell(cell.Offset, cell.Orig)
			// Tune once per event (its first cell), mirroring the per-trial
			// cadence of the bit campaign.
			if ci == 0 && dr.autotune != nil && ti < cfg.AutotuneTrials {
				tuneCell()
			}
		}
		env.Allow(offs...)
	}
	return dr, nil
}

// splitmix is a tiny deterministic PRNG for reservoir sampling (kept apart
// from math/rand so reservoir decisions never perturb trial planning).
type splitmix struct{ state uint64 }

func (s *splitmix) next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
