package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// header records where and how a results file was produced.
type header struct {
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Clients    int     `json:"clients"`
	Repeat     int     `json:"repeat"`
	When       string  `json:"when"`
}

// metricReport is one metric of one workload in a results file. Runs holds
// one reported value per run (a run's value is already reduced from its
// windows); Median/Min/Max summarize Runs. Windows keeps every per-window
// sample of every run, for the reader who wants to see the raw scatter.
type metricReport struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Runs    []float64 `json:"runs,omitempty"`
	Windows []float64 `json:"windows,omitempty"`
}

// workloadReport is one workload's section of a results file.
type workloadReport struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	EndToEnd  map[string]metricReport `json:"end_to_end"`
	PerLayer  map[string]metricReport `json:"per_layer,omitempty"`
	Notes     []string                `json:"notes,omitempty"`
}

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	Header    header                    `json:"header"`
	Workloads map[string]workloadReport `json:"workloads"`
}

// commitID names the code under test: git's HEAD when the checkout is a
// repository, else the build's VCS stamp, else "unknown".
func commitID() string {
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		if id := strings.TrimSpace(string(out)); id != "" {
			return id
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func newHeader(seed int64, seconds float64, repeat int) header {
	return header{
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commitID(), Seed: seed, Seconds: seconds, Clients: numClients(), Repeat: repeat,
		When: time.Now().UTC().Format(time.RFC3339),
	}
}

func (h header) print(w io.Writer) {
	fmt.Fprintf(w, "# bench: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%g clients=%d repeat=%d\n",
		h.NProc, h.GoMaxProcs, h.GoVersion, h.Commit, h.Seed, h.Seconds, h.Clients, h.Repeat)
}

// runChild runs one workload in a fresh child process of this command, so
// peak RSS, GC state and goroutines never leak from one workload into the
// next, and returns its detail file's contents.
func runChild(workload string, seed int64, seconds float64, traced, smoke bool, scratch string) (*detailFile, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	detail := filepath.Join(scratch, fmt.Sprintf("%s-%s-%d.json", workload, t, time.Now().UnixNano()))
	args := []string{"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", t, "-detail", detail}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	data, readErr := os.ReadFile(detail)
	_ = os.Remove(detail)
	if readErr != nil {
		return nil, fmt.Errorf("%s (trace %s): %v\n%s", workload, t, runErr, stderr.String())
	}
	var d detailFile
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s (trace %s): detail file: %w", workload, t, err)
	}
	return &d, nil
}

// runAll runs every workload — end to end (repeat times, pooled) and traced
// — each in its own child process, prints every metric, and writes the
// results file. It reports whether every run was correct.
func runAll(w io.Writer, seed int64, seconds float64, repeat int, smoke bool, outPath string) (bool, error) {
	scratch, cleanup, err := runScratch()
	if err != nil {
		return false, err
	}
	defer cleanup()
	if repeat < 1 {
		repeat = 1
	}
	rf := resultsFile{Header: newHeader(seed, seconds, repeat), Workloads: map[string]workloadReport{}}
	rf.Header.print(w)
	allCorrect := true
	for _, wl := range workloads {
		rep := workloadReport{Correct: true, EndToEnd: map[string]metricReport{}, PerLayer: map[string]metricReport{}}
		runs, windows := map[string][]float64{}, map[string][]float64{}
		for r := 0; r < repeat; r++ {
			d, err := runChild(wl.Name, seed, seconds, false, smoke, scratch)
			if err != nil {
				return false, err
			}
			rep.Correct = rep.Correct && d.Result.Correct
			rep.Attempted += d.Result.Attempted
			rep.Failed += d.Result.Failed
			rep.Notes = append(rep.Notes, d.Notes...)
			for name, mv := range d.Result.Metrics {
				runs[name] = append(runs[name], mv.Value)
			}
			for name, vals := range d.Windows {
				windows[name] = append(windows[name], vals...)
			}
		}
		for _, def := range endToEnd {
			s := summarize(runs[def.Name])
			rep.EndToEnd[def.Name] = metricReport{Unit: def.Unit, Median: s.Median, Min: s.Min, Max: s.Max,
				Runs: runs[def.Name], Windows: windows[def.Name]}
		}
		d, err := runChild(wl.Name, seed, seconds, true, smoke, scratch)
		if err != nil {
			return false, err
		}
		rep.Correct = rep.Correct && d.Result.Correct
		rep.Attempted += d.Result.Attempted
		rep.Failed += d.Result.Failed
		rep.Notes = append(rep.Notes, d.Notes...)
		for _, def := range perLayer {
			v := d.Result.Metrics[def.Name].Value
			rep.PerLayer[def.Name] = metricReport{Unit: def.Unit, Median: v, Min: v, Max: v}
		}
		rf.Workloads[wl.Name] = rep
		allCorrect = allCorrect && rep.Correct
		printWorkload(w, wl.Name, rep)
	}
	printTaxTable(w, rf)
	if outPath != "" {
		data, err := json.MarshalIndent(rf, "", " ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	return allCorrect, nil
}

func printWorkload(w io.Writer, name string, rep workloadReport) {
	fmt.Fprintf(w, "\n== %s: correct=%v attempted=%d failed=%d\n", name, rep.Correct, rep.Attempted, rep.Failed)
	for _, def := range endToEnd {
		m := rep.EndToEnd[def.Name]
		if ws := summarize(m.Windows); ws.N > 1 {
			fmt.Fprintf(w, "%-14s %-38s %14.6g %-6s windows [%.6g .. %.6g] n=%d\n", name, def.Name, m.Median, m.Unit, ws.Min, ws.Max, ws.N)
		} else {
			fmt.Fprintf(w, "%-14s %-38s %14.6g %s\n", name, def.Name, m.Median, m.Unit)
		}
	}
	for _, def := range perLayer {
		m := rep.PerLayer[def.Name]
		fmt.Fprintf(w, "%-14s %-38s %14.6g %s\n", name, def.Name, m.Median, m.Unit)
	}
	for _, n := range rep.Notes {
		fmt.Fprintf(w, "%-14s note: %s\n", name, n)
	}
}

// taxRow is one line of the per-layer tax table.
type taxRow struct {
	layer, metric string
	us            float64
}

// taxTable derives, from one workload's traced run, the chain kernel -> env
// -> engine -> service -> journal -> HTTP (-> cluster) -> client contention.
// Every row is measured on its own: the layer rows are differences between
// adjacent ladder depths (one client), the last row is the deepest depth
// replayed at the workload's client count minus the same depth with one
// client. Their sum is bench.ladder_p50_us, which bench.tax_explained_pct
// holds against the workload's own recover_p50_us.
func taxTable(perLayer map[string]metricReport, withCluster bool) []taxRow {
	pl := func(name string) float64 { return perLayer[name].Median }
	rows := []taxRow{
		{"predict", "predict.kernel_ns", pl("predict.kernel_ns") / 1e3},
		{"predict", "predict.env_new_ns", pl("predict.env_new_ns") / 1e3},
		{"core", "core.recover_self_ns", pl("core.recover_self_ns") / 1e3},
		{"service", "service.self_us", pl("service.self_us")},
		{"journal", "service.journal_tax_us", pl("service.journal_tax_us")},
		{"httpapi", "httpapi.self_us", pl("httpapi.self_us")},
	}
	depth := pl("httpapi.recover_us")
	if withCluster {
		rows = append(rows, taxRow{"cluster", "cluster.repl_tax_us", pl("cluster.repl_tax_us")})
		depth = pl("cluster.recover_us")
	}
	return append(rows, taxRow{"(clients)", "bench.ladder_p50_us - depth", pl("bench.ladder_p50_us") - depth})
}

func printTaxTable(w io.Writer, rf resultsFile) {
	for _, name := range []string{"http_single", "cluster_pair"} {
		rep, ok := rf.Workloads[name]
		if !ok {
			continue
		}
		// The traced run's own p50 is what its ladder is held against.
		p50 := rep.PerLayer["bench.workload_p50_us"].Median
		fmt.Fprintf(w, "\n== per-layer tax, %s (one traced run; its recover_p50_us = %.4g us)\n", name, p50)
		fmt.Fprintf(w, "%-10s %-28s %12s %9s\n", "layer", "self time", "us", "of p50")
		sum := 0.0
		for _, r := range taxTable(rep.PerLayer, name == "cluster_pair") {
			sum += r.us
			fmt.Fprintf(w, "%-10s %-28s %12.3f %8.1f%%\n", r.layer, r.metric, r.us, 100*r.us/p50)
		}
		fmt.Fprintf(w, "%-10s %-28s %12.3f %8.1f%%\n", "", "explained", sum, 100*sum/p50)
	}
}

// runSpread is the steadiness check the benchmark contract describes: run
// every workload n times, each with another seed, and print for each
// end-to-end metric the distance between the first and third quartile of its
// n values as a share of their median, next to the metric's bound.
func runSpread(w io.Writer, seed int64, seconds float64, n int) error {
	scratch, cleanup, err := runScratch()
	if err != nil {
		return err
	}
	defer cleanup()
	newHeader(seed, seconds, n).print(w)
	fmt.Fprintf(w, "%-14s %-22s %12s %9s %7s %s\n", "workload", "metric", "median", "spread", "bound", "verdict")
	for _, wl := range workloads {
		vals := map[string][]float64{}
		for k := 0; k < n; k++ {
			d, err := runChild(wl.Name, seed+int64(k), seconds, false, false, scratch)
			if err != nil {
				return err
			}
			for name, mv := range d.Result.Metrics {
				vals[name] = append(vals[name], mv.Value)
			}
		}
		for _, def := range endToEnd {
			sp := quartileSpread(vals[def.Name])
			verdict := "steady"
			switch {
			case def.Name == "setup_s":
				verdict = "exempt"
			case sp > def.Bound:
				verdict = "TOO NOISY"
			case sp > def.Bound/3:
				verdict = "within bound, above a third of it"
			}
			fmt.Fprintf(w, "%-14s %-22s %12.6g %8.2f%% %6.1f%% %s\n", wl.Name, def.Name, median(vals[def.Name]), 100*sp, 100*def.Bound, verdict)
		}
	}
	return nil
}
