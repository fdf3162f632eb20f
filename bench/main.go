// Command bench is the repository's benchmark: the layered recovery ledger.
//
//	go run ./bench --workload http_single --seed 1 --seconds 10 --trace 0
//	go run ./bench -seed 1 -out results.json       # every workload, both runs
//	go run ./bench -compare A.json B.json          # regression verdicts
//	go run ./bench -spread 10                      # run-to-run spread table
//
// One invocation with --workload runs that workload in this process and
// prints, as the last line of standard output, one JSON object with the
// keys correct, attempted, failed and metrics. Without --workload every
// workload runs in a fresh child process of this same command. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// scratchRoot is where journals, mmap fields, cluster data and checkpoint
// files go: inside the checkout the command runs from, never in /tmp, and
// removed when the run ends.
const scratchRoot = ".bench_tmp"

func main() {
	var (
		workload = flag.String("workload", "", "run one workload in this process (default: all, one child process each)")
		seed     = flag.Int64("seed", 1, "seed of the event plan: sites, bits, batches, generated fields")
		seconds  = flag.Float64("seconds", runSeconds, "length of the timed phase (5 windows of seconds/5)")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
		out      = flag.String("out", "", "all-workloads mode: write the results file here")
		detail   = flag.String("detail", "", "single-workload mode: also write per-window samples here")
		traceOut = flag.String("trace-out", "", "traced run: write the recorded spans here at exit")
		compare  = flag.Bool("compare", false, "compare two results files given as arguments; exit 1 on any regression")
		spread   = flag.Int("spread", 0, "run every workload N times with seeds seed..seed+N-1 and print each metric's quartile spread")
		repeat   = flag.Int("repeat", 1, "all-workloads mode: runs per workload pooled into the results file")
		smoke    = flag.Bool("smoke", false, "tiny plans, for the smoke test")
		manif    = flag.Bool("manifest", false, "print BENCHMARK.json as the catalogue defines it")
		tables   = flag.Bool("tables", false, "print the README's workload and metric tables as the catalogue defines them")
	)
	flag.Parse()
	if err := validateCatalogue(workloads, endToEnd, perLayer); err != nil {
		fatal(fmt.Errorf("catalogue: %w", err))
	}

	switch {
	case *manif:
		doc, err := manifest()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(doc)
	case *tables:
		t := markdownTables()
		for _, k := range []string{"WORKLOADS", "E2E", "LAYERS"} {
			fmt.Printf("@@%s@@\n%s", k, t[k])
		}
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two results files"))
		}
		regressions, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressions > 0 {
			os.Exit(1)
		}
	case *workload != "":
		w, ok := findWorkload(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		os.Exit(runOne(w, *seed, *seconds, *trace == 1, *smoke, *detail, *traceOut))
	case *spread > 0:
		if err := runSpread(os.Stdout, *seed, *seconds, *spread); err != nil {
			fatal(err)
		}
	default:
		ok, err := runAll(os.Stdout, *seed, *seconds, *repeat, *smoke, *out)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runOne executes one workload in this process and prints its result line.
// It returns the process exit code.
func runOne(w workloadDef, seed int64, seconds float64, traced, smoke bool, detailPath, traceOut string) int {
	scratch, cleanup, err := runScratch()
	if err != nil {
		fatal(err)
	}
	ctx := &runCtx{seed: seed, seconds: seconds, clients: numClients(), scratch: scratch, smoke: smoke}

	var res *runResult
	if traced {
		ctx.spans = newSpanLog()
		res, err = runTraced(w, ctx)
		if traceOut != "" && err == nil {
			if werr := ctx.spans.writeFile(traceOut); werr != nil {
				err = werr
			}
		}
	} else {
		res, err = runEndToEnd(w, ctx)
	}
	cleanup()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
		if res != nil {
			for _, n := range res.Notes {
				fmt.Fprintln(os.Stderr, "  "+n)
			}
		}
		return 2
	}

	printMetrics(os.Stdout, w.Name, res)
	if detailPath != "" {
		if err := writeDetail(detailPath, w.Name, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// printMetrics lists every metric by name with its unit, and for windowed
// metrics the min-max and sample count behind the median.
func printMetrics(f *os.File, workload string, res *runResult) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		mv := res.Metrics[n]
		if s := summarize(res.Windows[n]); s.N > 1 {
			fmt.Fprintf(f, "%-14s %-38s %14.6g %-6s [%.6g .. %.6g] n=%d\n", workload, n, mv.Value, mv.Unit, s.Min, s.Max, s.N)
		} else {
			fmt.Fprintf(f, "%-14s %-38s %14.6g %s\n", workload, n, mv.Value, mv.Unit)
		}
	}
	for _, note := range res.Notes {
		fmt.Fprintf(f, "%-14s note: %s\n", workload, note)
	}
}

// detailFile is what -detail writes: the result line plus the per-window
// samples behind it.
type detailFile struct {
	Workload string               `json:"workload"`
	Result   *runResult           `json:"result"`
	Windows  map[string][]float64 `json:"windows"`
	Notes    []string             `json:"notes,omitempty"`
}

func writeDetail(path, workload string, res *runResult) error {
	data, err := json.Marshal(detailFile{Workload: workload, Result: res, Windows: res.Windows, Notes: res.Notes})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
