// Command duegen generates and inspects the synthetic SDRBench stand-in
// datasets: it prints the paper's Table 2 (applications, dimensions,
// dataset counts), per-dataset statistics including the smoothness score
// the paper's conclusions reference, and can dump a dataset to a raw
// little-endian float32 file (the format SDRBench itself uses).
//
// Usage:
//
//	duegen -table2
//	duegen -list [-scale small] [-app CESM]
//	duegen -dump ISABEL/CLOUDf48 -o cloud.f32 [-scale medium]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"spatialdue/internal/report"
	"spatialdue/internal/sdrbench"
)

func main() {
	var (
		table2    = flag.Bool("table2", false, "print Table 2 (paper dims and dataset counts)")
		list      = flag.Bool("list", false, "list datasets with measured statistics")
		appFlag   = flag.String("app", "", "restrict -list to one application (NYX, CESM, Miranda, HACC, ISABEL)")
		dump      = flag.String("dump", "", "dataset to dump, as APP/NAME (e.g. ISABEL/CLOUDf48)")
		export    = flag.String("export", "", "export ALL 111 datasets + manifest.json into this directory (usable with duecampaign -data)")
		out       = flag.String("o", "", "output file for -dump (raw little-endian float32)")
		scaleFlag = flag.String("scale", "small", "dataset scale: tiny, small, medium")
	)
	flag.Parse()

	scale, err := sdrbench.ParseScale(*scaleFlag)
	if err != nil {
		fatalf("%v", err)
	}

	switch {
	case *table2:
		printTable2()
	case *list:
		printList(scale, *appFlag)
	case *dump != "":
		dumpDataset(*dump, *out, scale)
	case *export != "":
		exportAll(*export, scale)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func printTable2() {
	fmt.Println("Table 2: applications we extract data sets from (paper dimensions)")
	rows := make([][]string, 0, sdrbench.NumApps)
	total := 0
	for _, app := range sdrbench.Apps() {
		dims := sdrbench.PaperDims(app)
		parts := make([]string, len(dims))
		for i, d := range dims {
			parts[i] = fmt.Sprint(d)
		}
		n := sdrbench.DatasetCount(app)
		total += n
		rows = append(rows, []string{app.String(), sdrbench.Domain(app), strings.Join(parts, " x "), fmt.Sprint(n)})
	}
	rows = append(rows, []string{"total", "", "", fmt.Sprint(total)})
	report.Table(os.Stdout, []string{"Name", "Domain", "Data Dimensions", "Data Set Count"}, rows)
}

func printList(scale sdrbench.Scale, appFilter string) {
	var rows [][]string
	for _, app := range sdrbench.Apps() {
		if appFilter != "" && !strings.EqualFold(app.String(), appFilter) {
			continue
		}
		for _, name := range sdrbench.Names(app) {
			ds := sdrbench.Generate(app, name, scale)
			min, max := ds.Array.MinMax()
			zeros := 0
			for _, v := range ds.Array.Data() {
				if v == 0 {
					zeros++
				}
			}
			rows = append(rows, []string{
				app.String(), name, ds.Array.String(),
				fmt.Sprintf("%.3g", min), fmt.Sprintf("%.3g", max),
				fmt.Sprintf("%.1f", ds.Smoothness()),
				fmt.Sprintf("%.1f%%", 100*float64(zeros)/float64(ds.Array.Len())),
			})
		}
	}
	report.Table(os.Stdout,
		[]string{"App", "Dataset", "Shape", "Min", "Max", "Smoothness", "Zeros"}, rows)
}

func dumpDataset(spec, out string, scale sdrbench.Scale) {
	parts := strings.SplitN(spec, "/", 2)
	if len(parts) != 2 {
		fatalf("-dump wants APP/NAME, got %q", spec)
	}
	app, err := sdrbench.ParseApp(parts[0])
	if err != nil {
		fatalf("%v", err)
	}
	if out == "" {
		out = parts[1] + ".f32"
	}
	ds := sdrbench.Generate(app, parts[1], scale)
	if err := sdrbench.WriteRaw(ds, out); err != nil {
		fatalf("write: %v", err)
	}
	fmt.Printf("wrote %s: %s, %d float32 values\n", out, ds.Array, ds.Array.Len())
}

// exportAll writes every synthetic dataset as a raw little-endian float32
// file plus a manifest.json, producing a directory interchangeable with a
// real SDRBench download for `duecampaign -data`.
func exportAll(dir string, scale sdrbench.Scale) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("export: %v", err)
	}
	var m sdrbench.Manifest
	for _, app := range sdrbench.Apps() {
		for _, name := range sdrbench.Names(app) {
			ds := sdrbench.Generate(app, name, scale)
			file := fmt.Sprintf("%s_%s.f32", app, name)
			if err := sdrbench.WriteRaw(ds, filepath.Join(dir, file)); err != nil {
				fatalf("export %s/%s: %v", app, name, err)
			}
			m.Datasets = append(m.Datasets, sdrbench.ManifestEntry{
				App: app.String(), Name: name, File: file,
				Dims: ds.Array.Dims(), DType: "float32",
			})
		}
	}
	blob, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		fatalf("export manifest: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), blob, 0o644); err != nil {
		fatalf("export manifest: %v", err)
	}
	fmt.Printf("exported %d datasets + manifest.json to %s\n", len(m.Datasets), dir)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "duegen: "+format+"\n", args...)
	os.Exit(1)
}
