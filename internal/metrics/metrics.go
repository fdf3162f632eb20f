// Package metrics owns the Prometheus text exposition format (version
// 0.0.4): the one writer every /metrics page goes through, and the one
// parser that reads a page back.
//
// It registers nothing and keeps no state between scrapes. Each layer reads
// its own counters at scrape time and hands the values to a Writer, so the
// recovery path pays nothing for being observable.
package metrics

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Handler serves the page write produces, with the format's content type.
func Handler(write func(io.Writer) error) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = write(w) // a failed write means the scraper went away
	})
}

// Type is a metric family's TYPE.
type Type string

// The family types in use.
const (
	Counter   Type = "counter"
	Gauge     Type = "gauge"
	Histogram Type = "histogram"
)

// Writer writes one page, a line at a time. It keeps the first write error
// and writes nothing after it. A Writer is also an io.Writer, so a layer can
// hand it to another layer's WriteMetrics and keep one error for the page.
//
// A sample value is an int, int64 or uint64 (written as %d, so a counter
// past 10⁶ never turns into 1e+06), a float64 (%g) or a bool (1 or 0). Any
// other type is a programming error and panics.
type Writer struct {
	out    io.Writer
	family string
	err    error
}

// NewWriter returns a Writer that writes to out.
func NewWriter(out io.Writer) *Writer { return &Writer{out: out} }

// Err returns the first error the underlying writer returned, or nil.
func (w *Writer) Err() error { return w.err }

// Family starts a family with its HELP and TYPE lines; the samples written
// next belong to it. help must be one line.
func (w *Writer) Family(name, help string, typ Type) {
	w.family = name
	w.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Counter writes an unlabelled counter family and its one sample.
func (w *Writer) Counter(name, help string, v any) {
	w.Family(name, help, Counter)
	w.Sample(v)
}

// Gauge writes an unlabelled gauge family and its one sample.
func (w *Writer) Gauge(name, help string, v any) {
	w.Family(name, help, Gauge)
	w.Sample(v)
}

// Sample writes one sample of the current family. labelPairs alternate
// label names and values.
func (w *Writer) Sample(v any, labelPairs ...string) { w.series("", v, labelPairs) }

// Histogram writes one series of the current histogram family: a _bucket
// sample per upper bound with its cumulative count, the +Inf bucket (count),
// then _sum and _count. le follows labelPairs.
func (w *Writer) Histogram(bounds []float64, cumulative []uint64, sum any, count uint64, labelPairs ...string) {
	le := append(labelPairs[:len(labelPairs):len(labelPairs)], "le", "")
	for i, b := range bounds {
		le[len(le)-1] = strconv.FormatFloat(b, 'g', -1, 64)
		w.series("_bucket", cumulative[i], le)
	}
	le[len(le)-1] = "+Inf"
	w.series("_bucket", count, le)
	w.series("_sum", sum, labelPairs)
	w.series("_count", count, labelPairs)
}

// labelEscaper applies the format's only three escapes. For names made of
// letters, digits and ._-/ it writes the bytes %q would.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func (w *Writer) series(suffix string, v any, labelPairs []string) {
	labels := ""
	for i := 0; i+1 < len(labelPairs); i += 2 {
		labels += `,` + labelPairs[i] + `="` + labelEscaper.Replace(labelPairs[i+1]) + `"`
	}
	if labels != "" {
		labels = "{" + labels[1:] + "}"
	}
	switch x := v.(type) {
	case int, int64, uint64:
		w.printf("%s%s%s %d\n", w.family, suffix, labels, x)
	case float64:
		w.printf("%s%s%s %g\n", w.family, suffix, labels, x)
	case bool:
		n := 0
		if x {
			n = 1
		}
		w.series(suffix, n, labelPairs)
	default:
		panic(fmt.Sprintf("metrics: %s: unsupported sample value type %T", w.family, v))
	}
}

// Write passes p on unless an earlier write failed.
func (w *Writer) Write(p []byte) (n int, err error) {
	if w.err == nil {
		n, w.err = w.out.Write(p)
	}
	return n, w.err
}

func (w *Writer) printf(format string, args ...any) { _, _ = fmt.Fprintf(w, format, args...) }

// Parse reads a page into a map from series to value. A series is the
// metric name and its label set exactly as written, as in
// `spatialdue_stage_duration_seconds_count{stage="queue_wait"}`. Comments and
// blank lines are skipped. Any other line must be `name{label="value",...}
// value`, with only the \\, \" and \n escapes in label values.
func Parse(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		// Without a space, i is -1 and the empty series fails split.
		i := strings.LastIndexByte(line, ' ')
		_, _, err := split(line[:max(i, 0)])
		v, perr := strconv.ParseFloat(line[i+1:], 64)
		if err = cmp.Or(err, perr); err != nil {
			return nil, fmt.Errorf("metrics: line %d: %w", n, err)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return out, nil
}

// labelPair matches one label="value" pair; a value escapes only \\, \" and \n.
const labelPair = `([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\[\\"n])*)"`

var (
	seriesRE       = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{(` + labelPair + `,?)*\})?$`)
	labelRE        = regexp.MustCompile(labelPair)
	labelUnescaper = strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n")
)

// split returns a series' metric name and its label names and unescaped
// values, alternating.
func split(series string) (name string, pairs []string, err error) {
	if !seriesRE.MatchString(series) {
		return "", nil, fmt.Errorf("malformed series %q", series)
	}
	name, labels, _ := strings.Cut(series, "{")
	for _, m := range labelRE.FindAllStringSubmatch(labels, -1) {
		pairs = append(pairs, m[1], labelUnescaper.Replace(m[2]))
	}
	return name, pairs, nil
}

// LabelValues returns the distinct values label takes across the series of
// metric name in samples, sorted.
func LabelValues(samples map[string]float64, name, label string) []string {
	var out []string
	for series := range samples {
		if n, pairs, _ := split(series); n == name {
			for i := 0; i < len(pairs); i += 2 {
				if pairs[i] == label {
					out = append(out, pairs[i+1])
				}
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Bucket is one cumulative histogram bucket: Count observations were at most
// Le.
type Bucket struct{ Le, Count float64 }

// Buckets returns the buckets of histogram name's series labelled exactly
// labelPairs, followed by le, in ascending order of bound.
func Buckets(samples map[string]float64, name string, labelPairs ...string) []Bucket {
	var out []Bucket
	for series, v := range samples {
		n, pairs, _ := split(series)
		if n != name+"_bucket" || len(pairs) != len(labelPairs)+2 || pairs[len(labelPairs)] != "le" ||
			!slices.Equal(pairs[:len(labelPairs)], labelPairs) {
			continue
		}
		if le, err := strconv.ParseFloat(pairs[len(pairs)-1], 64); err == nil {
			out = append(out, Bucket{le, v})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Le < out[j].Le })
	return out
}

// HistogramQuantile estimates the q-quantile from cumulative buckets
// (ascending, the last one +Inf) the way Prometheus's histogram_quantile
// does: linearly inside the bucket where the count crosses q times the
// total, with the lowest bucket starting at 0. A quantile in the +Inf bucket
// is the highest finite bound; an empty histogram gives 0.
func HistogramQuantile(q float64, buckets []Bucket) float64 {
	if len(buckets) == 0 || buckets[len(buckets)-1].Count == 0 {
		return 0
	}
	target := q * buckets[len(buckets)-1].Count
	lo, cLo := 0.0, 0.0
	for _, b := range buckets {
		if b.Count >= target {
			if in := b.Count - cLo; in > 0 && !math.IsInf(b.Le, 1) {
				return lo + (b.Le-lo)*(target-cLo)/in
			}
			return lo
		}
		lo, cLo = b.Le, b.Count
	}
	return lo
}
