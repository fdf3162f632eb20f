package metrics

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// writePage writes one family of each shape the repository exports.
func writePage(w *Writer) {
	w.Counter("c_total", "A counter.", uint64(1_234_567))
	w.Gauge("g", "A gauge.", 0.5)
	w.Gauge("up", "A flag.", true)
	w.Family("l_total", "Labelled.", Counter)
	w.Sample(int64(3), "stage", "queue_wait")
	w.Sample(-2, "alloc", "t/a", "state", "open")
	w.Family("h_seconds", "A histogram.", Histogram)
	w.Histogram([]float64{1e-6, 0.25, 10}, []uint64{1, 3, 3}, 2.5, 4, "stage", "tune")
	w.Family("n", "Unlabelled histogram.", Histogram)
	w.Histogram([]float64{1, 32}, []uint64{0, 2}, int64(40), 2)
}

const wantPage = `# HELP c_total A counter.
# TYPE c_total counter
c_total 1234567
# HELP g A gauge.
# TYPE g gauge
g 0.5
# HELP up A flag.
# TYPE up gauge
up 1
# HELP l_total Labelled.
# TYPE l_total counter
l_total{stage="queue_wait"} 3
l_total{alloc="t/a",state="open"} -2
# HELP h_seconds A histogram.
# TYPE h_seconds histogram
h_seconds_bucket{stage="tune",le="1e-06"} 1
h_seconds_bucket{stage="tune",le="0.25"} 3
h_seconds_bucket{stage="tune",le="10"} 3
h_seconds_bucket{stage="tune",le="+Inf"} 4
h_seconds_sum{stage="tune"} 2.5
h_seconds_count{stage="tune"} 4
# HELP n Unlabelled histogram.
# TYPE n histogram
n_bucket{le="1"} 0
n_bucket{le="32"} 2
n_bucket{le="+Inf"} 2
n_sum 40
n_count 2
`

func TestWriterPage(t *testing.T) {
	var b bytes.Buffer
	w := NewWriter(&b)
	writePage(w)
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
	if b.String() != wantPage {
		t.Fatalf("page:\n%s\nwant:\n%s", b.String(), wantPage)
	}
}

// TestWriterMatchesFmt pins the byte-identity the writers it replaced had:
// integers as %d, floats as %g, and label values as %q for every name the
// HTTP layer admits.
func TestWriterMatchesFmt(t *testing.T) {
	line := func(v any, labelPairs ...string) string {
		var b bytes.Buffer
		w := NewWriter(&b)
		w.family = "m"
		w.Sample(v, labelPairs...)
		return b.String()
	}
	for _, v := range []float64{0, math.Copysign(0, -1), 1, 1e6, 123456, 1234567, 0.1, 1e-7, 599.291100645144,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()} {
		if got, want := line(v), fmt.Sprintf("m %g\n", v); got != want {
			t.Errorf("float %v: %q, want %q", v, got, want)
		}
	}
	for _, v := range []int64{0, -1, 1_000_000, math.MaxInt64, math.MinInt64} {
		if got, want := line(v), fmt.Sprintf("m %d\n", v); got != want {
			t.Errorf("int64 %v: %q, want %q", v, got, want)
		}
	}
	if got, want := line(uint64(math.MaxUint64)), fmt.Sprintf("m %d\n", uint64(math.MaxUint64)); got != want {
		t.Errorf("uint64: %q, want %q", got, want)
	}
	for _, name := range []string{"field", "golden/field.v2", "A-Z_a-z.0-9", "predict/primary"} {
		if got, want := line(1, "alloc", name), fmt.Sprintf("m{alloc=%q} 1\n", name); got != want {
			t.Errorf("label %q: %q, want %q", name, got, want)
		}
	}
	// The exposition format has three escapes; %q's \t and \x01 are not
	// among them.
	if got, want := line(1, "alloc", "t\tab\x01\"q\\\n"), "m{alloc=\"t\tab\x01\\\"q\\\\\\n\"} 1\n"; got != want {
		t.Errorf("escaped label: %q, want %q", got, want)
	}
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct{ n int }

var errSink = errors.New("sink full")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		k := f.n
		f.n = 0
		return k, errSink
	}
	f.n -= len(p)
	return len(p), nil
}

func TestWriterErrSticks(t *testing.T) {
	var full bytes.Buffer
	writePage(NewWriter(&full))
	for n := 0; n < full.Len(); n++ {
		w := NewWriter(&failAfter{n: n})
		writePage(w)
		if !errors.Is(w.Err(), errSink) {
			t.Fatalf("sink failing after %d of %d bytes: Err() = %v", n, full.Len(), w.Err())
		}
	}
	// Nothing is written after the first error, even if the sink recovers.
	sink := &failAfter{}
	w := NewWriter(sink)
	w.Counter("a", "A.", 1)
	sink.n = 1 << 20
	w.Counter("b", "B.", 1)
	if sink.n != 1<<20 || !errors.Is(w.Err(), errSink) {
		t.Fatalf("wrote %d bytes after the first error; Err() = %v", 1<<20-sink.n, w.Err())
	}
}

func TestWriterPanicsOnUnsupportedValue(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for an int32 sample")
		}
	}()
	NewWriter(&bytes.Buffer{}).Counter("a", "A.", int32(1))
}

func TestParse(t *testing.T) {
	got, err := Parse(strings.NewReader(wantPage + "\r\n# a comment\n\nx:y 7\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"c_total":                           1234567,
		"g":                                 0.5,
		"up":                                1,
		`l_total{stage="queue_wait"}`:       3,
		`l_total{alloc="t/a",state="open"}`: -2,
		`h_seconds_bucket{stage="tune",le="1e-06"}`: 1,
		`h_seconds_bucket{stage="tune",le="0.25"}`:  3,
		`h_seconds_bucket{stage="tune",le="10"}`:    3,
		`h_seconds_bucket{stage="tune",le="+Inf"}`:  4,
		`h_seconds_sum{stage="tune"}`:               2.5,
		`h_seconds_count{stage="tune"}`:             4,
		`n_bucket{le="1"}`:                          0,
		`n_bucket{le="32"}`:                         2,
		`n_bucket{le="+Inf"}`:                       2,
		"n_sum":                                     40,
		"n_count":                                   2,
		"x:y":                                       7,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Parse = %v\nwant %v", got, want)
	}
}

func TestParseRejects(t *testing.T) {
	for _, line := range []string{
		"m",              // no value
		"m  1",           // two spaces
		"m 1 1700000000", // timestamp
		"m x",            // not a number
		"1m 1",           // name starts with a digit
		" m 1",           // leading space
		`m{a="b" 1`,      // unterminated label set
		`m{a="b} 1`,      // unterminated value
		`m{a=b} 1`,       // unquoted value
		`m{="b"} 1`,      // no label name
		`m{a:b="c"} 1`,   // colon in a label name
		`m{a="\t"} 1`,    // %q escape, not an exposition escape
		`m{a="\x01"} 1`,  // likewise
		`m{a="b\"} 1`,    // escaped closing quote
		"m{a=\"b\\",      // backslash at end of line
		`m{a="b\ 1`,      // backslash before the value
		`{a="b"} 1`,      // no name
		`m{a="b"}1`,      // no space
	} {
		if _, err := Parse(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("Parse(%q) succeeded", line)
		}
	}
}

func TestLabelValuesAndBuckets(t *testing.T) {
	var b bytes.Buffer
	w := NewWriter(&b)
	w.Family("h", "H.", Histogram)
	w.Histogram([]float64{1, 2}, []uint64{1, 2}, 2.0, 3, "stage", "b\"\n\\")
	w.Histogram([]float64{2, 1}, []uint64{5, 4}, 2.0, 6, "stage", "a")
	w.Histogram([]float64{1}, []uint64{9}, 2.0, 9, "stage", "a", "node", "x")
	w.Histogram([]float64{1}, []uint64{7}, 2.0, 7)
	samples, err := Parse(&b)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := LabelValues(samples, "h_count", "stage"), []string{"a", "b\"\n\\"}; !reflect.DeepEqual(got, want) {
		t.Errorf("LabelValues = %q, want %q", got, want)
	}
	if got := LabelValues(samples, "h_count", "missing"); got != nil {
		t.Errorf("LabelValues of a missing label = %q", got)
	}
	for _, c := range []struct {
		labels []string
		want   []Bucket
	}{
		{[]string{"stage", "a"}, []Bucket{{1, 4}, {2, 5}, {math.Inf(1), 6}}},
		{[]string{"stage", "b\"\n\\"}, []Bucket{{1, 1}, {2, 2}, {math.Inf(1), 3}}},
		{nil, []Bucket{{1, 7}, {math.Inf(1), 7}}},
		{[]string{"stage", "c"}, nil},
	} {
		if got := Buckets(samples, "h", c.labels...); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Buckets(%q) = %v, want %v", c.labels, got, c.want)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	inf := math.Inf(1)
	for _, c := range []struct {
		name    string
		q       float64
		buckets []Bucket
		want    float64
	}{
		{"empty", 0.5, nil, 0},
		{"no observations", 0.5, []Bucket{{1, 0}, {inf, 0}}, 0},
		{"interpolated in the first bucket", 0.5, []Bucket{{2, 4}, {4, 8}, {inf, 8}}, 2},
		{"interpolated in a middle bucket", 0.75, []Bucket{{2, 4}, {4, 8}, {inf, 8}}, 3},
		{"in the +Inf bucket", 0.99, []Bucket{{2, 4}, {4, 8}, {inf, 10}}, 4},
		{"single +Inf bucket", 0.5, []Bucket{{inf, 3}}, 0},
		{"single finite bucket", 0.5, []Bucket{{10, 4}}, 5},
		{"skips empty buckets", 0.5, []Bucket{{1, 0}, {2, 0}, {4, 2}, {inf, 2}}, 3},
		{"q of 0", 0, []Bucket{{1, 0}, {2, 3}, {inf, 3}}, 0},
		{"q of 1", 1, []Bucket{{1, 1}, {2, 3}, {inf, 3}}, 2},
	} {
		if got := HistogramQuantile(c.q, c.buckets); got != c.want {
			t.Errorf("%s: HistogramQuantile(%v) = %v, want %v", c.name, c.q, got, c.want)
		}
	}
}

// FuzzParse checks that Parse never panics on any body, and that on a page
// the Writer wrote it returns exactly the values written.
func FuzzParse(f *testing.F) {
	f.Add([]byte(wantPage), "golden/field", 0.5, uint64(1_234_567))
	f.Add([]byte(`m{a="\x01"} 1`), "t\tab\x01\"q", math.Inf(-1), uint64(0))
	f.Add([]byte("m{a=\"b\\"), "\\\n\"", 1e-300, uint64(math.MaxUint64))
	f.Fuzz(func(t *testing.T, body []byte, label string, v float64, n uint64) {
		if samples, err := Parse(bytes.NewReader(body)); err == nil {
			for key := range samples {
				if _, _, err := split(key); err != nil {
					t.Fatalf("Parse returned key %q that does not split: %v", key, err)
				}
			}
		}

		var b bytes.Buffer
		w := NewWriter(&b)
		w.Counter("fuzz_total", "F.", n)
		w.Family("fuzz", "F.", Gauge)
		w.Sample(v, "l", label)
		w.Family("fuzz_seconds", "F.", Histogram)
		w.Histogram([]float64{1}, []uint64{n}, v, n, "l", label)
		samples, err := Parse(&b)
		if err != nil {
			t.Fatalf("Parse of written page: %v\n%s", err, b.String())
		}
		same := func(got, want float64) bool { return got == want || math.IsNaN(got) && math.IsNaN(want) }
		if got := samples["fuzz_total"]; !same(got, float64(n)) {
			t.Fatalf("counter = %v, want %v", got, float64(n))
		}
		if got := LabelValues(samples, "fuzz", "l"); len(got) != 1 || got[0] != label {
			t.Fatalf("label values = %q, want [%q]", got, label)
		}
		for key, got := range samples {
			if name, _, _ := split(key); name == "fuzz" || name == "fuzz_seconds_sum" {
				if !same(got, v) {
					t.Fatalf("%s = %v, want %v", key, got, v)
				}
			}
		}
		bs := Buckets(samples, "fuzz_seconds", "l", label)
		if len(bs) != 2 || !same(bs[len(bs)-1].Count, float64(n)) {
			t.Fatalf("buckets = %v", bs)
		}
	})
}
