package sdrbench

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/ndarray"
)

func TestLoadRawRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, dtype := range []bitflip.DType{bitflip.Float32, bitflip.Float64} {
		orig := Generate(Miranda, "density", ScaleTiny)
		orig.DType = dtype
		path := filepath.Join(dir, "density.bin")
		if err := WriteRaw(orig, path); err != nil {
			t.Fatal(err)
		}
		got, err := LoadRaw(Miranda, "density", path, dtype, orig.Array.Dims()...)
		if err != nil {
			t.Fatal(err)
		}
		if got.App != Miranda || got.Name != "density" || got.DType != dtype {
			t.Errorf("metadata = %+v", got)
		}
		// Generated data is float32-representable, so both dtypes
		// round-trip exactly.
		if !ndarray.ApproxEqual(got.Array, orig.Array, 0) {
			t.Errorf("%v round trip lost data", dtype)
		}
	}
}

func TestLoadRawSizeMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "short.bin")
	if err := os.WriteFile(path, make([]byte, 10), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRaw(HACC, "xx", path, bitflip.Float32, 100); err == nil {
		t.Error("size mismatch accepted")
	}
	if _, err := LoadRaw(HACC, "xx", filepath.Join(dir, "missing.bin"), bitflip.Float32, 100); err == nil {
		t.Error("missing file accepted")
	}
	if _, err := LoadRaw(HACC, "xx", path, bitflip.Float32, 0); err == nil {
		t.Error("bad dims accepted")
	}
}

// TestLoadDir loads a raw-dump directory the way campaign -data does,
// LoadManifest then LoadEntry per dataset, and checks both dtypes bit for
// bit against what WriteRaw dumped.
func TestLoadDir(t *testing.T) {
	dir := t.TempDir()
	f32 := Generate(Isabel, "Pf48", ScaleTiny)
	f64 := Generate(HACC, "xx", ScaleTiny)
	f64.DType = bitflip.Float64
	for i, v := range f64.Array.Data() {
		// Values no float32 can hold, so a float32 detour would show.
		f64.Array.Data()[i] = v + math.Pi*1e-9*float64(i)
	}
	if err := WriteRaw(f32, filepath.Join(dir, "Pf48.f32")); err != nil {
		t.Fatal(err)
	}
	if err := WriteRaw(f64, filepath.Join(dir, "xx.f64")); err != nil {
		t.Fatal(err)
	}
	manifest := `{"datasets":[
		{"app":"isabel","name":"Pf48","file":"Pf48.f32","dims":[10,25,25]},
		{"app":"HACC","name":"xx","file":"xx.f64","dims":[4096],"dtype":"float64"}
	]}`
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := LoadManifest(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Datasets) != 2 {
		t.Fatalf("manifest lists %d datasets, want 2", len(m.Datasets))
	}
	for i, want := range []*Dataset{f32, f64} {
		got, err := LoadEntry(dir, m.Datasets[i])
		if err != nil {
			t.Fatal(err)
		}
		if got.App != want.App || got.Name != want.Name || got.DType != want.DType {
			t.Errorf("entry %d = %v %v, want %v %v", i, got, got.DType, want, want.DType)
		}
		if !slices.Equal(got.Array.Dims(), want.Array.Dims()) {
			t.Errorf("entry %d dims %v, want %v", i, got.Array.Dims(), want.Array.Dims())
		}
		for k, v := range want.Array.Data() {
			if g := got.Array.Data()[k]; math.Float64bits(g) != math.Float64bits(v) {
				t.Fatalf("entry %d element %d = %v, want %v bit for bit", i, k, g, v)
			}
		}
	}
}

func TestLoadManifestValidation(t *testing.T) {
	dir := t.TempDir()
	write := func(body string) string {
		p := filepath.Join(dir, "manifest.json")
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		body, wantErr string
	}{
		{`{`, "parsing"},
		{`{"datasets":[]}`, "no datasets"},
		{`{"datasets":[{"app":"NYX","file":"x","dims":[2]}]}`, "incomplete"},
		{`{"datasets":[{"app":"WRF","name":"n","file":"x","dims":[2]}]}`, "unknown application"},
		{`{"datasets":[{"app":"NYX","name":"n","file":"x","dims":[2],"dtype":"int8"}]}`, "bad dtype"},
	}
	for _, c := range cases {
		p := write(c.body)
		_, err := LoadManifest(p)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("manifest %q: error = %v, want containing %q", c.body, err, c.wantErr)
		}
	}
	if _, err := LoadManifest(filepath.Join(dir, "nope.json")); err == nil {
		t.Error("missing manifest accepted")
	}
}

func TestParseApp(t *testing.T) {
	app := func(s string) (int, error) { a, err := ParseApp(s); return int(a), err }
	scale := func(s string) (int, error) { sc, err := ParseScale(s); return int(sc), err }
	for _, c := range []struct {
		parse func(string) (int, error)
		in    string
		want  int // -1: the name is rejected
	}{
		{app, "nyx", int(Nyx)},
		{app, "NYX", int(Nyx)},
		{app, "Nyx", int(Nyx)},
		{app, "isabel", int(Isabel)},
		{app, "hurricane", -1},
		{app, "", -1},
		{scale, "tiny", int(ScaleTiny)},
		{scale, "small", int(ScaleSmall)},
		{scale, "medium", int(ScaleMedium)},
		{scale, "large", -1},
		{scale, "Tiny", -1},
		{scale, "", -1},
	} {
		got, err := c.parse(c.in)
		if c.want < 0 {
			if err == nil {
				t.Errorf("%q accepted as %d", c.in, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("%q = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
}
