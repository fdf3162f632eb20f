package sdrbench

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/ndarray"
)

// This file loads *real* SDRBench data. The synthetic generators make the
// repository self-contained, but every campaign entry point also accepts a
// directory of raw SDRBench dumps (the benchmark distributes bare
// little-endian float32/float64 arrays), described by a manifest:
//
//	{
//	  "datasets": [
//	    {"app": "ISABEL", "name": "CLOUDf48", "file": "CLOUDf48.bin.f32",
//	     "dims": [100, 500, 500], "dtype": "float32"},
//	    ...
//	  ]
//	}
//
// Dims are row-major with the slowest dimension first, matching both
// SDRBench's file layout and this repository's arrays.

// ManifestEntry describes one raw data file.
type ManifestEntry struct {
	// App is the application name as in Table 2 (NYX, CESM, Miranda,
	// HACC, ISABEL) — case-insensitive.
	App string `json:"app"`
	// Name labels the dataset (typically the field/file name).
	Name string `json:"name"`
	// File is the data file path, relative to the manifest.
	File string `json:"file"`
	// Dims are the row-major dimensions (slowest first).
	Dims []int `json:"dims"`
	// DType is "float32" (default) or "float64".
	DType string `json:"dtype"`
}

// Manifest lists the datasets of a raw SDRBench directory.
type Manifest struct {
	Datasets []ManifestEntry `json:"datasets"`
}

// LoadEntry loads one manifest entry with paths resolved relative to dir.
func LoadEntry(dir string, e ManifestEntry) (*Dataset, error) {
	app, err := ParseApp(e.App)
	if err != nil {
		return nil, err
	}
	dtype := bitflip.Float32
	if e.DType == "float64" {
		dtype = bitflip.Float64
	}
	return LoadRaw(app, e.Name, filepath.Join(dir, e.File), dtype, e.Dims...)
}

// LoadRaw reads a bare little-endian array file into a Dataset.
func LoadRaw(app App, name, path string, dtype bitflip.DType, dims ...int) (*Dataset, error) {
	arr, err := ndarray.TryNew(dims...)
	if err != nil {
		return nil, fmt.Errorf("sdrbench: %s: %w", name, err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("sdrbench: %s: %w", name, err)
	}
	want := arr.Len() * dtype.Size()
	if len(blob) != want {
		return nil, fmt.Errorf("sdrbench: %s: file is %d bytes, dims %v at %v need %d",
			name, len(blob), dims, dtype, want)
	}
	data := arr.Data()
	switch dtype {
	case bitflip.Float32:
		for i := range data {
			data[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(blob[i*4:])))
		}
	case bitflip.Float64:
		for i := range data {
			data[i] = math.Float64frombits(binary.LittleEndian.Uint64(blob[i*8:]))
		}
	default:
		return nil, fmt.Errorf("sdrbench: %s: unsupported dtype %v", name, dtype)
	}
	return &Dataset{App: app, Name: name, DType: dtype, Array: arr}, nil
}

// LoadManifest parses a manifest file.
func LoadManifest(path string) (*Manifest, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return nil, fmt.Errorf("sdrbench: parsing %s: %w", path, err)
	}
	if len(m.Datasets) == 0 {
		return nil, fmt.Errorf("sdrbench: manifest %s lists no datasets", path)
	}
	for i, e := range m.Datasets {
		if e.Name == "" || e.File == "" || len(e.Dims) == 0 {
			return nil, fmt.Errorf("sdrbench: manifest entry %d incomplete (need app, name, file, dims)", i)
		}
		if _, err := ParseApp(e.App); err != nil {
			return nil, fmt.Errorf("sdrbench: manifest entry %d: %w", i, err)
		}
		switch e.DType {
		case "", "float32", "float64":
		default:
			return nil, fmt.Errorf("sdrbench: manifest entry %d: bad dtype %q", i, e.DType)
		}
	}
	return &m, nil
}

// WriteRaw dumps a dataset back to a bare little-endian file in its
// declared dtype (the inverse of LoadRaw; used by cmd/duegen -dump and
// -export). It reports success only once every byte is flushed and the
// file is closed.
func WriteRaw(ds *Dataset, path string) (err error) {
	if ds.DType != bitflip.Float32 && ds.DType != bitflip.Float64 {
		return fmt.Errorf("sdrbench: unsupported dtype %v", ds.DType)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	buf := make([]byte, ds.DType.Size())
	for _, v := range ds.Array.Data() {
		if ds.DType == bitflip.Float32 {
			binary.LittleEndian.PutUint32(buf, math.Float32bits(float32(v)))
		} else {
			binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return w.Flush()
}
