// Package golden compares a test's output with a file committed under
// testdata. Only tests import it. Run a test with -update-golden to rewrite
// the file from what the code does now.
package golden

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update-golden", false, "rewrite golden files from the current output")

// Compare fails t unless got equals the file at path byte for byte, and
// reports the first differing line with the golden lines before it. With
// -update-golden it writes got to path instead.
func Compare(t testing.TB, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it with -update-golden)", err)
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		if i == len(gl) || i == len(wl) {
			t.Fatalf("output has %d lines, %s has %d", len(gl), path, len(wl))
		}
		if gl[i] != wl[i] {
			t.Fatalf("output diverges from %s at line %d:\n got %s\nwant %s\ncontext:\n%s",
				path, i+1, gl[i], wl[i], strings.Join(wl[max(i-12, 0):i], "\n"))
		}
	}
}
