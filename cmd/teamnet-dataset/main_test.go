package main

import (
	"image/png"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"

	"github.com/teamnet/teamnet/internal/cli"
)

// TestRenderWritesOnePNGPerSample renders a few samples of each dataset:
// one file per sample, named by index and class, each an upscaled image of
// the dataset's geometry. A scale below 1 is refused before anything is
// written.
func TestRenderWritesOnePNGPerSample(t *testing.T) {
	const n, scale = 5, 3
	name := regexp.MustCompile(`^\d{3}-(.+)\.png$`)
	for _, set := range []string{"digits", "objects"} {
		ds, err := cli.BuildDataset(set, n, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := run([]string{"-dataset", set, "-n", "5", "-scale", "3", "-out", dir}); err != nil {
			t.Fatalf("%s: %v", set, err)
		}
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != ds.Len() {
			t.Fatalf("%s: %d files for %d samples", set, len(files), ds.Len())
		}
		for _, f := range files {
			m := name.FindStringSubmatch(f.Name())
			if m == nil || !slices.Contains(ds.ClassNames, m[1]) {
				t.Fatalf("%s: file %q does not carry a class name of %v", set, f.Name(), ds.ClassNames)
			}
			r, err := os.Open(filepath.Join(dir, f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := png.DecodeConfig(r)
			r.Close()
			if err != nil {
				t.Fatalf("%s: %s: %v", set, f.Name(), err)
			}
			if cfg.Width != ds.W*scale || cfg.Height != ds.H*scale {
				t.Fatalf("%s: %s is %d×%d, want %d×%d", set, f.Name(), cfg.Width, cfg.Height, ds.W*scale, ds.H*scale)
			}
		}
	}

	dir := filepath.Join(t.TempDir(), "out")
	if err := run([]string{"-scale", "0", "-out", dir}); err == nil {
		t.Fatal("-scale 0 accepted")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("-scale 0 created its output directory: %v", err)
	}
}
