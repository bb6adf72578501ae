// Command teamnet-dataset renders samples of the synthetic datasets to PNG
// files for visual inspection — the fastest way to sanity-check that the
// MNIST/CIFAR-10 stand-ins look like what the experiments assume (glyph
// structure, category textures, jitter).
//
//	teamnet-dataset -dataset objects -n 20 -out /tmp/objects
package main

import (
	"flag"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"os"
	"path/filepath"

	"github.com/teamnet/teamnet/internal/cli"
	"github.com/teamnet/teamnet/internal/dataset"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "teamnet-dataset:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("teamnet-dataset", flag.ExitOnError)
	var (
		dsName = fs.String("dataset", "digits", "dataset: digits or objects")
		n      = fs.Int("n", 20, "number of samples to render")
		size   = fs.Int("size", 0, "image edge length (0 = dataset default)")
		scale  = fs.Int("scale", 8, "pixel upscale factor for viewability")
		seed   = fs.Int64("seed", 1, "generator seed")
		outDir = fs.String("out", "dataset-preview", "output directory")
	)
	fs.Parse(args)
	if *scale < 1 {
		return fmt.Errorf("scale must be ≥ 1")
	}

	ds, err := cli.BuildDataset(*dsName, *n, *size, *seed)
	if err != nil {
		return err
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return fmt.Errorf("create %s: %w", *outDir, err)
	}
	for i := 0; i < ds.Len(); i++ {
		img := renderSample(ds, i, *scale)
		name := fmt.Sprintf("%03d-%s.png", i, ds.ClassNames[ds.Y[i]])
		path := filepath.Join(*outDir, name)
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("create %s: %w", path, err)
		}
		if err := png.Encode(f, img); err != nil {
			f.Close()
			return fmt.Errorf("encode %s: %w", path, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("close %s: %w", path, err)
		}
	}
	fmt.Printf("wrote %d %s samples (%dx%d upscaled ×%d) to %s\n",
		ds.Len(), ds.Name, ds.W, ds.H, *scale, *outDir)
	return nil
}

// renderSample converts one NCHW row into an upscaled RGBA image.
func renderSample(ds *dataset.Dataset, idx, scale int) image.Image {
	row := ds.X.RowSlice(idx)
	plane := ds.H * ds.W
	img := image.NewRGBA(image.Rect(0, 0, ds.W*scale, ds.H*scale))
	at := func(c, y, x int) uint8 {
		v := row[c*plane+y*ds.W+x]
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		}
		return uint8(v * 255)
	}
	for y := 0; y < ds.H; y++ {
		for x := 0; x < ds.W; x++ {
			var px color.RGBA
			if ds.C == 1 {
				g := at(0, y, x)
				px = color.RGBA{R: g, G: g, B: g, A: 255}
			} else {
				px = color.RGBA{R: at(0, y, x), G: at(1, y, x), B: at(2, y, x), A: 255}
			}
			for dy := 0; dy < scale; dy++ {
				for dx := 0; dx < scale; dx++ {
					img.SetRGBA(x*scale+dx, y*scale+dy, px)
				}
			}
		}
	}
	return img
}
