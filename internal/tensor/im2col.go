package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution over NCHW tensors.
// It is shared by the Conv2D layer (internal/nn) and by the MPI-Kernel
// parallelization scheme, which must agree exactly on output sizes.
type ConvGeom struct {
	InC, InH, InW int // input channels, height, width
	OutC          int // output channels
	KH, KW        int // kernel height, width
	Stride, Pad   int
	OutH, OutW    int // derived; set by Validate
}

// Validate checks the geometry and fills in the derived output extents.
func (g *ConvGeom) Validate() error {
	if g.InC <= 0 || g.InH <= 0 || g.InW <= 0 || g.OutC <= 0 {
		return fmt.Errorf("tensor: conv geometry has non-positive extent: %+v", *g)
	}
	if g.KH <= 0 || g.KW <= 0 || g.Stride <= 0 || g.Pad < 0 {
		return fmt.Errorf("tensor: conv kernel/stride/pad invalid: %+v", *g)
	}
	// Checked before dividing: Go truncates (2-3)/2 to 0, which would pass a
	// kernel wider than the padded image as a 1-wide output.
	if g.KH > g.InH+2*g.Pad || g.KW > g.InW+2*g.Pad {
		return fmt.Errorf("tensor: conv output collapses to zero: %+v", *g)
	}
	g.OutH = (g.InH+2*g.Pad-g.KH)/g.Stride + 1
	g.OutW = (g.InW+2*g.Pad-g.KW)/g.Stride + 1
	return nil
}

// PatchLen returns the length of one unrolled receptive field.
func (g *ConvGeom) PatchLen() int { return g.InC * g.KH * g.KW }

// Im2Col unrolls x (batch × InC × InH × InW, given as a rank-2 tensor of
// batch rows with InC·InH·InW columns) into a patch matrix of shape
// (batch·OutH·OutW) × PatchLen. Zero padding is implicit: out-of-range taps
// contribute zeros.
//
// With W the (PatchLen × OutC) kernel matrix, the convolution output is
// simply Im2Col(x) × W — turning convolution into the library's fast matmul.
func Im2Col(x *Tensor, g ConvGeom) *Tensor {
	x.mustRank(2)
	batch := x.Shape[0]
	if x.Shape[1] != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Im2Col input cols %d != %d·%d·%d", x.Shape[1], g.InC, g.InH, g.InW))
	}
	out := New(batch*g.OutH*g.OutW, g.PatchLen())
	im2colFill(out.Data, x.Data, batch, g)
	return out
}

// im2colFill writes every receptive-field tap of dst, storing explicit
// zeros for out-of-range (padding) positions, so callers need not clear the
// buffer first.
//
// The loop nest keeps the patch column (c, ky, kx) fixed and walks the
// output columns ox innermost: the padding bounds depend only on kx, so the
// whole inner loop runs branch-free — a sequential read of one image row
// scattered into dst at patch-length stride. The per-oy destination slab
// (OutW rows of one patch matrix) is small enough to stay cached across the
// full (c, ky, kx) sweep.
func im2colFill(dst, x []float64, batch int, g ConvGeom) {
	pl := g.PatchLen()
	inC, inH, inW := g.InC, g.InH, g.InW
	outH, outW := g.OutH, g.OutW
	kh, kw := g.KH, g.KW
	stride, pad := g.Stride, g.Pad

	// The in-range output-column span for tap column kx — the ox with
	// 0 ≤ ox·Stride − Pad + kx < InW — depends only on kx, so the two
	// (division-bearing) bound computations hoist out of every loop.
	var loBuf, hiBuf [16]int
	oxLo, oxHi := loBuf[:], hiBuf[:]
	if kw > len(loBuf) {
		oxLo = make([]int, kw)
		oxHi = make([]int, kw)
	}
	for kx := 0; kx < kw; kx++ {
		lo := 0
		if d := pad - kx; d > 0 {
			lo = min(outW, (d+stride-1)/stride) // all padding on a narrow image
		}
		// A tap right of the image at every ox (kx > InW−1+Pad) has an empty
		// span; dividing the negative numerator would truncate it to one pixel.
		hi := 0
		if n := inW - 1 + pad - kx; n >= 0 {
			hi = min(outW, n/stride+1)
		}
		if hi < lo {
			hi = lo
		}
		oxLo[kx], oxHi[kx] = lo, hi
	}

	for b := 0; b < batch; b++ {
		img := x[b*inC*inH*inW:]
		for oy := 0; oy < outH; oy++ {
			rowBase := (b*outH + oy) * outW * pl
			iy0 := oy*stride - pad
			for c := 0; c < inC; c++ {
				chOff := c * inH * inW
				for ky := 0; ky < kh; ky++ {
					iy := iy0 + ky
					p0 := rowBase + (c*kh+ky)*kw
					if iy < 0 || iy >= inH {
						for kx := 0; kx < kw; kx++ {
							di := p0 + kx
							for ox := 0; ox < outW; ox++ {
								dst[di] = 0
								di += pl
							}
						}
						continue
					}
					rowOff := chOff + iy*inW
					for kx := 0; kx < kw; kx++ {
						lo, hi := oxLo[kx], oxHi[kx]
						di := p0 + kx
						for ox := 0; ox < lo; ox++ {
							dst[di] = 0
							di += pl
						}
						si := rowOff + lo*stride - pad + kx
						ox := lo
						for ; ox+4 <= hi; ox += 4 {
							dst[di] = img[si]
							dst[di+pl] = img[si+stride]
							dst[di+2*pl] = img[si+2*stride]
							dst[di+3*pl] = img[si+3*stride]
							di += 4 * pl
							si += 4 * stride
						}
						for ; ox < hi; ox++ {
							dst[di] = img[si]
							di += pl
							si += stride
						}
						for ox := hi; ox < outW; ox++ {
							dst[di] = 0
							di += pl
						}
					}
				}
			}
		}
	}
}

// Col2Im scatters a patch-matrix gradient (the transpose operation of
// Im2Col) back into input-image layout, accumulating overlapping taps. cols
// must be (batch·OutH·OutW) × PatchLen; the result is batch × InC·InH·InW.
func Col2Im(cols *Tensor, batch int, g ConvGeom) *Tensor {
	cols.mustRank(2)
	pl := g.PatchLen()
	if cols.Shape[0] != batch*g.OutH*g.OutW || cols.Shape[1] != pl {
		panic(fmt.Sprintf("tensor: Col2Im shape %v incompatible with batch %d geom %+v", cols.Shape, batch, g))
	}
	out := New(batch, g.InC*g.InH*g.InW)
	for b := 0; b < batch; b++ {
		img := out.Data[b*g.InC*g.InH*g.InW:]
		for oy := 0; oy < g.OutH; oy++ {
			for ox := 0; ox < g.OutW; ox++ {
				row := cols.Data[((b*g.OutH+oy)*g.OutW+ox)*pl:]
				p := 0
				for c := 0; c < g.InC; c++ {
					chOff := c * g.InH * g.InW
					for ky := 0; ky < g.KH; ky++ {
						iy := oy*g.Stride - g.Pad + ky
						if iy < 0 || iy >= g.InH {
							p += g.KW
							continue
						}
						rowOff := chOff + iy*g.InW
						for kx := 0; kx < g.KW; kx++ {
							ix := ox*g.Stride - g.Pad + kx
							if ix >= 0 && ix < g.InW {
								img[rowOff+ix] += row[p]
							}
							p++
						}
					}
				}
			}
		}
	}
	return out
}
