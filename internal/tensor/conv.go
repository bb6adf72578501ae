package tensor

import "fmt"

// Direct convolution: the forward of every internal/nn convolution, in
// training and at inference alike. It computes the sums of Im2Col(x) × W —
// the lowering the training backward still multiplies through — straight
// from a zero-padded copy of the image: a register tile of 4 output
// channels × two groups of output pixels walks the receptive field tap by
// tap, so every input load is reused across four channels, every weight
// across the tile's pixels, and the working set is the padded image
// (L1/L2-resident) instead of a PatchLen-times-inflated patch matrix. A
// group is eight pixels (the zmm tile) where AVX-512 is usable, the stride
// is 1 and output rows are at least eight wide, else four (the ymm tile, or
// the portable one).
//
// Bit-exactness with Im2Col × W + bias: every output element is a sum that
// starts at +0 and adds input·weight over the taps in increasing patch
// order (c, ky, kx), one product at a time, separate multiply and add,
// then adds the bias. The matmul kernels skip zero patch entries, padding
// included, where this one multiplies them for real: the product is ±0,
// adding ±0 leaves a running sum unchanged, and a sum that started at +0 is
// never −0 — so both round identically for finite weights
// (TestConvDirectMatchesReference, FuzzConvDirect).

// DirectConv is one convolution's weights packed for the register tile,
// with the geometry tables the tile is driven by. It is read-only after
// NewDirectConv; concurrent Forward calls need only distinct scratch.
type DirectConv struct {
	g     ConvGeom
	w     []float64  // [ceil(OutC/4)][PatchLen][4]; missing channels are zero
	bias  []float64  // padded likewise
	offs  []int      // tap p → element offset into the padded image
	wide  bool       // 8-pixel groups on the zmm tile, else 4-pixel groups
	tiles []convTile // the output plane cut into pairs of pixel groups
}

// convTile places one register tile: two groups of output pixels
// (consecutive in an output row), as offsets of each group's first pixel
// into the padded image and into an output channel plane.
type convTile struct{ in0, in1, out0, out1 int }

// NewDirectConv packs w, the PatchLen × OutC kernel matrix of Im2Col × W,
// and the OutC biases b for g (validated, as Conv2D holds it).
func NewDirectConv(g ConvGeom, w, b []float64) *DirectConv {
	pl, blocks := g.PatchLen(), (g.OutC+3)/4
	k := &DirectConv{g: g, w: make([]float64, blocks*pl*4), bias: make([]float64, blocks*4), offs: make([]int, pl),
		wide: useAVX512 && g.Stride == 1 && g.OutW >= 8}
	copy(k.bias, b[:g.OutC])
	for p := 0; p < pl; p++ {
		for oc := 0; oc < g.OutC; oc++ {
			k.w[(oc/4*pl+p)*4+oc%4] = w[p*g.OutC+oc]
		}
	}
	hp, wp := g.InH+2*g.Pad, g.InW+2*g.Pad
	for p := range k.offs {
		c, ky, kx := p/(g.KH*g.KW), p/g.KW%g.KH, p%g.KW
		k.offs[p] = (c*hp+ky)*wp + kx
	}
	// Groups of gw pixels tile each output row; a row that does not divide
	// by gw ends on a group moved left to overlap its neighbour (the shared
	// pixels are computed twice, to the same bits), and a row under four wide
	// is one 4-pixel group whose surplus pixels Forward discards. An odd
	// group count pairs the last group with itself.
	gw := k.groupWidth()
	perRow := (g.OutW + gw - 1) / gw
	n := g.OutH * perRow
	group := func(i int) (in, out int) {
		oy, ox := i/perRow, min(i%perRow*gw, max(g.OutW-gw, 0))
		return (oy*wp + ox) * g.Stride, oy*g.OutW + ox
	}
	for i := 0; i < n; i += 2 {
		var t convTile
		t.in0, t.out0 = group(i)
		t.in1, t.out1 = group(min(i+1, n-1))
		k.tiles = append(k.tiles, t)
	}
	return k
}

// groupWidth is the pixel count of one group of the chosen tile set.
func (k *DirectConv) groupWidth() int {
	if k.wide {
		return 8
	}
	return 4
}

// ScratchLen is the length of the scratch slice Forward needs: one padded
// image, plus the three pixels a group in a row under four wide reads past
// its row.
func (k *DirectConv) ScratchLen() int {
	return k.g.InC*(k.g.InH+2*k.g.Pad)*(k.g.InW+2*k.g.Pad) + 3*k.g.Stride
}

// Forward convolves batch rows of x (InC·InH·InW values each) into out
// (batch rows of OutC·OutH·OutW, NCHW, fully overwritten), bit-identical to
// Im2Col(x) × W + b rearranged to NCHW. scratch needs ScratchLen elements
// and may hold anything. The assembly tile checks no bounds: the length
// checks here, and tile offsets derived from the same geometry, are what
// keep every access inside the three slices.
func (k *DirectConv) Forward(out, x, scratch []float64, batch int) {
	g := k.g
	inLen, sp, pl := g.InC*g.InH*g.InW, g.OutH*g.OutW, len(k.offs)
	if batch < 0 || len(out) < batch*g.OutC*sp || len(x) < batch*inLen || len(scratch) < k.ScratchLen() {
		panic(fmt.Sprintf("tensor: DirectConv.Forward slices too short for batch %d geom %+v", batch, g))
	}
	gw := k.groupWidth()
	wp, valid := g.InW+2*g.Pad, min(g.OutW, gw)
	for b := 0; b < batch; b++ {
		// One pass over the padded image: each image row is copied into the
		// interior after zeroing the pad border before it — from the last
		// row's end, 2·Pad wide within a plane, 2·Pad·wp wider where a plane
		// starts — and then the bottom border and the tail are zeroed. Every
		// element a tile reads is written here, whatever scratch held.
		src, lo, o := x[b*inLen:(b+1)*inLen], 0, g.Pad*wp+g.Pad
		for c := 0; c < g.InC; c++ {
			for y := 0; y < g.InH; y++ {
				for i := lo; i < o; i++ {
					scratch[i] = 0
				}
				copy(scratch[o:o+g.InW], src[:g.InW])
				src, lo, o = src[g.InW:], o+g.InW, o+wp
			}
			o += 2 * g.Pad * wp
		}
		clear(scratch[lo:k.ScratchLen()])
		img := out[b*g.OutC*sp : (b+1)*g.OutC*sp]
		for oc := 0; oc < g.OutC; oc += 4 {
			w, bias := k.w[oc*pl:(oc+4)*pl], k.bias[oc:oc+4]
			if valid == gw && oc+4 <= g.OutC {
				planes := img[oc*sp : (oc+4)*sp]
				for _, t := range k.tiles {
					k.tile(planes, t.out0, t.out1, sp, scratch, t.in0, t.in1, w, bias)
				}
				continue
			}
			// A tile with surplus channels or pixels lands in a block of its
			// own shape, and only the part that exists is copied out.
			var blk [4 * 16]float64
			for _, t := range k.tiles {
				k.tile(blk[:], 0, gw, 2*gw, scratch, t.in0, t.in1, w, bias)
				for c := 0; c < min(4, g.OutC-oc); c++ {
					copy(img[(oc+c)*sp+t.out0:][:valid], blk[c*2*gw:])
					copy(img[(oc+c)*sp+t.out1:][:valid], blk[c*2*gw+gw:])
				}
			}
		}
	}
}

// tile runs one register tile of the set NewDirectConv chose.
func (k *DirectConv) tile(out []float64, out0, out1, chanStride int, in []float64, in0, in1 int, w, bias []float64) {
	if k.wide {
		convTile4x16AVX512(&out[out0], &out[out1], chanStride, &in[in0], &in[in1], &w[0], &k.offs[0], len(k.offs), &bias[0])
		return
	}
	convTile4x8(out, out0, out1, chanStride, in, in0, in1, k.g.Stride, w, k.offs, bias)
}

// convTile4x8 computes one register tile: for channel c ∈ [0,4) and pixel
// j ∈ [0,4) of each group, out[c·chanStride + out0 + j] = Σ_p in[in0 +
// j·stride + offs[p]] · w[4p+c] + bias[c] (and likewise out1/in1), the sum
// taken from +0 in increasing p. The AVX tile covers unit stride; the
// portable loop below performs the identical operations per element, and
// so does the zmm tile (8-pixel groups) that NewDirectConv may choose
// instead.
func convTile4x8(out []float64, out0, out1, chanStride int, in []float64, in0, in1, stride int, w []float64, offs []int, bias []float64) {
	if useSIMD && stride == 1 {
		convTile4x8AVX(&out[out0], &out[out1], chanStride, &in[in0], &in[in1], &w[0], &offs[0], len(offs), &bias[0])
		return
	}
	for c := 0; c < 4; c++ {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for p, o := range offs {
			wv := w[4*p+c]
			a, b := in[in0+o:], in[in1+o:]
			s0 += a[0] * wv
			s1 += a[stride] * wv
			s2 += a[2*stride] * wv
			s3 += a[3*stride] * wv
			s4 += b[0] * wv
			s5 += b[stride] * wv
			s6 += b[2*stride] * wv
			s7 += b[3*stride] * wv
		}
		bv := bias[c]
		d0, d1 := out[c*chanStride+out0:], out[c*chanStride+out1:]
		d0[0], d0[1], d0[2], d0[3] = s0+bv, s1+bv, s2+bv, s3+bv
		d1[0], d1[1], d1[2], d1[3] = s4+bv, s5+bv, s6+bv, s7+bv
	}
}
