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
//
// The same tile finishes what follows a convolution inside a Shake-Shake
// branch: after the bias it can apply batch norm and a ReLU per output
// channel (Epilogue) — the very operations AffineInto and ReLUInto perform,
// in their order — and it can store straight into the interior of the next
// convolution's zero-bordered padded image (ForwardPadded), so a branch is
// two tile passes with no sweep and no pad fill between them.

// Epilogue is what the tile applies to each output after the bias, per
// output channel c: with Mean set, batch norm's inference expression
// Gamma[c]·((x−Mean[c])·InvStd[c]) + Beta[c], rounded as AffineInto rounds
// it; then, with ReLU, ReLUInto's x > 0 ? x : +0. The four slices hold OutC
// values each or are all nil. The zero Epilogue leaves the sums plus bias.
type Epilogue struct {
	Mean, InvStd, Gamma, Beta []float64
	ReLU                      bool
}

// The tile's epilogue steps, as bits of its mode argument.
const (
	epiNorm = 1 << iota // batch norm after the bias
	epiReLU             // then ReLU
)

// DirectConv is one convolution's weights and epilogue packed for the
// register tile, with the geometry tables the tile is driven by. It is
// read-only after NewDirectConv; concurrent Forward calls need only
// distinct scratch.
type DirectConv struct {
	g     ConvGeom
	w     []float64  // [ceil(OutC/4)][PatchLen][4]; missing channels are zero
	epi   []float64  // [ceil(OutC/4)][bias, mean, invStd, gamma, beta][4], padded likewise
	mode  int        // epiNorm | epiReLU
	offs  []int      // tap p → element offset into the padded image
	wide  bool       // 8-pixel groups on the zmm tile, else 4-pixel groups
	tiles []convTile // the output plane cut into pairs of pixel groups
}

// convTile places one register tile: two groups of output pixels
// (consecutive in an output row), as offsets of each group's first pixel
// into the padded image and as that pixel's output row and column — which
// ForwardPadded turns into an offset into a plain or a padded output plane.
type convTile struct{ in0, in1, oy0, ox0, oy1, ox1 int }

// NewDirectConv packs w, the PatchLen × OutC kernel matrix of Im2Col × W,
// the OutC biases b and the epilogue ep for g (validated, as Conv2D holds
// it).
func NewDirectConv(g ConvGeom, w, b []float64, ep Epilogue) *DirectConv {
	pl, blocks := g.PatchLen(), (g.OutC+3)/4
	k := &DirectConv{g: g, w: make([]float64, blocks*pl*4), epi: make([]float64, blocks*20), offs: make([]int, pl),
		wide: useAVX512 && g.Stride == 1 && g.OutW >= 8}
	for oc := 0; oc < g.OutC; oc++ {
		e := k.epi[oc/4*20+oc%4:]
		e[0] = b[oc]
		if ep.Mean != nil {
			e[4], e[8], e[12], e[16] = ep.Mean[oc], ep.InvStd[oc], ep.Gamma[oc], ep.Beta[oc]
		}
	}
	if ep.Mean != nil {
		k.mode |= epiNorm
	}
	if ep.ReLU {
		k.mode |= epiReLU
	}
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
	// is one 4-pixel group whose surplus pixels ForwardPadded discards. An odd
	// group count pairs the last group with itself.
	gw := k.groupWidth()
	perRow := (g.OutW + gw - 1) / gw
	n := g.OutH * perRow
	group := func(i int) (in, oy, ox int) {
		oy, ox = i/perRow, min(i%perRow*gw, max(g.OutW-gw, 0))
		return (oy*wp + ox) * g.Stride, oy, ox
	}
	for i := 0; i < n; i += 2 {
		var t convTile
		t.in0, t.oy0, t.ox0 = group(i)
		t.in1, t.oy1, t.ox1 = group(min(i+1, n-1))
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

// PaddedLen is the length of one padded input image as the tile reads it:
// InC planes of (InH+2·Pad)×(InW+2·Pad), plus the three pixels a group in a
// row under four wide reads past its row.
func (k *DirectConv) PaddedLen() int {
	g := k.g
	n := g.InC * (g.InH + 2*g.Pad) * (g.InW + 2*g.Pad)
	if g.OutW < k.groupWidth() {
		n += 3 * g.Stride
	}
	return n
}

// ScratchLen is the length of the scratch slice Forward needs: one padded
// image, or nothing where the padded image is the input itself (no pad and
// no row under four wide), which Forward then reads in place.
func (k *DirectConv) ScratchLen() int {
	if n := k.PaddedLen(); n != k.g.InC*k.g.InH*k.g.InW {
		return n
	}
	return 0
}

// Forward convolves batch rows of x (InC·InH·InW values each) into out
// (batch rows of OutC·OutH·OutW, NCHW, fully overwritten): Im2Col(x) × W + b
// rearranged to NCHW, bit for bit, then the epilogue. scratch needs
// ScratchLen elements and may hold anything.
func (k *DirectConv) Forward(out, x, scratch []float64, batch int) {
	g := k.g
	inLen, outLen := g.InC*g.InH*g.InW, g.OutC*g.OutH*g.OutW
	if batch < 0 || len(out) < batch*outLen || len(x) < batch*inLen || len(scratch) < k.ScratchLen() {
		panic(fmt.Sprintf("tensor: DirectConv.Forward slices too short for batch %d geom %+v", batch, g))
	}
	for b := 0; b < batch; b++ {
		img := x[b*inLen : (b+1)*inLen]
		if k.ScratchLen() > 0 {
			k.Pad(scratch, img)
			img = scratch
		}
		k.ForwardPadded(out[b*outLen:(b+1)*outLen], img, nil)
	}
}

// Pad writes one input image x (InC·InH·InW values) into dst as the tile
// reads it: zero border, image in the interior, PaddedLen elements in all.
// Every element of dst[:PaddedLen()] is written, whatever it held.
func (k *DirectConv) Pad(dst, x []float64) {
	g := k.g
	if len(x) < g.InC*g.InH*g.InW || len(dst) < k.PaddedLen() {
		panic(fmt.Sprintf("tensor: DirectConv.Pad of %d values into %d, geom %+v", len(x), len(dst), g))
	}
	fillPadded(dst[:k.PaddedLen()], x, g.InC, g.InH, g.InW, g.Pad)
}

// ForwardPadded convolves one padded image (PaddedLen elements, as Pad
// leaves them) and applies the epilogue. With next nil it writes out as
// OutC·OutH·OutW values, NCHW; otherwise out is next's padded input image
// (next.PaddedLen elements: the results in the interior, every other element
// zeroed), so next can run ForwardPadded on it with no pad fill. The
// assembly tiles check no bounds: the length checks here, and tile offsets
// derived from the same geometry, are what keep every access inside the
// slices.
func (k *DirectConv) ForwardPadded(out, padded []float64, next *DirectConv) {
	g := k.g
	if len(padded) < k.PaddedLen() {
		panic(fmt.Sprintf("tensor: DirectConv.ForwardPadded input of %d values, need %d, geom %+v", len(padded), k.PaddedLen(), g))
	}
	if next == nil {
		if len(out) < g.OutC*g.OutH*g.OutW {
			panic(fmt.Sprintf("tensor: DirectConv.ForwardPadded output of %d values, geom %+v", len(out), g))
		}
		k.convolve(out, padded, g.OutW, 0, g.OutH*g.OutW)
		return
	}
	n := next.g
	if n.InC != g.OutC || n.InH != g.OutH || n.InW != g.OutW || len(out) < next.PaddedLen() {
		panic(fmt.Sprintf("tensor: DirectConv.ForwardPadded into %d values for %+v, geom %+v", len(out), n, g))
	}
	wp := n.InW + 2*n.Pad
	fillPadded(out[:next.PaddedLen()], nil, n.InC, n.InH, n.InW, n.Pad)
	k.convolve(out, padded, wp, n.Pad*wp+n.Pad, (n.InH+2*n.Pad)*wp)
}

// convolve runs the tiles over img into output planes chanStride apart,
// output pixel (oy, ox) of a plane at oy·rowStride + ox + base. A tile
// position is outermost and one call runs every whole 4-channel block at
// it, so the image rows under it serve all of them from L1.
func (k *DirectConv) convolve(out, img []float64, rowStride, base, chanStride int) {
	g := k.g
	gw, pl := k.groupWidth(), len(k.offs)
	valid, whole := min(g.OutW, gw), g.OutC/4*4
	if valid < gw {
		whole = 0
	}
	var blk [4 * 16]float64
	for _, t := range k.tiles {
		o0, o1 := t.oy0*rowStride+t.ox0+base, t.oy1*rowStride+t.ox1+base
		if whole > 0 {
			k.tile(out[:whole*chanStride], o0, o1, chanStride, img, t.in0, t.in1, k.w, k.epi, whole/4)
		}
		// A tile with surplus channels or pixels lands in a block of its
		// own shape, and only the part that exists is copied out.
		for oc := whole; oc < g.OutC; oc += 4 {
			k.tile(blk[:], 0, gw, 2*gw, img, t.in0, t.in1, k.w[oc*pl:(oc+4)*pl], k.epi[oc*5:(oc+4)*5], 1)
			for c := 0; c < min(4, g.OutC-oc); c++ {
				copy(out[(oc+c)*chanStride+o0:][:valid], blk[c*2*gw:])
				copy(out[(oc+c)*chanStride+o1:][:valid], blk[c*2*gw+gw:])
			}
		}
	}
}

// fillPadded writes the planes h×w images of src into the interiors of
// dst's (h+2p)×(w+2p) planes and zeroes every other element of dst, in one
// pass: each interior row after zeroing the border before it — from the
// last row's end, 2p wide within a plane, 2p·(w+2p) wider where a plane
// starts — then the bottom border and the tail. With src nil the interiors
// are left for the tiles to write.
func fillPadded(dst, src []float64, planes, h, w, p int) {
	wp, lo, o := w+2*p, 0, p*(w+2*p)+p
	for c := 0; c < planes; c++ {
		for y := 0; y < h; y++ {
			for i := lo; i < o; i++ {
				dst[i] = 0
			}
			if src != nil {
				copy(dst[o:o+w], src[:w])
				src = src[w:]
			}
			lo, o = o+w, o+wp
		}
		o += 2 * p * wp
	}
	clear(dst[lo:])
}

// tile runs one register tile of the set NewDirectConv chose, for blocks
// 4-channel blocks in turn: w and epi start at the first one's, out holds
// their planes.
func (k *DirectConv) tile(out []float64, out0, out1, chanStride int, in []float64, in0, in1 int, w, epi []float64, blocks int) {
	if k.wide {
		convTile4x16AVX512(&out[out0], &out[out1], chanStride, &in[in0], &in[in1], &w[0], &k.offs[0], len(k.offs), &epi[0], k.mode, blocks)
		return
	}
	convTile4x8(out, out0, out1, chanStride, in, in0, in1, k.g.Stride, w, k.offs, epi, k.mode, blocks)
}

// convTile4x8 computes one register tile for each of blocks 4-channel
// blocks: for channel c ∈ [0,4) and pixel j ∈ [0,4) of each group,
// out[c·chanStride + out0 + j] = Σ_p in[in0 + j·stride + offs[p]] · w[4p+c]
// + epi[c] (and likewise out1/in1), the sum taken from +0 in increasing p,
// then the epilogue mode asks for with channel c's mean, invStd, gamma and
// beta at epi[4+c], epi[8+c], epi[12+c] and epi[16+c]; the next block's
// weights follow, its epilogue values are 20 on and its planes 4·chanStride
// on. The AVX tile covers unit stride; the portable loop below performs the
// identical operations per element, and so does the zmm tile (8-pixel
// groups) that NewDirectConv may choose instead.
func convTile4x8(out []float64, out0, out1, chanStride int, in []float64, in0, in1, stride int, w []float64, offs []int, epi []float64, mode, blocks int) {
	if useSIMD && stride == 1 {
		convTile4x8AVX(&out[out0], &out[out1], chanStride, &in[in0], &in[in1], &w[0], &offs[0], len(offs), &epi[0], mode, blocks)
		return
	}
	for b := 0; b < blocks; b++ {
		convBlock4x8(out[4*b*chanStride:], out0, out1, chanStride, in, in0, in1, stride, w[4*b*len(offs):], offs, epi[20*b:], mode)
	}
}

// convBlock4x8 is convTile4x8's portable loop for one block.
func convBlock4x8(out []float64, out0, out1, chanStride int, in []float64, in0, in1, stride int, w []float64, offs []int, epi []float64, mode int) {
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
		bv := epi[c]
		v := [8]float64{s0 + bv, s1 + bv, s2 + bv, s3 + bv, s4 + bv, s5 + bv, s6 + bv, s7 + bv}
		if mode&epiNorm != 0 {
			mean, invStd, g, bt := epi[4+c], epi[8+c], epi[12+c], epi[16+c]
			for j, x := range v {
				v[j] = g*((x-mean)*invStd) + bt
			}
		}
		if mode&epiReLU != 0 {
			for j, x := range v {
				if !(x > 0) {
					v[j] = 0
				}
			}
		}
		copy(out[c*chanStride+out0:][:4], v[:4])
		copy(out[c*chanStride+out1:][:4], v[4:])
	}
}
