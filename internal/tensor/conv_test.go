package tensor

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// convCase is one DirectConv check: a geometry, a batch, the seed of its
// weights and inputs, the epilogue it also runs with (epiNorm and epiReLU
// bits) and the pad of the next convolution whose padded input it also
// writes.
type convCase struct {
	inC, inH, inW, outC, k, stride, pad, batch int
	seed                                       int64
	epi, nextPad                               int
}

func (c convCase) geom() (ConvGeom, bool) {
	g := ConvGeom{InC: c.inC, InH: c.inH, InW: c.inW, OutC: c.outC, KH: c.k, KW: c.k, Stride: c.stride, Pad: c.pad}
	return g, g.Validate() == nil
}

// convTable crosses kernel 1/3/5 × pad 0/1/2 × stride 1/2 × channel count
// (whole 4-channel blocks and every remainder) × input width (below, at and
// around the 4-pixel group and the 8-pixel tile; 8k−1, 8k+1 and an odd count
// of 8-pixel groups for the zmm tile: 12, 15, 17, 24), and cycles input
// channels, heights, batch sizes, the four epilogues and the next
// convolution's pad 0/1/2 through it. Geometries that collapse (a 5×5 kernel
// on an unpadded 2-wide image) are left out.
func convTable() []convCase {
	var cases []convCase
	heights := []int{3, 5, 8, 2}
	i := 0
	for _, k := range []int{1, 3, 5} {
		for _, pad := range []int{0, 1, 2} {
			for _, stride := range []int{1, 2} {
				for _, outC := range []int{1, 3, 4, 6, 8, 12, 48} {
					for _, w := range []int{1, 2, 4, 7, 8, 9, 12, 15, 16, 17, 24, 32, 33} {
						c := convCase{
							inC: 1 + i%3, inH: max(heights[i%4], k-2*pad), inW: w, outC: outC,
							k: k, stride: stride, pad: pad, batch: []int{1, 3, 16}[i/9%3], seed: int64(i),
							epi: i % 4, nextPad: i / 4 % 3,
						}
						if _, ok := c.geom(); ok {
							cases = append(cases, c)
						}
						i++
					}
				}
			}
		}
	}
	return cases
}

// convReference is the training path's convolution: Im2Col × W, plus bias,
// rearranged from (batch·spatial) × OutC rows to NCHW.
func convReference(x *Tensor, g ConvGeom, w, b *Tensor) []float64 {
	y := MatMul(Im2Col(x, g), w)
	y.AddRowVector(b)
	batch, sp := x.Shape[0], g.OutH*g.OutW
	out := make([]float64, batch*g.OutC*sp)
	for bi := 0; bi < batch; bi++ {
		for s := 0; s < sp; s++ {
			for c := 0; c < g.OutC; c++ {
				out[(bi*g.OutC+c)*sp+s] = y.Data[(bi*sp+s)*g.OutC+c]
			}
		}
	}
	return out
}

// checkConvDirect runs one case through DirectConv with whichever tile set
// the SIMD gates select and compares bit for bit with the reference. Odd seeds
// pass the input through a ReLU first, so half of it is exact zeros — the
// terms the matmul kernels skip and the direct tile multiplies.
func checkConvDirect(t *testing.T, c convCase) {
	t.Helper()
	g, ok := c.geom()
	if !ok {
		t.Skip("geometry collapses")
	}
	rng := NewRNG(c.seed)
	x := rng.Randn(c.batch, g.InC*g.InH*g.InW)
	if c.seed%2 == 1 {
		ReLUInto(x.Data, x.Data)
	}
	w := rng.Randn(g.PatchLen(), g.OutC)
	b := rng.Randn(g.OutC)
	want := convReference(x, g, w, b)

	k := NewDirectConv(g, w.Data, b.Data, Epilogue{})
	got := make([]float64, len(want))
	k.Forward(got, x.Data, dirty(k.ScratchLen()), c.batch)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%+v (simd %v, wide %v): out[%d] = %x, reference %x", c, useSIMD, k.wide, i,
				math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
	checkEpilogue(t, c, g, rng)
}

// dirty returns n NaNs: arena memory as its last user left it, which
// Forward and ForwardPadded must not trust.
func dirty(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = math.NaN()
	}
	return s
}

// epilogueFor draws c's epilogue for outC channels: batch norm if c.epi has
// epiNorm, half its parameters special values (NaN, ±0, ±Inf, subnormals),
// then ReLU if it has epiReLU.
func epilogueFor(c convCase, outC int, rng *RNG) Epilogue {
	ep := Epilogue{ReLU: c.epi&epiReLU != 0}
	if c.epi&epiNorm == 0 {
		return ep
	}
	ep.Mean, ep.InvStd, ep.Gamma, ep.Beta = make([]float64, outC), make([]float64, outC), make([]float64, outC), make([]float64, outC)
	for _, param := range [][]float64{ep.Mean, ep.InvStd, ep.Gamma, ep.Beta} {
		for i := range param {
			if param[i] = rng.Norm(); rng.Intn(2) == 0 {
				param[i] = special(rng.Intn(len(specialBits)))
			}
		}
	}
	return ep
}

// sweeps is what an epilogue replaces: AffineInto over each output plane of
// y (rows of OutC·OutH·OutW, NCHW), then ReLUInto, in place.
func sweeps(y []float64, g ConvGeom, ep Epilogue) {
	sp := g.OutH * g.OutW
	for p := 0; p < len(y)/sp; p++ {
		plane, oc := y[p*sp:(p+1)*sp], p%g.OutC
		if ep.Mean != nil {
			AffineInto(plane, plane, ep.Mean[oc], ep.InvStd[oc], ep.Gamma[oc], ep.Beta[oc])
		}
		if ep.ReLU {
			ReLUInto(plane, plane)
		}
	}
}

// nansMeet reports whether, in channel oc's batch norm of x, one of the
// three commutative steps — the multiply by invStd, gamma's multiply, the
// add of beta — takes two NaNs. IEEE 754 leaves the payload of that result
// to the implementation: x86 keeps the first operand's, and Go may order a
// commutative operation either way, so there the result need only be a NaN
// (as in TestMixHalvesIntoBitPatterns).
func nansMeet(x float64, ep Epilogue, oc int) bool {
	if ep.Mean == nil {
		return false
	}
	nan := math.IsNaN
	d := x - ep.Mean[oc]
	s := d * ep.InvStd[oc]
	return nan(d) && nan(ep.InvStd[oc]) || nan(s) && nan(ep.Gamma[oc]) || nan(ep.Gamma[oc]*s) && nan(ep.Beta[oc])
}

// checkEpilogue holds c's epilogue to the sweeps it replaces, on an input a
// tenth of whose values are special, so NaN, ±0 and ±Inf reach the batch
// norm and the ReLU from the sums as well as from the parameters: the
// convolution with the epilogue must equal the plain convolution followed by
// AffineInto and ReLUInto bit for bit (up to the payload where two NaNs
// meet: nansMeet), and ForwardPadded into a next convolution of pad
// c.nextPad must leave, over NaN-filled memory, exactly what that
// convolution's Pad of Forward's output leaves.
func checkEpilogue(t *testing.T, c convCase, g ConvGeom, rng *RNG) {
	t.Helper()
	inLen, outLen := g.InC*g.InH*g.InW, g.OutC*g.OutH*g.OutW
	x := rng.Randn(c.batch, inLen).Data
	for i := range x {
		if rng.Intn(10) == 0 {
			x[i] = special(rng.Intn(len(specialBits)))
		}
	}
	w, b := rng.Randn(g.PatchLen(), g.OutC).Data, rng.Randn(g.OutC).Data
	ep := epilogueFor(c, g.OutC, rng)
	sums := make([]float64, c.batch*outLen)
	plain := NewDirectConv(g, w, b, Epilogue{})
	plain.Forward(sums, x, dirty(plain.ScratchLen()), c.batch)
	want := slices.Clone(sums)
	sweeps(want, g, ep)

	k := NewDirectConv(g, w, b, ep)
	got := dirty(len(want))
	k.Forward(got, x, dirty(k.ScratchLen()), c.batch)
	fused := slices.Clone(got)
	for i, v := range got {
		if oc := i / (g.OutH * g.OutW) % g.OutC; math.IsNaN(v) && math.IsNaN(want[i]) && nansMeet(sums[i], ep, oc) {
			got[i] = want[i]
		}
	}
	sameBits(t, fmt.Sprintf("%+v (wide %v) epilogue", c, k.wide), got, want)

	ng := ConvGeom{InC: g.OutC, InH: g.OutH, InW: g.OutW, OutC: 1, KH: 2*c.nextPad + 1, KW: 2*c.nextPad + 1, Stride: 1, Pad: c.nextPad}
	if err := ng.Validate(); err != nil {
		t.Fatal(err)
	}
	next := NewDirectConv(ng, make([]float64, ng.PatchLen()), make([]float64, 1), Epilogue{})
	padded, dst, wantPadded := dirty(k.PaddedLen()), dirty(next.PaddedLen()), make([]float64, next.PaddedLen())
	for bi := 0; bi < c.batch; bi++ {
		k.Pad(padded, x[bi*inLen:(bi+1)*inLen])
		k.ForwardPadded(dst, padded, next)
		next.Pad(wantPadded, fused[bi*outLen:(bi+1)*outLen])
		sameBits(t, fmt.Sprintf("%+v (wide %v) row %d into a pad-%d image", c, k.wide, bi, c.nextPad), dst, wantPadded)
	}
}

// TestConvDirectIgnoresDirtyScratch pins the border-only pad: Forward zeroes
// the pad border and the tail and overwrites each image's interior rows, and
// nothing else, so it must not matter what the scratch held before. Every
// case of the table runs through one shared scratch, first filled with NaN —
// as the snapshot's one padded-image buffer holds the last conv's image, of
// another shape — and the output must match Im2Col × W bit for bit.
func TestConvDirectIgnoresDirtyScratch(t *testing.T) {
	var scratch []float64
	for _, c := range convTable() {
		g, ok := c.geom()
		if !ok {
			continue
		}
		rng := NewRNG(c.seed)
		x := rng.Randn(c.batch, g.InC*g.InH*g.InW)
		w, b := rng.Randn(g.PatchLen(), g.OutC), rng.Randn(g.OutC)
		k := NewDirectConv(g, w.Data, b.Data, Epilogue{})
		if len(scratch) < k.ScratchLen() {
			scratch = make([]float64, 2*k.ScratchLen())
			for i := range scratch {
				scratch[i] = math.NaN()
			}
		}
		got := make([]float64, c.batch*g.OutC*g.OutH*g.OutW)
		k.Forward(got, x.Data, scratch, c.batch)
		sameBits(t, fmt.Sprintf("%+v on dirty scratch", c), got, convReference(x, g, w, b))
	}
}

// convLeg runs checks under one tile set; missing says the machine cannot.
type convLeg struct {
	name    string
	missing bool
	run     func(f func())
}

// convLegs are the three tile sets DirectConv can run: the zmm tiles
// (8-pixel groups where they apply), the ymm tiles (AVX-512 gate forced
// off) and the portable tile (both gates off) — the only one on other
// architectures, and the one that serves stride 2.
func convLegs() []convLeg {
	return []convLeg{
		{"zmm", !useAVX512, func(f func()) { f() }},
		{"ymm", !useSIMD, WithoutAVX512},
		{"portable", false, WithoutSIMD},
	}
}

// TestConvDirectMatchesReference pins DirectConv to the training path's
// Im2Col × W over the geometry table under each of the three tile sets, so
// the zmm tile, the ymm tile and the portable tile are bit-identical to the
// reference and so to one another. A leg the machine cannot run skips.
func TestConvDirectMatchesReference(t *testing.T) {
	for _, leg := range convLegs() {
		t.Run(leg.name, func(t *testing.T) {
			if leg.missing {
				t.Skipf("no %s tile on this machine", leg.name)
			}
			leg.run(func() {
				if g := ss14Stages[0]; leg.name == "zmm" && (g.Validate() != nil || !NewDirectConv(g, make([]float64, g.PatchLen()*g.OutC), make([]float64, g.OutC), Epilogue{}).wide) {
					t.Fatal("the zmm leg did not choose 8-pixel groups for the SS-14 stem")
				}
				for _, c := range convTable() {
					checkConvDirect(t, c)
				}
			})
		})
	}
}

// FuzzConvDirect explores geometries, data, epilogues and padded outputs
// the table does not list; the table is its seed corpus, so plain `go test`
// replays it.
func FuzzConvDirect(f *testing.F) {
	for _, c := range convTable() {
		f.Add(uint8(c.inC), uint8(c.inH), uint8(c.inW), uint8(c.outC), uint8(c.k), uint8(c.stride), uint8(c.pad), uint8(c.batch), c.seed,
			uint8(c.epi), uint8(c.nextPad))
	}
	f.Fuzz(func(t *testing.T, inC, inH, inW, outC, k, stride, pad, batch uint8, seed int64, epi, nextPad uint8) {
		// Bounded so one input costs milliseconds, not the fuzzer's patience.
		c := convCase{
			inC: 1 + int(inC)%4, inH: 1 + int(inH)%12, inW: 1 + int(inW)%40, outC: 1 + int(outC)%50,
			k: 1 + int(k)%5, stride: 1 + int(stride)%3, pad: int(pad) % 3, batch: 1 + int(batch)%4, seed: seed,
			epi: int(epi) % 4, nextPad: int(nextPad) % 3,
		}
		for _, leg := range convLegs() {
			if !leg.missing {
				leg.run(func() { checkConvDirect(t, c) })
			}
		}
	})
}

func TestConvDirectPanicsOnShortSlices(t *testing.T) {
	g := ConvGeom{InC: 2, InH: 5, InW: 6, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	k := NewDirectConv(g, make([]float64, g.PatchLen()*g.OutC), make([]float64, g.OutC), Epilogue{})
	in, out, scratch := 2*g.InC*g.InH*g.InW, 2*g.OutC*g.OutH*g.OutW, k.ScratchLen()
	for _, short := range [][3]int{{out - 1, in, scratch}, {out, in - 1, scratch}, {out, in, scratch - 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Forward accepted slices of %v, one short of %d/%d/%d", short, out, in, scratch)
				}
			}()
			k.Forward(make([]float64, short[0]), make([]float64, short[1]), make([]float64, short[2]), 2)
		}()
	}
}

// TestReLUIntoBitPatterns pins the vector ReLU to the comparison it
// replaced on the values where max instructions disagree with one another:
// zeros and NaNs of both signs, infinities, subnormals.
func TestReLUIntoBitPatterns(t *testing.T) {
	// Every length from 0 to 11 puts each pattern in the vector body and in
	// the scalar tail.
	for n := 0; n < 12; n++ {
		for rot := range specialBits {
			src := make([]float64, n)
			want := make([]float64, n)
			for i := range src {
				v := math.Float64frombits(specialBits[(i+rot)%len(specialBits)])
				src[i] = v
				if v > 0 {
					want[i] = v
				}
			}
			got := make([]float64, n)
			ReLUInto(got, src)
			generic := make([]float64, n)
			WithoutSIMD(func() { ReLUInto(generic, src) })
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) || math.Float64bits(generic[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d: ReLU(%x) = %x (simd %v), %x (portable), want %x", n,
						math.Float64bits(src[i]), math.Float64bits(got[i]), useSIMD, math.Float64bits(generic[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
}

// ss14Stages are the three stage shapes of SS-14 on 3×32×32, as OutC ×
// PatchLen × plane: the second 3×3 convolution of each stage's blocks.
var ss14Stages = []ConvGeom{
	{InC: 12, InH: 32, InW: 32, OutC: 12, KH: 3, KW: 3, Stride: 1, Pad: 1},
	{InC: 24, InH: 16, InW: 16, OutC: 24, KH: 3, KW: 3, Stride: 1, Pad: 1},
	{InC: 48, InH: 8, InW: 8, OutC: 48, KH: 3, KW: 3, Stride: 1, Pad: 1},
}

// BenchmarkConvTile times DirectConv.Forward on one image at each SS-14
// stage shape, on the zmm and on the ymm tiles, and reports GFLOP/s from
// 2·MACs and its share of BenchmarkPeakMulAdd's peak at the register width
// of the tile that ran (docs/BENCHMARKS.md).
func BenchmarkConvTile(b *testing.B) {
	for _, leg := range convLegs()[:2] {
		for _, g := range ss14Stages {
			if err := g.Validate(); err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/%dx%dx%dsq", leg.name, g.OutC, g.PatchLen(), g.OutW), func(b *testing.B) {
				if leg.missing {
					b.Skipf("no %s tile on this machine", leg.name)
				}
				rng := NewRNG(16)
				var k *DirectConv
				leg.run(func() { k = NewDirectConv(g, rng.Randn(g.PatchLen(), g.OutC).Data, rng.Randn(g.OutC).Data, Epilogue{}) })
				x := rng.Randn(1, g.InC*g.InH*g.InW).Data
				out := make([]float64, g.OutC*g.OutH*g.OutW)
				scratch := make([]float64, k.ScratchLen())
				peak := peakGFLOPS(k.groupWidth())
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k.Forward(out, x, scratch, 1)
				}
				gflops := 2 * float64(g.PatchLen()*g.OutC*g.OutH*g.OutW) * float64(b.N) / b.Elapsed().Seconds() / 1e9
				b.ReportMetric(gflops, "GFLOP/s")
				if peak > 0 {
					b.ReportMetric(100*gflops/peak, "%peak")
				}
			})
		}
	}
}

// peaks caches PeakGFLOPS per width, so every benchmark of one run reads its
// share against the same figure.
var peaks = map[int]float64{}

func peakGFLOPS(lanes int) float64 {
	if _, ok := peaks[lanes]; !ok {
		peaks[lanes] = PeakGFLOPS(lanes)
	}
	return peaks[lanes]
}
