//go:build linux

package tensor

import (
	"fmt"
	"math"
	"syscall"
	"testing"
	"unsafe"
)

// guarded returns n > 0 float64s whose last element ends on a PROT_NONE page:
// one element read or written past the slice faults instead of landing in
// whatever the heap put next.
func guarded(t *testing.T, n int) []float64 {
	t.Helper()
	page := syscall.Getpagesize()
	size := (n*8+page-1)/page*page + page
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // test teardown; nothing to do about a failed unmap
	if err := syscall.Mprotect(mem[size-page:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&mem[size-page-n*8])), n)
}

// TestConvDirectStaysInsideItsSlices runs DirectConv with the input, the
// padded-image scratch and the output each flush against an unmapped page,
// under each tile set. The assembly tiles check no bounds; this is the proof
// that the offsets Forward hands them stay inside slices of exactly the
// documented lengths — across full tiles, the overlapped last group of a
// row, rows under four wide (which read their three surplus pixels from
// ScratchLen's slack), channel remainders and the odd group paired with
// itself, and for the zmm tile, whose 64-byte loads reach furthest right,
// rows of exactly eight and of 8k±1 pixels; and, with a batch-norm and ReLU
// epilogue, ForwardPadded from a padded input into the next convolution's
// padded image, each flush against its guard.
func TestConvDirectStaysInsideItsSlices(t *testing.T) {
	for _, leg := range convLegs() {
		t.Run(leg.name, func(t *testing.T) {
			if leg.missing {
				t.Skipf("no %s tile on this machine", leg.name)
			}
			leg.run(func() { checkGuarded(t) })
		})
	}
}

// checkGuarded is one leg of TestConvDirectStaysInsideItsSlices.
func checkGuarded(t *testing.T) {
	geoms := append([]ConvGeom{
		{InC: 3, InH: 32, InW: 32, OutC: 12, KH: 3, KW: 3, Stride: 1, Pad: 1}, // SS-14 stem
		{InC: 2, InH: 3, InW: 9, OutC: 6, KH: 3, KW: 3, Stride: 1, Pad: 1},    // overlapped group, odd group count, channel remainder
		{InC: 2, InH: 2, InW: 2, OutC: 8, KH: 3, KW: 3, Stride: 1, Pad: 1},    // 2-wide rows
		{InC: 3, InH: 1, InW: 1, OutC: 5, KH: 1, KW: 1, Stride: 1},            // unpadded single pixel
		{InC: 1, InH: 4, InW: 3, OutC: 4, KH: 3, KW: 3, Stride: 1},            // unpadded, 1-wide output
		{InC: 2, InH: 7, InW: 5, OutC: 3, KH: 3, KW: 3, Stride: 2, Pad: 1},    // portable tile
		{InC: 1, InH: 6, InW: 33, OutC: 4, KH: 5, KW: 5, Stride: 1, Pad: 2},
		{InC: 2, InH: 3, InW: 8, OutC: 4, KH: 1, KW: 1, Stride: 1},          // unpadded, one 8-pixel group per row
		{InC: 1, InH: 4, InW: 17, OutC: 5, KH: 3, KW: 3, Stride: 1},         // unpadded 15-wide output, channel remainder
		{InC: 2, InH: 3, InW: 17, OutC: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}, // 8k+1, odd group count
		{InC: 1, InH: 5, InW: 24, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}, // three groups a row
	}, ss14Stages...)
	rng := NewRNG(17)
	for _, g := range geoms {
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		const batch = 2
		w := rng.Randn(g.PatchLen(), g.OutC)
		b := rng.Randn(g.OutC)
		k := NewDirectConv(g, w.Data, b.Data, Epilogue{})
		x := guarded(t, batch*g.InC*g.InH*g.InW)
		copy(x, rng.Randn(1, len(x)).Data)
		out := guarded(t, batch*g.OutC*g.OutH*g.OutW)
		k.Forward(out, x, guarded(t, k.ScratchLen()), batch)

		want := convReference(&Tensor{Data: x, Shape: []int{batch, g.InC * g.InH * g.InW}}, g, w, b)
		for i := range want {
			if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%+v: out[%d] differs from the reference", g, i)
			}
		}

		// The padded-output mode, with an epilogue: a padded input and the
		// next convolution's padded image, each flush against its guard.
		ep := Epilogue{Mean: rng.Randn(g.OutC).Data, InvStd: rng.Randn(g.OutC).Data, Gamma: rng.Randn(g.OutC).Data, Beta: rng.Randn(g.OutC).Data, ReLU: true}
		fused := NewDirectConv(g, w.Data, b.Data, ep)
		ng := ConvGeom{InC: g.OutC, InH: g.OutH, InW: g.OutW, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
		if err := ng.Validate(); err != nil {
			t.Fatal(err)
		}
		next := NewDirectConv(ng, make([]float64, ng.PatchLen()*4), make([]float64, 4), Epilogue{})
		padded, dst := guarded(t, fused.PaddedLen()), guarded(t, next.PaddedLen())
		fused.Pad(padded, x)
		fused.ForwardPadded(dst, padded, next)
		sweeps(want, g, ep)
		wantPadded := make([]float64, next.PaddedLen())
		next.Pad(wantPadded, want)
		sameBits(t, fmt.Sprintf("guarded padded output %+v", g), dst, wantPadded)
	}
}

// TestStepKernelsStayInsideTheirSlices runs AffineInto, MaxPoolInto and
// MixHalvesInto with every input and output flush against an unmapped page:
// their vector bodies check no bounds, so this is the proof that the last
// vector of a slice, and of a pool's last row pair, ends inside it.
func TestStepKernelsStayInsideTheirSlices(t *testing.T) {
	rng := NewRNG(29)
	for n := 1; n <= 67; n++ {
		src, dst := guarded(t, n), guarded(t, n)
		copy(src, rng.Randn(n).Data)
		want := make([]float64, n)
		for i, x := range src {
			want[i] = -1.25*((x-0.5)*2) + 0.75
		}
		AffineInto(dst, src, 0.5, 2, -1.25, 0.75)
		sameBits(t, fmt.Sprintf("guarded AffineInto n=%d", n), dst, want)

		b, r := guarded(t, n), guarded(t, n)
		copy(b, rng.Randn(n).Data)
		copy(r, rng.Randn(n).Data)
		for i := range want {
			want[i] = (src[i]*0.5 + b[i]*0.5) + r[i]
		}
		MixHalvesInto(dst, src, b, r)
		sameBits(t, fmt.Sprintf("guarded MixHalvesInto n=%d", n), dst, want)
	}
	for _, c := range poolCases {
		if c.planes*c.h*c.w == 0 {
			continue
		}
		src := guarded(t, c.planes*c.h*c.w)
		copy(src, poolInput(c, rng))
		want := maxPoolReference(src, c)
		dst := guarded(t, len(want))
		MaxPoolInto(dst, src, c.planes, c.h, c.w, c.k)
		sameBits(t, fmt.Sprintf("guarded MaxPoolInto %+v", c), dst, want)
	}
}
