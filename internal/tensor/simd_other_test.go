//go:build !amd64

package tensor

// withSIMDOff runs f: the portable kernels are the only ones here.
func withSIMDOff(f func()) { f() }

// peakGFLOPS is 0: there is no measured peak to read a kernel against.
func peakGFLOPS(lanes int) float64 { return 0 }
