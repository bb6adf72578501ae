//go:build !amd64

package tensor

// peakGFLOPS is 0: there is no measured peak to read a kernel against.
func peakGFLOPS(lanes int) float64 { return 0 }
