//go:build !amd64

package tensor

// withSIMDOff runs f: the portable kernels are the only ones here.
func withSIMDOff(f func()) { f() }
