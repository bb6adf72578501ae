//go:build amd64

package a

// Arch is the amd64 variant.
func Arch() int { return 0 }
