//go:build !amd64

package a

// Arch is the portable variant; it alone calls portable.
func Arch() int { return portable() + int(Second) }

func portable() int { return 6 }
