// Package a holds one declaration for each case of the reachability rule.
package a

// Used is called from main.
func Used() int { return 1 }

// Unused has no caller.
func Unused() int { return helper() }

// helper is called only from Unused.
func helper() int { return 2 }

// OnlyOwnTest is called only from this package's test.
func OnlyOwnTest() int { return 3 }

// OtherTest is called from package b's test.
func OtherTest() int { return 4 }

// T reaches fmt.Println from main.
type T struct{}

// String satisfies fmt.Stringer.
func (T) String() string { return "t" }

// Baseline is allowlisted; its helper stays with it.
func Baseline() int { return baselineHelper() }

func baselineHelper() int { return 5 }

// Kind numbers with iota: Second keeps First, which it follows.
type Kind int

const (
	First Kind = iota
	Second
)
