// Package b's test calls into package a.
package b

// Value is read from main.
var Value = 7
