//go:build !race

package serve

// raceDetectorEnabled: see race_enabled_test.go.
const raceDetectorEnabled = false
