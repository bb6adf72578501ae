//go:build !race

package cluster

// raceDetectorEnabled: see race_enabled_test.go.
const raceDetectorEnabled = false
