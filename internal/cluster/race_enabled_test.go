//go:build race

package cluster

// raceDetectorEnabled reports whether this test binary was built with the
// race detector, which makes sync.Pool deliberately drop a fraction of Puts
// — so a node's allocation budget cannot hold under -race and
// TestExpertNodeAllocationBudget skips itself (the plain `go test ./...` run
// enforces it).
const raceDetectorEnabled = true
