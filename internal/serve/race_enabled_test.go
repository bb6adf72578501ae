//go:build race

package serve

// raceDetectorEnabled reports whether this test binary was built with the
// race detector, which makes sync.Pool deliberately drop a fraction of Puts
// — so ParsePredict's allocation gate cannot hold under -race and skips
// itself (the plain `go test ./...` run enforces it).
const raceDetectorEnabled = true
