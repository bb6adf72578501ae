package split

// Fit is a decaying least-squares fit of y = base + slope·x, the planner's
// uniform cost model: link cost (x = wire bytes, base = latency, slope =
// 1/bandwidth), peer compute (x = FLOPs, base = dispatch/launch overhead,
// slope = 1/throughput — exactly the edgesim GPU shape) and local compute.
// Old observations decay geometrically so the fit tracks drifting links
// without a window buffer. The planner keeps the local fit; a peer's link
// and compute fits are its caller's, handed in as Peer.
type Fit struct {
	n, sx, sy, sxx, sxy float64
}

// fitDecay is the per-observation geometric decay; ~0.98 keeps an
// effective window of about 50 samples.
const fitDecay = 0.98

// Observe folds in one observation: cost y at size x.
func (e *Fit) Observe(x, y float64) {
	e.n *= fitDecay
	e.sx *= fitDecay
	e.sy *= fitDecay
	e.sxx *= fitDecay
	e.sxy *= fitDecay
	e.n++
	e.sx += x
	e.sy += y
	e.sxx += x * x
	e.sxy += x * y
}

// Ready reports whether the fit holds an observation.
func (e Fit) Ready() bool { return e.n > 0 }

// Predict returns the fitted cost at x, clamped to a physical model
// (non-negative base and slope). With no spread in x — all observations at
// one size — the fit degenerates to the mean observed y.
func (e Fit) Predict(x float64) float64 {
	if e.n <= 0 {
		return 0
	}
	mean := e.sy / e.n
	den := e.n*e.sxx - e.sx*e.sx
	// Guard against a numerically-degenerate normal equation (all x equal,
	// or nearly so relative to the magnitudes involved).
	if den <= 1e-12*max(1, e.n*e.sxx) {
		return mean
	}
	slope := (e.n*e.sxy - e.sx*e.sy) / den
	base := (e.sy - slope*e.sx) / e.n
	if slope < 0 {
		slope = 0
		base = mean
	}
	if base < 0 {
		base = 0
	}
	return base + slope*x
}
