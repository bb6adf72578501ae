package nn

// FLOP accounting. The edge-device simulator (internal/edgesim) models
// inference latency as FLOPs / device-throughput; these counters walk the
// architecture and report the per-sample cost of one forward pass, plus the
// peak activation footprint that feeds the memory model.

// LayerFLOPs returns the multiply-accumulate-dominated floating-point
// operation count of one layer's forward pass for a single sample.
func LayerFLOPs(l Layer) float64 {
	switch v := l.(type) {
	case *Dense:
		return 2 * float64(v.In()) * float64(v.Out())
	case *Conv2D:
		g := v.Geom
		return 2 * float64(g.PatchLen()) * float64(g.OutC) * float64(g.OutH*g.OutW)
	case *BatchNorm:
		return 4 * float64(v.C*v.S)
	case *ShakeShake:
		total := NetworkFLOPs(v.Branch1) + NetworkFLOPs(v.Branch2)
		if v.Skip != nil {
			total += LayerFLOPs(v.Skip)
		}
		return total + 3*branchOutputSize(v) // the mixing adds
	case *MaxPool2D:
		return float64(v.C * v.H * v.W)
	case *GlobalAvgPool:
		return float64(v.C * v.H * v.W)
	case *ReLU, *Tanh:
		return 0 // negligible next to the matmuls; counted as free
	default:
		return 0
	}
}

// branchOutputSize estimates a Shake-Shake block's output element count
// from its first branch's final layer.
func branchOutputSize(s *ShakeShake) float64 {
	layers := s.Branch1.Layers
	for i := len(layers) - 1; i >= 0; i-- {
		switch v := layers[i].(type) {
		case *Conv2D:
			return float64(v.OutFeatures())
		case *BatchNorm:
			return float64(v.C * v.S)
		case *Dense:
			return float64(v.Out())
		}
	}
	return 0
}

// NetworkFLOPs returns the per-sample forward cost of a whole network.
func NetworkFLOPs(n *Network) float64 {
	total := 0.0
	for _, l := range n.Layers {
		total += LayerFLOPs(l)
	}
	return total
}

// PeakActivationBytes returns the largest activation a forward pass
// materializes between top-level layers for one sample of inputDim
// features, assuming float32 deployment: the widest step boundary of the
// network's compiled snapshot.
func PeakActivationBytes(n *Network, inputDim int) int64 {
	peak := inputDim
	for _, w := range MustSnapshot(n).widths {
		peak = max(peak, w)
	}
	return int64(peak) * 4
}
