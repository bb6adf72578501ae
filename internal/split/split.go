// Package split chooses where to cut a frozen network between a weak local
// device and a stronger peer: the head [0, s) runs locally, the
// intermediate activation ships over the link, and the peer finishes the
// tail [s, N). The chooser combines a static per-boundary profile (FLOPs
// each side of every cut, activation width crossing it — computed once from
// an nn.Snapshot) with live measurements of local compute speed, per-peer
// link throughput and per-peer compute speed, each a Fit: a decaying
// least-squares linear model. The Planner keeps the local fit; each peer's
// two fits belong to the caller's per-peer cost state (in the cluster
// runtime, the one cost estimate every round trip to that peer feeds —
// whole queries and split tails alike) and are handed in on every call.
// Whole-remote (s = 0) and whole-local (s = N) are ordinary candidates, so
// the planner strictly subsumes the binary offload-or-not choice. Decisions
// are cached per batch size and re-planned on a cadence; a peer with no
// compute observation yet is bootstrapped with throttled explore probes.
package split

import (
	"fmt"

	"github.com/teamnet/teamnet/internal/nn"
)

// Boundary is one candidate cut point. Index s means the head is steps
// [0, s) and the tail steps [s, N); Width is the per-sample activation
// width crossing the cut (-1 when the architecture does not pin it, in
// which case the boundary is not a remote candidate). Name is the step
// preceding the cut ("input" for s = 0), so reports read "after conv".
type Boundary struct {
	Index     int     `json:"index"`
	Name      string  `json:"name"`
	HeadFLOPs float64 `json:"head_flops"`
	TailFLOPs float64 `json:"tail_flops"`
	Width     int     `json:"width"`
}

// Profile is the static split profile of one model: every boundary of its
// compiled snapshot with cumulative FLOPs on each side.
type Profile struct {
	Model      string     `json:"model"`
	TotalFLOPs float64    `json:"total_flops"`
	Boundaries []Boundary `json:"boundaries"` // len = Steps()+1
}

// NewProfile computes the static profile of a snapshot.
func NewProfile(snap *nn.Snapshot) Profile {
	costs := snap.LayerCosts()
	total := snap.FLOPs(0, len(costs))
	p := Profile{Model: snap.Label(), TotalFLOPs: total}
	head := 0.0
	for s := 0; s <= len(costs); s++ {
		name := "input"
		if s > 0 {
			name = fmt.Sprintf("%s@%d", costs[s-1].Name, s-1)
		}
		p.Boundaries = append(p.Boundaries, Boundary{
			Index:     s,
			Name:      name,
			HeadFLOPs: head,
			TailFLOPs: total - head,
			Width:     snap.BoundaryWidth(s),
		})
		if s < len(costs) {
			head += costs[s].FLOPs
		}
	}
	return p
}

// Steps returns the number of compiled steps the profile covers.
func (p Profile) Steps() int { return len(p.Boundaries) - 1 }
