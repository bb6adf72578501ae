package main

import (
	"bytes"
	"fmt"
	"math"
	"os"

	"github.com/teamnet/teamnet/internal/core"
	"github.com/teamnet/teamnet/internal/tensor"
)

// The oracle is the in-process reference the fleet's answers are held to:
// the same bundle, loaded with core.LoadTeam and evaluated with
// Team.Predict (core.EntropyMatrix only to judge a near-tie). This file and
// probes.go are the benchmark's whole internal/ surface.
type oracle struct {
	team *core.Team
}

func loadOracle(bundle string) (*oracle, error) {
	raw, err := os.ReadFile(bundle)
	if err != nil {
		return nil, err
	}
	team, err := core.LoadTeam(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", bundle, err)
	}
	return &oracle{team: team}, nil
}

const (
	probTol    = 1e-5 // remote experts answer in float32
	entropyTol = 1e-5
	tieTol     = 1e-6 // remote experts see a float32-rounded input
)

// check compares one reply with the reference on the same rows. It returns
// "" on agreement: per row the same winner (or a reference tie between the
// two experts within tieTol), probs and entropy within tolerance.
func (o *oracle) check(x *tensor.Tensor, pr *predictResponse) string {
	probs, winners := o.team.Predict(x)
	var h *tensor.Tensor
	var perExpert []*tensor.Tensor
	for r := range pr.Probs {
		want := probs.RowSlice(r)
		if w := pr.Winners[r]; w != winners[r] {
			if w < 0 || w >= o.team.K() {
				return fmt.Sprintf("row %d: winner %d out of range", r, w)
			}
			if h == nil {
				h, perExpert = core.EntropyMatrix(o.team.Experts, x)
			}
			if d := math.Abs(h.At(r, w) - h.At(r, winners[r])); d > tieTol {
				return fmt.Sprintf("row %d: winner %d, reference %d (entropies %.3g apart)", r, w, winners[r], d)
			}
			want = perExpert[w].RowSlice(r)
		}
		if len(pr.Probs[r]) != len(want) {
			return fmt.Sprintf("row %d: %d classes, reference %d", r, len(pr.Probs[r]), len(want))
		}
		entropy := 0.0
		for c, p := range want {
			if d := math.Abs(pr.Probs[r][c] - p); d > probTol || math.IsNaN(d) {
				return fmt.Sprintf("row %d class %d: prob %.9g, reference %.9g", r, c, pr.Probs[r][c], p)
			}
			if p > 0 {
				entropy -= p * math.Log(p)
			}
		}
		if d := math.Abs(pr.Entropy[r] - entropy); d > entropyTol || math.IsNaN(d) {
			return fmt.Sprintf("row %d: entropy %.9g, reference %.9g", r, pr.Entropy[r], entropy)
		}
	}
	return ""
}

// verify runs the oracle over the round's sampled replies. It is called
// after the fleet has stopped, so the reference forward passes never compete
// with it for the cores. A mismatch turns the request into a failed one.
func (o *oracle) verify(r *roundResult, seed int64) {
	for i := range r.requests {
		q := &r.requests[i]
		if q.resp == nil {
			continue
		}
		x := tensor.New(r.wl.rows, r.wl.features)
		rowValues(x.Data, seed, q.id, r.wl.features)
		if msg := o.check(x, q.resp); msg != "" {
			q.fail = "oracle: " + msg
		}
		r.verified++
	}
	r.summarize()
}
