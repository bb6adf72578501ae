package split

import (
	"sync"
	"time"
)

// Options tunes a Planner.
type Options struct {
	// Replan is how long a computed decision stays cached before Decide
	// recomputes it from the fits' current state. Default 1s.
	Replan time.Duration
	// WireBytes returns the round-trip wire cost (request + response) of
	// shipping a batch whose activation is width floats per row across a
	// boundary. Defaults to the raw float64 payload size.
	WireBytes func(batch, width int) int
}

func (o Options) normalized() Options {
	if o.Replan <= 0 {
		o.Replan = time.Second
	}
	if o.WireBytes == nil {
		o.WireBytes = func(batch, width int) int { return 8 * batch * width }
	}
	return o
}

// Decision is the planner's choice for one batch size. Split == Steps()
// with an empty Peer means run everything locally; Split == 0 ships the raw
// input (whole-query offload); anything between is a partial offload.
// Explore marks a probe toward a peer whose costs are stale or were never
// measured rather than a cost-ranked choice.
type Decision struct {
	Split        int     `json:"split"`
	Peer         string  `json:"peer,omitempty"`
	PredictedSec float64 `json:"predicted_sec"`
	Explore      bool    `json:"explore,omitempty"`
}

// Peer is one peer's live cost state as the planner reads it: its link fit
// (wire bytes → network seconds) and compute fit (FLOPs → compute seconds),
// kept by the caller, which feeds them from every round trip it makes to
// the peer and knows how old they are.
type Peer struct {
	Addr          string
	Link, Compute Fit
	Probe         bool // the fits are stale or unmeasured, and the caller claimed their probe
}

// Planner chooses split points online from the local compute fit it keeps
// and the peers' fits each call hands it. All methods are safe for
// concurrent use.
type Planner struct {
	mu        sync.Mutex
	prof      Profile
	opt       Options
	local     Fit
	plan      Decision
	planBatch int
	planned   time.Time
	haveNow   func() time.Time // test seam
}

// New builds a planner over a model's static profile.
func New(prof Profile, opt Options) *Planner {
	return &Planner{
		prof:    prof,
		opt:     opt.normalized(),
		haveNow: time.Now,
	}
}

// Profile returns the static profile the planner was built over.
func (p *Planner) Profile() Profile { return p.prof }

// ObserveLocal records a local head execution: flops is the batch-total
// FLOP count executed, d the wall time it took.
func (p *Planner) ObserveLocal(flops float64, d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.local.Observe(flops, d.Seconds())
}

// Decide returns the current plan for a batch over peers, recomputing it
// when the batch differs from the cached plan's or the plan is older than
// Replan. A peer marked for a probe preempts the cached plan with a
// whole-remote Explore decision, so its fits get fresh samples.
func (p *Planner) Decide(batch int, peers []Peer) Decision {
	for _, pr := range peers {
		if pr.Probe {
			return Decision{Split: 0, Peer: pr.Addr, Explore: true}
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.haveNow()
	if !p.planned.IsZero() && batch == p.planBatch && now.Sub(p.planned) < p.opt.Replan {
		return p.plan
	}
	return p.planLocked(batch, peers, now)
}

// Plan recomputes the decision immediately, bypassing the cache (a Probe
// mark is not read).
func (p *Planner) Plan(batch int, peers []Peer) Decision {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.planLocked(batch, peers, p.haveNow())
}

func (p *Planner) planLocked(batch int, peers []Peer, now time.Time) Decision {
	p.plan, p.planBatch, p.planned = p.bestLocked(batch, peers), batch, now
	return p.plan
}

// bestLocked ranks every (peer, boundary) candidate plus whole-local, peers
// in the order given, so an equal-cost tie goes to the earlier peer.
// Without a local compute fit there is nothing to rank against, so the
// planner stays whole-local until the first local observation (which the
// whole-local execution itself provides).
func (p *Planner) bestLocked(batch int, peers []Peer) Decision {
	n := p.prof.Steps()
	best := Decision{Split: n, PredictedSec: p.local.Predict(p.prof.TotalFLOPs * float64(batch))}
	if !p.local.Ready() {
		return best
	}
	for _, pr := range peers {
		if !pr.Compute.Ready() && !pr.Link.Ready() {
			continue
		}
		for _, b := range p.prof.Boundaries {
			if b.Index == n || b.Width < 0 {
				continue // whole-local handled above; unpinned widths can't ship
			}
			if c := p.candidateLocked(pr, b, batch); c.TotalSec < best.PredictedSec {
				best = Decision{Split: b.Index, Peer: pr.Addr, PredictedSec: c.TotalSec}
			}
		}
	}
	return best
}

// candidateLocked prices cutting at b and shipping the tail to pr.
func (p *Planner) candidateLocked(pr Peer, b Boundary, batch int) CandidateCost {
	wire := p.opt.WireBytes(batch, b.Width)
	c := CandidateCost{Split: b.Index, Name: b.Name, WireBytes: wire}
	if b.HeadFLOPs > 0 {
		c.HeadSec = p.local.Predict(b.HeadFLOPs * float64(batch))
	}
	c.NetSec = pr.Link.Predict(float64(wire))
	c.TailSec = pr.Compute.Predict(b.TailFLOPs * float64(batch))
	c.TotalSec = c.HeadSec + c.NetSec + c.TailSec
	return c
}

// CandidateCost is one row of the Report table: the predicted cost
// breakdown of cutting at Split and shipping to one peer.
type CandidateCost struct {
	Split     int     `json:"split"`
	Name      string  `json:"name"`
	HeadSec   float64 `json:"head_sec"`
	NetSec    float64 `json:"net_sec"`
	TailSec   float64 `json:"tail_sec"`
	TotalSec  float64 `json:"total_sec"`
	WireBytes int     `json:"wire_bytes"`
}

// PeerReport is the full candidate table for one peer.
type PeerReport struct {
	Addr       string          `json:"addr"`
	Measured   bool            `json:"measured"` // its fits hold an observation
	Candidates []CandidateCost `json:"candidates"`
}

// Report is the admin-view snapshot of the planner's cost model, exposed at
// /splitplan.
type Report struct {
	Model         string       `json:"model"`
	Batch         int          `json:"batch"`
	LocalReady    bool         `json:"local_ready"`
	WholeLocalSec float64      `json:"whole_local_sec"`
	Peers         []PeerReport `json:"peers"`
	Decision      Decision     `json:"decision"`
}

// Report computes the full candidate table for a batch over peers without
// touching the decision cache or reading a Probe mark.
func (p *Planner) Report(batch int, peers []Peer) Report {
	p.mu.Lock()
	defer p.mu.Unlock()
	r := Report{
		Model:         p.prof.Model,
		Batch:         batch,
		LocalReady:    p.local.Ready(),
		WholeLocalSec: p.local.Predict(p.prof.TotalFLOPs * float64(batch)),
		Decision:      p.bestLocked(batch, peers),
	}
	n := p.prof.Steps()
	for _, pr := range peers {
		rep := PeerReport{Addr: pr.Addr, Measured: pr.Compute.Ready() || pr.Link.Ready()}
		for _, b := range p.prof.Boundaries {
			if b.Index == n || b.Width < 0 {
				continue
			}
			rep.Candidates = append(rep.Candidates, p.candidateLocked(pr, b, batch))
		}
		r.Peers = append(r.Peers, rep)
	}
	return r
}
