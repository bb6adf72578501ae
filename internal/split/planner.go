package split

import (
	"sort"
	"sync"
	"time"
)

// Options tunes a Planner.
type Options struct {
	// Replan is how long a computed decision stays cached before Decide
	// recomputes it from fresh estimator state. Default 1s.
	Replan time.Duration
	// ProbeEvery throttles explore probes toward peers with no compute
	// measurements yet. Default 5s.
	ProbeEvery time.Duration
	// WireBytes returns the round-trip wire cost (request + response) of
	// shipping a batch whose activation is width floats per row across a
	// boundary. Defaults to the raw float64 payload size.
	WireBytes func(batch, width int) int
}

func (o Options) normalized() Options {
	if o.Replan <= 0 {
		o.Replan = time.Second
	}
	if o.ProbeEvery <= 0 {
		o.ProbeEvery = 5 * time.Second
	}
	if o.WireBytes == nil {
		o.WireBytes = func(batch, width int) int { return 8 * batch * width }
	}
	return o
}

// Decision is the planner's choice for one batch size. Split == Steps()
// with an empty Peer means run everything locally; Split == 0 ships the raw
// input (whole-query offload); anything between is a partial offload.
// Explore marks a bootstrap probe toward an unmeasured peer rather than a
// cost-ranked choice.
type Decision struct {
	Split        int     `json:"split"`
	Peer         string  `json:"peer,omitempty"`
	PredictedSec float64 `json:"predicted_sec"`
	Explore      bool    `json:"explore,omitempty"`
}

// peerModel is the live cost state for one peer: link (bytes → seconds)
// and compute (FLOPs → seconds) fits, plus probe bookkeeping.
type peerModel struct {
	link, comp estimator
	lastProbe  time.Time
}

// Planner chooses split points online. All methods are safe for concurrent
// use.
type Planner struct {
	mu      sync.Mutex
	prof    Profile
	opt     Options
	local   estimator
	peers   map[string]*peerModel
	plan    Decision
	planned time.Time
	haveNow func() time.Time // test seam
}

// New builds a planner over a model's static profile.
func New(prof Profile, opt Options) *Planner {
	return &Planner{
		prof:    prof,
		opt:     opt.normalized(),
		peers:   make(map[string]*peerModel),
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
	p.local.observe(flops, d.Seconds())
}

// ObservePeer records a completed remote tail: compute is the peer's
// self-timed execution of flops batch-total FLOPs, net the round-trip time
// minus compute for wireBytes bytes on the wire.
func (p *Planner) ObservePeer(addr string, flops float64, compute time.Duration, wireBytes int, net time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := p.peer(addr)
	m.comp.observe(flops, compute.Seconds())
	m.link.observe(float64(wireBytes), net.Seconds())
}

// SeedPeer primes an unmeasured peer from an external source (the cluster
// seeds from whole-query trace histograms). A no-op once the peer has real
// observations, so seeding never fights live measurements.
func (p *Planner) SeedPeer(addr string, flops float64, compute time.Duration, wireBytes int, net time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := p.peer(addr)
	if m.comp.ready() || m.link.ready() {
		return
	}
	m.comp.observe(flops, compute.Seconds())
	m.link.observe(float64(wireBytes), net.Seconds())
}

// EnsurePeer registers a peer with no cost state yet, so Decide's probe
// scan can find it before any traffic has flowed — without this a peer the
// caller knows about but has never measured would be invisible to the
// planner and never get its bootstrap probe.
func (p *Planner) EnsurePeer(addr string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.peer(addr)
}

func (p *Planner) peer(addr string) *peerModel {
	m := p.peers[addr]
	if m == nil {
		m = &peerModel{}
		p.peers[addr] = m
	}
	return m
}

// Decide returns the current plan for a batch, recomputing at most every
// Replan. An unmeasured peer due for a probe preempts the cached plan with
// a whole-remote Explore decision so its link and compute fits get their
// first samples.
func (p *Planner) Decide(batch int) Decision {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.haveNow()
	for _, addr := range p.peerAddrsLocked() {
		m := p.peers[addr]
		if !m.comp.ready() && now.Sub(m.lastProbe) >= p.opt.ProbeEvery {
			m.lastProbe = now
			return Decision{Split: 0, Peer: addr, Explore: true}
		}
	}
	if now.Sub(p.planned) < p.opt.Replan && !p.planned.IsZero() {
		return p.plan
	}
	p.plan = p.bestLocked(batch)
	p.planned = now
	return p.plan
}

// Plan recomputes the decision immediately, bypassing the cache (probes
// are not considered).
func (p *Planner) Plan(batch int) Decision {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.plan = p.bestLocked(batch)
	p.planned = p.haveNow()
	return p.plan
}

// bestLocked ranks every (peer, boundary) candidate plus whole-local.
// Without a local compute fit there is nothing to rank against, so the
// planner stays whole-local until the first local observation (which the
// whole-local execution itself provides).
func (p *Planner) bestLocked(batch int) Decision {
	n := p.prof.Steps()
	best := Decision{Split: n, PredictedSec: p.local.predict(p.prof.TotalFLOPs * float64(batch))}
	if !p.local.ready() {
		return best
	}
	for _, addr := range p.peerAddrsLocked() {
		m := p.peers[addr]
		if !m.comp.ready() && !m.link.ready() {
			continue
		}
		for _, b := range p.prof.Boundaries {
			if b.Index == n || b.Width < 0 {
				continue // whole-local handled above; unpinned widths can't ship
			}
			t := p.candidateLocked(m, b, batch)
			if t < best.PredictedSec {
				best = Decision{Split: b.Index, Peer: addr, PredictedSec: t}
			}
		}
	}
	return best
}

// peerAddrsLocked returns peer addresses in sorted order so ranking and
// reporting are deterministic (map iteration order would make equal-cost
// ties flap between replans).
func (p *Planner) peerAddrsLocked() []string {
	addrs := make([]string, 0, len(p.peers))
	for addr := range p.peers {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	return addrs
}

func (p *Planner) candidateLocked(m *peerModel, b Boundary, batch int) float64 {
	t := 0.0
	if b.HeadFLOPs > 0 {
		t += p.local.predict(b.HeadFLOPs * float64(batch))
	}
	t += m.link.predict(float64(p.opt.WireBytes(batch, b.Width)))
	t += m.comp.predict(b.TailFLOPs * float64(batch))
	return t
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
	Measured   bool            `json:"measured"` // real (non-seed) data may still be pending
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

// Report computes the full candidate table for a batch size without
// touching the decision cache.
func (p *Planner) Report(batch int) Report {
	p.mu.Lock()
	defer p.mu.Unlock()
	r := Report{
		Model:         p.prof.Model,
		Batch:         batch,
		LocalReady:    p.local.ready(),
		WholeLocalSec: p.local.predict(p.prof.TotalFLOPs * float64(batch)),
		Decision:      p.bestLocked(batch),
	}
	n := p.prof.Steps()
	for _, addr := range p.peerAddrsLocked() {
		m := p.peers[addr]
		pr := PeerReport{Addr: addr, Measured: m.comp.ready() || m.link.ready()}
		for _, b := range p.prof.Boundaries {
			if b.Index == n || b.Width < 0 {
				continue
			}
			wire := p.opt.WireBytes(batch, b.Width)
			c := CandidateCost{Split: b.Index, Name: b.Name, WireBytes: wire}
			if b.HeadFLOPs > 0 {
				c.HeadSec = p.local.predict(b.HeadFLOPs * float64(batch))
			}
			c.NetSec = m.link.predict(float64(wire))
			c.TailSec = m.comp.predict(b.TailFLOPs * float64(batch))
			c.TotalSec = c.HeadSec + c.NetSec + c.TailSec
			pr.Candidates = append(pr.Candidates, c)
		}
		r.Peers = append(r.Peers, pr)
	}
	return r
}
