package cluster

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"github.com/teamnet/teamnet/internal/trace"
)

// A front is the master of a gateway that serves no team of its own: its
// peers are masters, joined with Connect and left with Disconnect, and its
// Do forwards each Request unchanged to one of them through peerConn.do, so
// the hop has the breaker, probes, retries, hedge and retry budget a
// worker's has (DESIGN.md §12). The pick is the available peer with the
// least (round trips in flight on its link + 1) × its mean recent round trip
// (its cost estimate, cost.go); an unmeasured peer is scored at the fastest
// measured one's and goes first among equals. Any error but the caller's ctx
// fails over once and benches the peer behind the others until it next
// succeeds, one request trying it first per errTrial; a master's error reply
// does not strike, as a worker's does not. With every master quarantined a
// request fails fast.

// NewFront returns a master with no local expert that routes each request to
// one of its peers, all of them masters answering classes-wide replies.
func NewFront(classes int) *Master {
	m := NewMaster(nil, classes)
	m.front = true
	return m
}

// errNoMasters answers a front's request when it has no peer at all.
var errNoMasters = errors.New("cluster: front has no masters")

// errTrial is how long a benched master waits between requests that try it
// first.
const errTrial = 300 * time.Millisecond

// route answers req on the best available peer, failing over once. Counters:
// "fabric.requests" (dispatches, failovers included), "fabric.errors" and
// "route.failover".
func (m *Master) route(ctx context.Context, req Request) (Reply, error) {
	if err := ctx.Err(); err != nil {
		return Reply{}, err
	}
	peers := m.snapshotPeers()
	if len(peers) == 0 {
		return Reply{}, errNoMasters
	}
	type ranked struct {
		p                *peerConn
		tier             int // 0: a benched peer's trial, 1: unbenched, 2: benched
		score, load, rtt int64
	}
	var picks []ranked
	var base int64 // the fastest available peer's mean rtt: an unmeasured one's
	for _, p := range peers {
		if !p.available() {
			continue
		}
		r := ranked{p: p, tier: 1, load: p.link.load.Load() + 1, rtt: int64(p.cost.mean())}
		if r.rtt > 0 && (base == 0 || r.rtt < base) {
			base = r.rtt
		}
		picks = append(picks, r)
	}
	if len(picks) == 0 {
		return Reply{}, fmt.Errorf("cluster: all %d masters quarantined", len(peers))
	}
	now, trial := time.Now().UnixNano(), false
	for i := range picks {
		r := &picks[i]
		r.score = r.load * cmp.Or(r.rtt, base, 1) // nothing measured: the load alone
		if at := r.p.benched.Load(); at != 0 {
			r.tier = 2
			if !trial && at <= now && r.p.benched.CompareAndSwap(at, now+int64(errTrial)) {
				r.tier, trial = 0, true
			}
		}
	}
	slices.SortStableFunc(picks, func(a, b ranked) int {
		return cmp.Or(cmp.Compare(a.tier, b.tier), cmp.Compare(a.score, b.score),
			cmp.Compare(a.load, b.load), cmp.Compare(a.rtt, b.rtt))
	})
	q := queryOf(req, m.classes)
	var err error
	for i, r := range picks[:min(2, len(picks))] {
		if i > 0 {
			m.metrics.Counter("route.failover").Inc()
		}
		m.metrics.Counter("fabric.requests").Inc()
		var rep Reply
		if rep, err = r.p.do(ctx, q, trace.FromContext(ctx)); err == nil {
			r.p.benched.Store(0)
			return rep, nil
		}
		m.metrics.Counter("fabric.errors").Inc()
		if ctx.Err() != nil {
			break
		}
		r.p.benched.CompareAndSwap(0, time.Now().Add(errTrial).UnixNano())
	}
	return Reply{}, err
}

// Disconnect drops the peer at addr — a master that left a front's roster —
// and closes its link; requests in flight on it fail promptly. An address
// that is not a peer is a no-op.
func (m *Master) Disconnect(addr string) {
	m.mu.Lock()
	i := slices.IndexFunc(m.peers, func(p *peerConn) bool { return p.addr == addr })
	if i < 0 {
		m.mu.Unlock()
		return
	}
	p := m.peers[i]
	m.peers = slices.Delete(m.peers, i, i+1)
	m.mu.Unlock()
	p.markClosed()
	p.link.close()
}
