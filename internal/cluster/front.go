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
// the hop has the breaker, probes, retries and retry budget a
// worker's has (DESIGN.md §12). The pick is the available peer with the
// least (round trips in flight on its link + 1) × its mean recent round
// trip, an unmeasured peer scored at the fastest measured one's; a peer
// whose stale estimate the request claimed (cost.go) goes first, a struck
// one last, and every other peer is passed over. Any error but the caller's ctx fails over once and strikes the
// peer, as a degraded answer does (emitAttempt); a master's error reply does
// not feed the breaker, as a worker's does not. With every master
// quarantined a request fails fast.

// NewFront returns a master with no local expert that routes each request to
// one of its peers, all of them masters answering classes-wide replies.
func NewFront(classes int) *Master {
	m := NewMaster(nil, classes)
	m.front = true
	return m
}

// errNoMasters answers a front's request when it has no peer at all.
var errNoMasters = errors.New("cluster: front has no masters")

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
		p         *peerConn
		tier      int // 0: claimed by this request, 1: unstruck, 2: struck
		load, rtt int64
	}
	var picks []ranked
	var base int64 // the fastest available peer's mean rtt: an unmeasured one's
	now, claimed := time.Now().UnixNano(), false
	for _, p := range peers {
		if !p.available() {
			continue
		}
		r := ranked{p: p, tier: 1, load: p.link.load.Load() + 1, rtt: int64(p.cost.mean())}
		if r.rtt > 0 && (base == 0 || r.rtt < base) {
			base = r.rtt
		}
		switch {
		case !claimed && p.cost.stamp.claim(now):
			r.tier, claimed = 0, true
		case p.cost.struck.Load():
			r.tier = 2
		}
		picks = append(picks, r)
	}
	if len(picks) == 0 {
		return Reply{}, fmt.Errorf("cluster: all %d masters quarantined", len(peers))
	}
	score := func(r ranked) int64 { return r.load * cmp.Or(r.rtt, base, 1) } // nothing measured: the load alone
	slices.SortStableFunc(picks, func(a, b ranked) int {
		return cmp.Or(cmp.Compare(a.tier, b.tier), cmp.Compare(score(a), score(b)),
			cmp.Compare(a.load, b.load), cmp.Compare(a.rtt, b.rtt))
	})
	for _, r := range picks[1:] {
		r.p.cost.stamp.pass()
	}
	q := queryOf(req, m.classes)
	var err error
	for i, r := range picks[:min(2, len(picks))] {
		if i > 0 {
			m.metrics.Counter("route.failover").Inc()
		}
		m.metrics.Counter("fabric.requests").Inc()
		var rep Reply
		if rep, err = r.p.do(ctx, q, trace.FromContext(ctx)); err == nil {
			return rep, nil
		}
		m.metrics.Counter("fabric.errors").Inc()
		if ctx.Err() != nil {
			break
		}
		r.p.cost.strike()
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
