package cluster

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/teamnet/teamnet/internal/split"
)

// peerCost is a peer's one cost estimate (DESIGN.md §6), fed by emitAttempt
// once per successful attempt. A front's pick reads the mean of the recent
// whole-query round trips, the hedge timer their p95, and the split planner
// the link fit (wire bytes → network seconds) and the compute fit (FLOPs →
// compute seconds). The window holds whole queries only — a split tail
// carries another byte and FLOP mix — while the fits take both. The stamp
// dates the newest sample or strike (a failure), and the one exploration
// rule reads it (age). The first sample after a claim of a stale estimate or
// after a strike restarts the window, so an outlier from before cannot
// outlive it.
type peerCost struct {
	mu            sync.Mutex
	rtts          [costWindow]time.Duration // ring of the recent whole-query round trips
	n             int                       // whole-query round trips since the window restarted
	sum           time.Duration             // of those in rtts
	link, compute split.Fit
	stamp         age
	struck        atomic.Bool // the newest evidence is a failure
}

// costWindow is how many recent whole-query round trips the mean and the
// p95 read: a slowed peer's estimate follows within one window.
const costWindow = 20

// costHorizon is how long evidence about a peer stays fresh, however much
// traffic passes it over.
const costHorizon = 300 * time.Millisecond

// age is the one exploration rule. It dates a peer's newest evidence of one
// kind in unix nanoseconds, negated for a claim, 0 before any, and counts
// the chances its caller passed the peer over since. Evidence or a claim is
// stale once it is older than costHorizon and costWindow chances have passed
// the peer over — a window of traffic that went elsewhere, so a peer whose
// traffic is merely sparse is not stale. One caller claims stale evidence
// (none at all is stale at once) and re-measures the peer with the request
// it already has.
type age struct {
	at     atomic.Int64
	passed atomic.Int64
}

// mark dates fresh evidence and returns what the age held before.
func (a *age) mark(now int64) int64 {
	a.passed.Store(0)
	return a.at.Swap(now)
}

// pass counts one chance the caller gave another peer.
func (a *age) pass() { a.passed.Add(1) }

// claim reports whether this caller won stale evidence's one trial.
func (a *age) claim(now int64) bool {
	at := a.at.Load()
	stale := at == 0 || now-max(at, -at) >= int64(costHorizon) && a.passed.Load() >= costWindow
	if stale && a.at.CompareAndSwap(at, -now) {
		a.passed.Store(0)
		return true
	}
	return false
}

// observe folds in one successful attempt: its round trip when whole, its
// network share at tm.wire bytes, and the peer's compute for flops FLOPs.
func (c *peerCost) observe(tm attemptTiming, network time.Duration, whole bool, flops float64) {
	now := time.Now().UnixNano()
	c.mu.Lock()
	defer c.mu.Unlock()
	prev, struck := c.stamp.mark(now), c.struck.Swap(false)
	if struck || prev <= 0 { // after a strike or a claim
		c.rtts, c.n, c.sum = [costWindow]time.Duration{}, 0, 0
	}
	if whole {
		i := c.n % costWindow
		c.sum += tm.rtt - c.rtts[i]
		c.rtts[i] = tm.rtt
		c.n++
	}
	c.link.Observe(float64(tm.wire), network.Seconds())
	c.compute.Observe(flops, tm.remote.Seconds())
}

// strike dates a failure of the peer.
func (c *peerCost) strike() {
	c.struck.Store(true)
	c.stamp.mark(time.Now().UnixNano())
}

// mean is the mean recent round trip, 0 before the first.
func (c *peerCost) mean() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sum / time.Duration(max(min(c.n, costWindow), 1))
}

// quantile is the q-quantile (nearest rank) of the recent round trips, and
// how many there are.
func (c *peerCost) quantile(q float64) (time.Duration, int) {
	c.mu.Lock()
	rtts, n := c.rtts, min(c.n, costWindow)
	c.mu.Unlock()
	if n == 0 {
		return 0, 0
	}
	slices.Sort(rtts[:n])
	return rtts[int(math.Ceil(q*float64(n)))-1], n
}
