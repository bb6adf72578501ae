package cluster

import (
	"math"
	"slices"
	"sync"
	"time"

	"github.com/teamnet/teamnet/internal/split"
)

// peerCost is a peer's one cost estimate (DESIGN.md §6), fed by emitAttempt
// once per successful attempt. A front's pick reads the mean of the recent
// whole-query round trips, the hedge timer their p95, and the split planner
// the link fit (wire bytes → network seconds) and the compute fit (FLOPs →
// compute seconds). The window holds whole queries only — a split tail
// carries another byte and FLOP mix — while the fits take both.
type peerCost struct {
	mu            sync.Mutex
	rtts          [costWindow]time.Duration // ring of the recent whole-query round trips
	n             int                       // whole-query round trips ever observed
	sum           time.Duration             // of those in rtts
	link, compute split.Fit
}

// costWindow is how many recent whole-query round trips the mean and the
// p95 read: a slowed peer's estimate follows within one window.
const costWindow = 20

// observe folds in one successful attempt: its round trip when whole, its
// network share at tm.wire bytes, and the peer's compute for flops FLOPs.
func (c *peerCost) observe(tm attemptTiming, network time.Duration, whole bool, flops float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if whole {
		i := c.n % costWindow
		c.sum += tm.rtt - c.rtts[i]
		c.rtts[i] = tm.rtt
		c.n++
	}
	c.link.Observe(float64(tm.wire), network.Seconds())
	c.compute.Observe(flops, tm.remote.Seconds())
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
