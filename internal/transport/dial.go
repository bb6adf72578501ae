package transport

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Dial helpers for the self-healing cluster runtime: bounded-time TCP dials
// and the exponential-backoff-with-jitter schedule the peer supervisor uses
// between redial and probe attempts. Kept in transport so every layer that
// opens sockets (cluster master, election, chaos tooling) shares one dial
// policy.

// Dial connects to a TCP address, bounding the attempt by timeout
// (0 = no bound, plain net.Dial semantics).
func Dial(addr string, timeout time.Duration) (net.Conn, error) {
	var conn net.Conn
	var err error
	if timeout > 0 {
		conn, err = net.DialTimeout("tcp", addr, timeout)
	} else {
		conn, err = net.Dial("tcp", addr)
	}
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return conn, nil
}

// Backoff computes an exponential backoff schedule with full jitter:
// attempt n waits Base·2ⁿ capped at Max, then scaled by a random factor in
// [1-Jitter, 1]. Jitter keeps a fleet of masters from redialing a recovering
// worker in lockstep. The zero value is not useful; use DefaultBackoff or
// fill every field.
type Backoff struct {
	Base   time.Duration // first delay
	Max    time.Duration // cap on the uncapped exponential
	Jitter float64       // fraction of the delay randomized away, in [0, 1)

	mu  sync.Mutex
	rng *rand.Rand
}

// DefaultBackoff is the schedule the cluster supervisor uses when the caller
// does not override it: 25ms, 50ms, 100ms, ... capped at 2s, 20% jitter.
func DefaultBackoff() *Backoff {
	return &Backoff{Base: 25 * time.Millisecond, Max: 2 * time.Second, Jitter: 0.2}
}

// Delay returns the wait before retry attempt n (n ≥ 0). It never returns a
// negative duration and saturates at Max for large n.
func (b *Backoff) Delay(attempt int) time.Duration {
	if attempt < 0 {
		attempt = 0
	}
	d := b.Base
	for i := 0; i < attempt; i++ {
		d *= 2
		if d >= b.Max {
			d = b.Max
			break
		}
	}
	if d > b.Max {
		d = b.Max
	}
	if b.Jitter > 0 {
		b.mu.Lock()
		if b.rng == nil {
			b.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
		}
		f := 1 - b.Jitter*b.rng.Float64()
		b.mu.Unlock()
		d = time.Duration(float64(d) * f)
	}
	return d
}

// Sleep waits Delay(attempt), returning early with false when done closes —
// the supervisor's cancellable inter-attempt wait.
func (b *Backoff) Sleep(attempt int, done <-chan struct{}) bool {
	t := time.NewTimer(b.Delay(attempt))
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-done:
		return false
	}
}
