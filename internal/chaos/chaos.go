// Package chaos is a stdlib-only TCP fault-injection proxy for exercising
// the cluster runtime under the failure modes real edge WiFi produces
// (Figure 1d's deployment): added latency, stalled links, connection resets,
// mid-frame truncation, byte corruption and periodic connection drops. A
// Proxy sits between master and worker — in unit tests, and behind the
// `teamnet-node -chaos` flag for live drills — forwarding bytes chunk by
// chunk and rolling a seeded die per chunk (or per connection) to decide
// whether to misbehave.
//
// The plan is mutable at runtime: tests inject faults, watch the supervisor
// quarantine the peer, then Heal() the proxy and watch the peer rejoin.
package chaos

import (
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/teamnet/teamnet/internal/metrics"
)

// Mode names one failure behaviour.
type Mode string

const (
	// Latency delays every forwarded chunk by Fault.Delay.
	Latency Mode = "latency"
	// Stall freezes a direction of a connection with probability Prob per
	// chunk: bytes already forwarded stay forwarded, nothing further moves
	// until the connection dies. Models a WiFi link that goes quiet without
	// closing.
	Stall Mode = "stall"
	// Reset abruptly closes the connection with probability Prob per chunk
	// (before forwarding the chunk).
	Reset Mode = "reset"
	// Truncate forwards roughly half of a chunk, then closes — a frame cut
	// mid-payload.
	Truncate Mode = "truncate"
	// Corrupt flips one byte of the chunk with probability Prob.
	Corrupt Mode = "corrupt"
	// DropNth resets every N-th accepted connection at accept time.
	DropNth Mode = "dropnth"
)

// Fault is one entry of a proxy's plan.
type Fault struct {
	Mode  Mode
	Prob  float64       // Stall, Reset, Truncate, Corrupt: per-chunk probability
	Delay time.Duration // Latency: per-chunk delay
	N     int           // DropNth: reset every N-th connection
}

// ParseFault parses one "mode:arg" spec: "latency:50ms", "stall:0.3",
// "reset:0.3", "truncate:0.1", "corrupt:0.05", "dropnth:3".
func ParseFault(spec string) (Fault, error) {
	mode, arg, ok := strings.Cut(spec, ":")
	if !ok {
		return Fault{}, fmt.Errorf("chaos: spec %q is not mode:arg", spec)
	}
	switch Mode(mode) {
	case Latency:
		d, err := time.ParseDuration(arg)
		if err != nil || d < 0 {
			return Fault{}, fmt.Errorf("chaos: latency wants a duration, got %q", arg)
		}
		return Fault{Mode: Latency, Delay: d}, nil
	case Stall, Reset, Truncate, Corrupt:
		p, err := strconv.ParseFloat(arg, 64)
		if err != nil || p < 0 || p > 1 {
			return Fault{}, fmt.Errorf("chaos: %s wants a probability in [0,1], got %q", mode, arg)
		}
		return Fault{Mode: Mode(mode), Prob: p}, nil
	case DropNth:
		n, err := strconv.Atoi(arg)
		if err != nil || n < 1 {
			return Fault{}, fmt.Errorf("chaos: dropnth wants an integer ≥ 1, got %q", arg)
		}
		return Fault{Mode: DropNth, N: n}, nil
	default:
		return Fault{}, fmt.Errorf("chaos: unknown mode %q (latency, stall, reset, truncate, corrupt, dropnth)", mode)
	}
}

// ParsePlan parses a comma-separated list of fault specs. An empty string
// yields an empty (transparent) plan.
func ParsePlan(spec string) ([]Fault, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var plan []Fault
	for _, part := range strings.Split(spec, ",") {
		f, err := ParseFault(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		plan = append(plan, f)
	}
	return plan, nil
}

// Proxy forwards TCP connections to a target address, applying its fault
// plan to each byte chunk. Safe for concurrent use; the plan can change
// while connections are live (new rolls see the new plan).
type Proxy struct {
	target  string
	metrics *metrics.Registry

	mu        sync.Mutex
	plan      []Fault
	rng       *rand.Rand
	ln        net.Listener
	conns     map[net.Conn]struct{}
	connCount int
	closed    bool

	done chan struct{}
	wg   sync.WaitGroup
}

// New returns a proxy that will forward to target under the given plan.
// The fault die is seeded deterministically; use Reseed for variety.
func New(target string, plan ...Fault) *Proxy {
	return &Proxy{
		target:  target,
		plan:    plan,
		rng:     rand.New(rand.NewSource(1)),
		conns:   make(map[net.Conn]struct{}),
		metrics: new(metrics.Registry),
		done:    make(chan struct{}),
	}
}

// Reseed replaces the fault die's seed.
func (p *Proxy) Reseed(seed int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rng = rand.New(rand.NewSource(seed))
}

// SetPlan replaces the fault plan; subsequent chunks and connections roll
// against the new plan.
func (p *Proxy) SetPlan(plan ...Fault) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.plan = append([]Fault(nil), plan...)
}

// Heal clears the plan: the proxy becomes a transparent forwarder.
func (p *Proxy) Heal() { p.SetPlan() }

// Metrics exposes the injection counts ("injected.reset", "injected.stall",
// "conns.accepted", ...).
func (p *Proxy) Metrics() *metrics.Registry { return p.metrics }

// Listen binds the proxy to addr ("127.0.0.1:0" for tests) and serves in
// the background, returning the bound address.
func (p *Proxy) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("chaos: proxy listen %s: %w", addr, err)
	}
	p.mu.Lock()
	p.ln = ln
	p.mu.Unlock()
	p.wg.Add(1)
	go p.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (p *Proxy) acceptLoop(ln net.Listener) {
	defer p.wg.Done()
	for {
		client, err := ln.Accept()
		if err != nil {
			return
		}
		p.metrics.Counter("conns.accepted").Inc()
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			client.Close()
			return
		}
		p.connCount++
		drop := false
		for _, f := range p.plan {
			if f.Mode == DropNth && f.N > 0 && p.connCount%f.N == 0 {
				drop = true
			}
		}
		p.mu.Unlock()
		if drop {
			p.metrics.Counter("injected.dropnth").Inc()
			hardClose(client)
			continue
		}
		p.wg.Add(1)
		go p.serve(client)
	}
}

// serve pumps one client connection to the target and back.
func (p *Proxy) serve(client net.Conn) {
	defer p.wg.Done()
	upstream, err := net.Dial("tcp", p.target)
	if err != nil {
		p.metrics.Counter("conns.upstream_dial_failed").Inc()
		client.Close()
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		client.Close()
		upstream.Close()
		return
	}
	p.conns[client] = struct{}{}
	p.conns[upstream] = struct{}{}
	p.mu.Unlock()

	// connDone closes when either pump ends, releasing a stalled twin.
	connDone := make(chan struct{})
	var once sync.Once
	finish := func() {
		once.Do(func() {
			close(connDone)
			client.Close()
			upstream.Close()
			p.mu.Lock()
			delete(p.conns, client)
			delete(p.conns, upstream)
			p.mu.Unlock()
		})
	}
	var pumps sync.WaitGroup
	pumps.Add(2)
	go func() { defer pumps.Done(); p.pump(upstream, client, connDone, finish) }()
	go func() { defer pumps.Done(); p.pump(client, upstream, connDone, finish) }()
	pumps.Wait()
	finish()
}

// pump copies src→dst chunk by chunk, rolling the fault plan on each chunk.
func (p *Proxy) pump(dst, src net.Conn, connDone chan struct{}, finish func()) {
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			chunk := buf[:n]
			verdict, delay := p.roll(chunk)
			switch verdict {
			case Latency:
				if !waitOrDone(delay, connDone, p.done) {
					finish()
					return
				}
			case Stall:
				p.metrics.Counter("injected.stall").Inc()
				// Go silent: swallow everything further on this direction
				// until an endpoint gives up (peer deadline or proxy close
				// error the read), like a WiFi link that stops delivering.
				for {
					if _, rerr := src.Read(buf); rerr != nil {
						finish()
						return
					}
				}
			case Reset:
				p.metrics.Counter("injected.reset").Inc()
				hardClose(dst)
				finish()
				return
			case Truncate:
				p.metrics.Counter("injected.truncate").Inc()
				cut := n / 2
				if cut == 0 {
					cut = 1
				}
				_, _ = dst.Write(chunk[:cut])
				finish()
				return
			}
			if _, werr := dst.Write(chunk); werr != nil {
				finish()
				return
			}
		}
		if err != nil {
			finish()
			return
		}
	}
}

// roll decides what happens to one chunk: the first fault whose die comes up
// wins; Latency accumulates rather than winning so a plan can be
// "latency:20ms,reset:0.1". Corrupt mutates the chunk in place and lets it
// flow. Returns the winning mode ("" = forward normally) and any delay.
func (p *Proxy) roll(chunk []byte) (Mode, time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var delay time.Duration
	for _, f := range p.plan {
		switch f.Mode {
		case Latency:
			delay += f.Delay
		case Stall, Reset, Truncate:
			if p.rng.Float64() < f.Prob {
				return f.Mode, 0
			}
		case Corrupt:
			if p.rng.Float64() < f.Prob && len(chunk) > 0 {
				chunk[p.rng.Intn(len(chunk))] ^= 0xFF
				p.metrics.Counter("injected.corrupt").Inc()
			}
		}
	}
	if delay > 0 {
		p.metrics.Counter("injected.latency").Inc()
		return Latency, delay
	}
	return "", 0
}

// Close stops the proxy and tears down live connections.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	ln := p.ln
	for conn := range p.conns {
		conn.Close()
	}
	p.mu.Unlock()
	close(p.done)
	var err error
	if ln != nil {
		err = ln.Close()
	}
	p.wg.Wait()
	return err
}

// waitOrDone sleeps d, aborting early (false) when either channel closes.
func waitOrDone(d time.Duration, a, b <-chan struct{}) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-a:
		return false
	case <-b:
		return false
	}
}

// hardClose closes a TCP connection with linger 0 so the peer sees RST, the
// closest a userspace proxy gets to a genuinely dropped link.
func hardClose(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	conn.Close()
}
