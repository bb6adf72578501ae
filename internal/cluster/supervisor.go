package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/teamnet/teamnet/internal/metrics"
	"github.com/teamnet/teamnet/internal/trace"
	"github.com/teamnet/teamnet/internal/transport"
)

// Peer supervision: the self-healing half of the cluster runtime. The paper
// deploys TeamNet over edge WiFi (Fig 1d, §V), where links stall, reset and
// come back; a master that treats a peer as immortal turns one flaky node
// into a permanently poisoned slot. Each peer therefore runs a small state
// machine:
//
//	healthy ──failure──▶ suspect ──threshold──▶ open (quarantined)
//	   ▲                    │                     │ probe ping
//	   └──────success───────┘      half-open ◀────┘
//	   └─────────────── probe success ────────────┘
//
// Healthy and suspect peers are routed; an open peer is skipped by a
// best-effort or quorum Request and fails a strict one fast. A background
// probe redials and pings the quarantined peer on an exponential-backoff-
// with-jitter schedule and re-admits it on the first answered ping, whose
// link becomes the peer's — so a worker that reboots, or a WiFi link that
// heals, rejoins rotation without anyone restarting the master. Pings, like
// queries, ride the peer's one mux link (mux.go).

// PeerState is one node of the supervision state machine.
type PeerState int32

const (
	// PeerHealthy: routed, no recent failures.
	PeerHealthy PeerState = iota
	// PeerSuspect: routed, but accumulating consecutive failures; redials
	// happen in-line with bounded retries.
	PeerSuspect
	// PeerOpen: circuit open — quarantined, skipped by routing, being
	// probed in the background.
	PeerOpen
	// PeerHalfOpen: a probe is in flight; still not routed.
	PeerHalfOpen
)

func (s PeerState) String() string {
	switch s {
	case PeerHealthy:
		return "healthy"
	case PeerSuspect:
		return "suspect"
	case PeerOpen:
		return "open"
	case PeerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("PeerState(%d)", int32(s))
	}
}

// MarshalJSON renders the state by name, so /healthz reports "open"
// rather than an opaque enum ordinal.
func (s PeerState) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// SupervisorConfig tunes the peer lifecycle. The zero value means "use the
// defaults" for every field.
type SupervisorConfig struct {
	// MaxRetries is the per-request retry budget beyond the first attempt
	// (transient I/O errors only; worker-reported errors are not retried).
	MaxRetries int
	// FailureThreshold is the consecutive-failure count that trips the
	// circuit breaker.
	FailureThreshold int
	// DialTimeout bounds every connect and reconnect attempt.
	DialTimeout time.Duration
	// RetryBackoff schedules waits between in-request retries.
	RetryBackoff *transport.Backoff
	// ProbeBackoff schedules the quarantine probe loop; its Max is the
	// re-admission latency ceiling once a peer heals.
	ProbeBackoff *transport.Backoff
}

// DefaultSupervisorConfig returns the production defaults: 1 retry,
// breaker trips after 3 consecutive failures, 2s dials, 25ms–2s retry
// backoff, 50ms–1s probe backoff, both with 20% jitter.
func DefaultSupervisorConfig() SupervisorConfig {
	return SupervisorConfig{
		MaxRetries:       1,
		FailureThreshold: 3,
		DialTimeout:      2 * time.Second,
		RetryBackoff:     transport.DefaultBackoff(),
		ProbeBackoff:     &transport.Backoff{Base: 50 * time.Millisecond, Max: time.Second, Jitter: 0.2},
	}
}

// normalized fills unset fields with defaults.
func (c SupervisorConfig) normalized() SupervisorConfig {
	d := DefaultSupervisorConfig()
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = d.FailureThreshold
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = d.DialTimeout
	}
	if c.RetryBackoff == nil {
		c.RetryBackoff = d.RetryBackoff
	}
	if c.ProbeBackoff == nil {
		c.ProbeBackoff = d.ProbeBackoff
	}
	return c
}

// PeerHealth is one peer's supervision snapshot.
type PeerHealth struct {
	Addr             string
	State            PeerState
	ConsecutiveFails int
	Requests         int64 // round trips attempted
	Failures         int64 // transient failures recorded
	Retries          int64 // in-request retry attempts
	Redials          int64 // reconnect attempts (in-line and probe)
	Trips            int64 // breaker open transitions
	Probes           int64 // quarantine pings sent
	Reconnects       int64 // probe successes re-admitting the peer
}

func (h PeerHealth) String() string {
	return fmt.Sprintf("peer %s: state=%s fails=%d requests=%d failures=%d retries=%d redials=%d trips=%d probes=%d reconnects=%d",
		h.Addr, h.State, h.ConsecutiveFails, h.Requests, h.Failures, h.Retries, h.Redials, h.Trips, h.Probes, h.Reconnects)
}

// Health snapshots every peer's supervision state in connection order.
func (m *Master) Health() []PeerHealth {
	peers := m.snapshotPeers()
	out := make([]PeerHealth, len(peers))
	for i, p := range peers {
		out[i] = p.health()
	}
	return out
}

// HealthReport renders Health plus the registry — raw counters, gauges and
// the latency histogram digests — the block teamnet-infer prints after a
// run.
func (m *Master) HealthReport() string {
	var b strings.Builder
	for _, h := range m.Health() {
		fmt.Fprintln(&b, h)
	}
	b.WriteString(m.metrics.String())
	return b.String()
}

// --- peer implementation -------------------------------------------------

func (p *peerConn) counter(name string) *metrics.Counter {
	return p.m.metrics.Counter("peer." + p.addr + "." + name)
}

// observe records one latency sample into the peer's named histogram
// ("peer.<addr>.<name>").
func (p *peerConn) observe(name string, d time.Duration) {
	p.m.metrics.Observe("peer."+p.addr+"."+name, d)
}

// State returns the peer's current supervision state.
func (p *peerConn) State() PeerState {
	p.stateMu.Lock()
	defer p.stateMu.Unlock()
	return p.state
}

// available reports whether a request may be sent to this peer.
func (p *peerConn) available() bool {
	s := p.State()
	return s == PeerHealthy || s == PeerSuspect
}

func (p *peerConn) health() PeerHealth {
	p.stateMu.Lock()
	state, fails := p.state, p.fails
	p.stateMu.Unlock()
	return PeerHealth{
		Addr:             p.addr,
		State:            state,
		ConsecutiveFails: fails,
		Requests:         p.counter("requests").Value(),
		Failures:         p.counter("failures").Value(),
		Retries:          p.counter("retries").Value(),
		Redials:          p.counter("redials").Value(),
		Trips:            p.counter("trips").Value(),
		Probes:           p.counter("probes").Value(),
		Reconnects:       p.counter("reconnects").Value(),
	}
}

// recordSuccess resets the failure streak and closes the breaker.
func (p *peerConn) recordSuccess() {
	p.stateMu.Lock()
	defer p.stateMu.Unlock()
	p.fails = 0
	p.state = PeerHealthy
}

// recordFailure notes one transient failure, trips the breaker at the
// threshold and launches the background probe.
func (p *peerConn) recordFailure() {
	p.counter("failures").Inc()
	p.stateMu.Lock()
	defer p.stateMu.Unlock()
	p.fails++
	if p.state == PeerOpen || p.state == PeerHalfOpen {
		return
	}
	if p.fails >= p.m.sup.Load().FailureThreshold {
		p.state = PeerOpen
		p.counter("trips").Inc()
		p.startProbeLocked()
		return
	}
	p.state = PeerSuspect
}

// startProbeLocked spawns the quarantine probe loop; stateMu must be held.
func (p *peerConn) startProbeLocked() {
	if p.probing || p.closed {
		return
	}
	p.probing = true
	p.m.probeWG.Add(1)
	go p.probeLoop()
}

// probeLoop redials and pings an open peer until it answers or the master
// closes. On success the fresh link is installed and the peer rejoins
// rotation.
func (p *peerConn) probeLoop() {
	defer p.m.probeWG.Done()
	cfg := *p.m.sup.Load()
	for attempt := 0; ; attempt++ {
		if !cfg.ProbeBackoff.Sleep(attempt, p.m.done) {
			p.endProbe(PeerOpen)
			return
		}
		p.stateMu.Lock()
		if p.closed {
			p.probing = false
			p.stateMu.Unlock()
			return
		}
		p.state = PeerHalfOpen
		p.stateMu.Unlock()
		p.counter("probes").Inc()
		if p.probeOnce(cfg) {
			p.counter("reconnects").Inc()
			p.stateMu.Lock()
			p.probing = false
			p.fails = 0
			p.state = PeerHealthy
			p.stateMu.Unlock()
			return
		}
		p.stateMu.Lock()
		if p.state == PeerHalfOpen {
			p.state = PeerOpen
		}
		p.stateMu.Unlock()
	}
}

func (p *peerConn) endProbe(s PeerState) {
	p.stateMu.Lock()
	defer p.stateMu.Unlock()
	p.probing = false
	if !p.closed {
		p.state = s
	}
}

// probeOnce pings the peer on a freshly dialed link. On success the link
// replaces the peer's old one. Until then it is the probe's, not the
// peer's: its death is the failed probe, and costs no strike — the breaker
// is already open. A probe spends no retry-budget token: ProbeBackoff is its
// bound, one redial per open peer per step.
func (p *peerConn) probeOnce(cfg SupervisorConfig) bool {
	p.counter("redials").Inc()
	var admitted atomic.Bool
	mc, err := p.link.dial(cfg.DialTimeout, func(err error) {
		if admitted.Load() {
			p.muxLinkDown(err)
		}
	})
	if err != nil {
		return false
	}
	if _, err := p.pingOn(mc, cfg, "probe"); err != nil {
		mc.close()
		return false
	}
	admitted.Store(true)
	if !p.link.replace(mc) {
		mc.close()
	}
	return true
}

// pingOn round-trips one MsgPing on mc, window wait included, within a budget
// of the per-peer timeout if set, else the dial timeout, and records an
// answered ping's round trip in the peer's histogram named series. A ping out
// of budget or answered with an error is abandoned alone, mc and its queries
// carry on; linkDown reports that mc died under it, a death its hook has
// counted.
func (p *peerConn) pingOn(mc *muxClient, cfg SupervisorConfig, series string) (linkDown bool, err error) {
	timeout := time.Duration(p.m.timeout.Load())
	if timeout <= 0 {
		timeout = cfg.DialTimeout
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	done, stop := joinDone(ctx, p.m.done)
	defer stop()
	r, rtt, err := mc.roundTrip(ctx, MsgPing, "", nil, 0, done)
	switch {
	case err != nil:
		return ctx.Err() == nil, err
	case r.typ != MsgReply:
		return false, errors.New(string(r.payload))
	}
	p.observe(series, rtt)
	return false, nil
}

// errPeerQuarantined marks fast-fail on an open breaker.
type errPeerQuarantined struct {
	addr  string
	state PeerState
}

func (e errPeerQuarantined) Error() string {
	return fmt.Sprintf("cluster: peer %s quarantined (circuit %s)", e.addr, e.state)
}

// attemptTiming captures where one round-trip attempt spent its time, so
// emitAttempt can record the dial/network/compute spans and feed the
// latency histograms and the peer's cost estimate after the fact.
type attemptTiming struct {
	dialed    bool
	dialStart time.Time
	dialDur   time.Duration
	rttStart  time.Time
	rtt       time.Duration // write → read wall time, 0 if the write never happened
	remote    time.Duration // worker-reported compute time, 0 if no forward pass ran
	wire      int           // request and reply frame bytes of an answered attempt (WireBytes)
	degraded  bool          // the reply gathered part of its ensemble (Live < Total)
}

// peerQuery is one MsgDo as every round trip sees it: a master's Own request
// to a peer, or a front's request to a master.
type peerQuery struct {
	wide    bool    // the tensors travel float64: a split tail (protocol.go)
	pin     string  // model version the peer must be serving; "" = any
	series  string  // prefix of the peer's counters and histograms: "" or "split."
	payload []byte  // encoded MsgDo body, shared by all peers of a broadcast
	rows    int     // batch size: a reply must carry exactly this many rows
	classes int     // classifier width a reply must carry
	flops   float64 // the forward work the peer does for it; 0 = unknown
}

// queryOf encodes req once for every round trip that sends it, checking its
// replies against classes.
func queryOf(req Request, classes int) peerQuery {
	return peerQuery{wide: req.Policy.wide(), payload: encodeRequest(req), rows: req.X.Shape[0], classes: classes}
}

// do performs one supervised round trip of q on the peer's multiplexed
// pipeline (mux.go), so concurrent Infer calls share one connection per
// peer: bounded retries over transient I/O errors with backoff, redialing
// broken links, feeding the breaker once per link death. Worker-reported
// errors (MsgErrorMux) come from a live peer and are returned immediately
// without punishing it.
//
// parent is the query's root span context; each peer round trip records a
// "peer <addr>" span beneath it with dial / backoff / network / compute
// children, and every successful attempt lands in the peer's rtt and
// compute histograms.
//
// ctx carries the caller's deadline/cancellation: an expired ctx aborts
// waits (window, reply, backoff) with the ctx error and WITHOUT feeding the
// breaker — a caller that stopped waiting is not evidence against the peer.
func (p *peerConn) do(ctx context.Context, q peerQuery, parent trace.Context) (Reply, error) {
	cfg := *p.m.sup.Load()
	tr := p.m.Tracer()
	if !p.available() {
		tr.Record(parent, "peer "+p.addr, "", trace.StatusError, time.Now(), 0)
		return Reply{}, errPeerQuarantined{addr: p.addr, state: p.State()}
	}
	done, stop := joinDone(ctx, p.m.done)
	defer stop()
	sp := tr.Start(parent, "peer "+p.addr)
	p.deposit() // first-attempt volume funds the shared retry budget
	res, err := p.muxAttempts(ctx, done, cfg, tr, sp.Ctx(), q)
	sp.EndErr(err)
	return res, err
}

// joinDone merges the master's shutdown channel with ctx cancellation into
// one abort channel for a single round trip. The returned stop releases the
// merge goroutine; callers must invoke it. A background ctx (no Done
// channel) costs nothing: the master channel is returned as-is.
func joinDone(ctx context.Context, master <-chan struct{}) (<-chan struct{}, func()) {
	if ctx.Done() == nil {
		return master, func() {}
	}
	ch := make(chan struct{})
	released := make(chan struct{})
	go func() {
		defer close(ch)
		select {
		case <-ctx.Done():
		case <-master:
		case <-released:
		}
	}()
	var once sync.Once
	return ch, func() { once.Do(func() { close(released) }) }
}

// abortErr names the reason a merged done channel fired: the caller's ctx
// error when it was the caller, otherwise master shutdown.
func abortErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return errors.New("cluster: master closing")
}

// emitAttempt turns one attempt of q into spans, histogram samples and, when
// it succeeded, one observation of the peer's cost estimate — a strike when
// the reply is degraded: a master answering without part of its team is
// fast for the wrong reason. The round trip splits into "network" (wall time minus the worker-reported compute, never
// below zero) and "compute" (attributed to the peer node) — the paper's
// transfer-vs-compute decomposition, per request.
func (p *peerConn) emitAttempt(tr *trace.Tracer, peerCtx trace.Context, q peerQuery, tm attemptTiming, err error) {
	status := ""
	if err != nil {
		status = trace.StatusError
	}
	if tm.dialed {
		tr.Record(peerCtx, "dial", "", status, tm.dialStart, tm.dialDur)
		p.observe("dial", tm.dialDur)
	}
	if tm.rtt <= 0 {
		return
	}
	network := max(tm.rtt-tm.remote, 0)
	tr.Record(peerCtx, "network", "", status, tm.rttStart, network)
	if tm.remote > 0 {
		// The worker's compute window sits inside the round trip; center it
		// so the tree reads in causal order. Only its duration is load-
		// bearing — clocks are never compared across nodes.
		tr.Record(peerCtx, "compute", p.addr, status, tm.rttStart.Add(network/2), tm.remote)
		p.observe(q.series+"compute", tm.remote)
	}
	if err == nil {
		p.observe(q.series+"rtt", tm.rtt)
		if tm.degraded {
			p.cost.strike()
		} else {
			p.cost.observe(tm, network, q.series == "", q.flops)
		}
	}
}

// ping round-trips one MsgPing on the peer's link — the one its queries
// ride — redialing first if it is down. A failure costs one strike: here,
// unless the link died under the ping and struck through its hook. Successful
// round trips land in the peer's "ping" latency histogram — a health sweep
// doubles as a latency measurement.
func (p *peerConn) ping() error {
	cfg := *p.m.sup.Load()
	mc, _, err := p.link.get(cfg.DialTimeout)
	linkDown := false
	if err == nil {
		if linkDown, err = p.pingOn(mc, cfg, "ping"); err == nil {
			p.recordSuccess()
			return nil
		}
	}
	if !linkDown {
		p.recordFailure()
	}
	return fmt.Errorf("cluster: ping %s: %w", p.addr, err)
}

// markClosed stops supervision; the probe loop exits via the done channel.
func (p *peerConn) markClosed() {
	p.stateMu.Lock()
	p.closed = true
	p.stateMu.Unlock()
}
