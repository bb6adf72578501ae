package cluster

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/transport"
)

// fastSupervisor is the test policy: tight backoffs so breaker trips and
// probe re-admissions happen in milliseconds, not seconds.
func fastSupervisor() SupervisorConfig {
	return SupervisorConfig{
		MaxRetries:       1,
		FailureThreshold: 3,
		DialTimeout:      time.Second,
		RetryBackoff:     &transport.Backoff{Base: 5 * time.Millisecond, Max: 20 * time.Millisecond},
		ProbeBackoff:     &transport.Backoff{Base: 25 * time.Millisecond, Max: 100 * time.Millisecond},
	}
}

// waitForPeerState polls the first peer's state until it matches or the
// deadline passes.
func waitForPeerState(t *testing.T, m *Master, idx int, want PeerState, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if h := m.Health(); len(h) > idx && h[idx].State == want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("peer %d never reached state %s (now %s)", idx, want, m.Health()[idx].State)
}

func TestSupervisorConfigNormalization(t *testing.T) {
	c := SupervisorConfig{}.normalized()
	d := DefaultSupervisorConfig()
	if c.FailureThreshold != d.FailureThreshold || c.DialTimeout != d.DialTimeout {
		t.Fatalf("zero config not normalized: %+v", c)
	}
	if c.RetryBackoff == nil || c.ProbeBackoff == nil {
		t.Fatal("nil backoffs not defaulted")
	}
	if got := (SupervisorConfig{MaxRetries: -5}).normalized().MaxRetries; got != 0 {
		t.Fatalf("negative MaxRetries normalized to %d", got)
	}
}

func TestPeerStateString(t *testing.T) {
	cases := map[PeerState]string{
		PeerHealthy:   "healthy",
		PeerSuspect:   "suspect",
		PeerOpen:      "open",
		PeerHalfOpen:  "half-open",
		PeerState(42): "PeerState(42)",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Fatalf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestInferRetriesTransientFailure(t *testing.T) {
	// A worker that dies mid-stream: the first attempt fails, the retry
	// redials the (restarted) listener and succeeds — one I/O error no
	// longer fails the batch.
	w1 := NewWorker(tinyExpert(t, 50), 1)
	a1, err := w1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w1.Close()

	master := NewMaster(nil, 3)
	defer master.Close()
	master.SetSupervisor(fastSupervisor())
	master.SetTimeout(time.Second)
	if err := master.Connect(a1); err != nil {
		t.Fatal(err)
	}
	x := tensor.NewRNG(51).Randn(1, 4)
	if _, _, err := master.Infer(x); err != nil {
		t.Fatal(err)
	}

	// Break the established connection server-side; the listener stays up,
	// so the in-request redial must recover transparently.
	w1.mu.Lock()
	for conn := range w1.conns {
		conn.Close()
	}
	w1.mu.Unlock()
	if _, _, err := master.Infer(x); err != nil {
		t.Fatalf("Infer did not ride out a broken connection: %v", err)
	}
	h := master.Health()[0]
	if h.Retries == 0 && h.Redials == 0 {
		t.Fatalf("recovery left no supervision trace: %+v", h)
	}
	if h.State != PeerHealthy {
		t.Fatalf("peer state after recovery = %s", h.State)
	}
}

func TestBreakerTripsAndFastFails(t *testing.T) {
	w := NewWorker(tinyExpert(t, 52), 1)
	addr, err := w.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	master := NewMaster(tinyExpert(t, 53), 3)
	defer master.Close()
	cfg := fastSupervisor()
	// Park the probe loop so the breaker stays open for the assertion.
	cfg.ProbeBackoff = &transport.Backoff{Base: time.Hour, Max: time.Hour}
	master.SetSupervisor(cfg)
	master.SetTimeout(200 * time.Millisecond)
	if err := master.Connect(addr); err != nil {
		t.Fatal(err)
	}
	w.Close() // peer goes dark for good

	x := tensor.NewRNG(54).Randn(1, 4)
	// Each best-effort call records up to MaxRetries+1 failures; the
	// breaker must trip within a few calls.
	for i := 0; i < 4; i++ {
		if _, _, _, err := bestEffort(master, x); err != nil {
			t.Fatalf("best effort with local expert failed: %v", err)
		}
	}
	h := master.Health()[0]
	if h.State != PeerOpen {
		t.Fatalf("breaker did not open: %+v", h)
	}
	if h.Trips == 0 {
		t.Fatal("trip counter not bumped")
	}

	// Quarantined: strict Infer fails fast without touching the socket.
	before := master.Health()[0].Requests
	start := time.Now()
	if _, _, err := master.Infer(x); err == nil {
		t.Fatal("strict Infer succeeded against an open breaker")
	} else if !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("unexpected error: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("quarantine fast-fail took %v", elapsed)
	}
	if after := master.Health()[0].Requests; after != before {
		t.Fatal("quarantined peer still received wire requests")
	}
	// And best effort skips it without counting it live.
	if _, _, live, err := bestEffort(master, x); err != nil || live != 1 {
		t.Fatalf("best effort around open breaker: live=%d err=%v", live, err)
	}
	if master.Metrics().Counter("route.skipped_quarantined").Value() == 0 {
		t.Fatal("skip counter not bumped")
	}
}

func TestPingAppliesTimeoutOnSilentPeer(t *testing.T) {
	// A listener that accepts and never replies: Ping must honour the
	// configured per-peer timeout instead of wedging forever.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()

	master := NewMaster(nil, 3)
	defer master.Close()
	master.SetTimeout(100 * time.Millisecond)
	if err := master.Connect(ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := master.Ping(); err == nil {
		t.Fatal("ping of silent peer succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("ping took %v, timeout not applied", elapsed)
	}
	// Each unanswered ping is one strike and is abandoned alone: the link
	// stays up, so the second ping is sent on it without a redial.
	if err := master.Ping(); err == nil {
		t.Fatal("second ping of silent peer succeeded")
	}
	if h := master.Health()[0]; h.Failures != 2 || h.Redials != 0 {
		t.Fatalf("want two strikes on one link: %+v", h)
	}
	if v := master.Metrics().Gauge("mux.inflight").Value(); v != 0 {
		t.Fatalf("mux.inflight = %d after the abandoned pings, want 0", v)
	}
}

// TestPingErrorAnswerKeepsLink: a ping answered with an error costs one
// strike, and the link it was answered on keeps carrying queries.
func TestPingErrorAnswerKeepsLink(t *testing.T) {
	worker := NewWorker(tinyExpert(t, 59), 1)
	worker.kinds = map[byte]handler{
		MsgDo: (*Node).serveDo,
		MsgPing: func(*Node, context.Context, *Model, []byte) (byte, []byte, time.Duration) {
			return errorReply(errors.New("draining"))
		},
	}
	addr, err := worker.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer worker.Close()

	master := NewMaster(nil, 3)
	defer master.Close()
	if err := master.Connect(addr); err != nil {
		t.Fatal(err)
	}
	if err := master.Ping(); err == nil || !strings.Contains(err.Error(), "draining") {
		t.Fatalf("ping answered with an error reported %v", err)
	}
	if _, _, err := master.Infer(tensor.NewRNG(60).Randn(1, 4)); err != nil {
		t.Fatalf("query after the refused ping: %v", err)
	}
	if h := master.Health()[0]; h.Failures != 1 || h.Redials != 0 || h.State != PeerHealthy {
		t.Fatalf("want one strike and the query on the same link: %+v", h)
	}
}

func TestPingReportsAllUnreachablePeers(t *testing.T) {
	w1 := NewWorker(tinyExpert(t, 55), 1)
	a1, err := w1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w2 := NewWorker(tinyExpert(t, 56), 2)
	a2, err := w2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w3 := NewWorker(tinyExpert(t, 57), 3)
	a3, err := w3.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()

	master := NewMaster(nil, 3)
	defer master.Close()
	master.SetSupervisor(fastSupervisor())
	master.SetTimeout(500 * time.Millisecond)
	for _, a := range []string{a1, a2, a3} {
		if err := master.Connect(a); err != nil {
			t.Fatal(err)
		}
	}
	w1.Close()
	w3.Close()
	err = master.Ping()
	if err == nil {
		t.Fatal("ping with two dead peers succeeded")
	}
	msg := err.Error()
	if !strings.Contains(msg, a1) || !strings.Contains(msg, a3) {
		t.Fatalf("ping error %q does not name both dead peers (%s, %s)", msg, a1, a3)
	}
	if strings.Contains(msg, a2) {
		t.Fatalf("ping error %q blames the healthy peer", msg)
	}
}

func TestWorkerRecoversPredictPanic(t *testing.T) {
	// Input 4 expert fed a width-5 tensor: the NN panics on the shape
	// mismatch. The worker must answer MsgErrorMux and keep serving on the
	// same connection.
	w := NewWorker(tinyExpert(t, 58), 1)
	addr, err := w.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bad := requestPayload(requestHeader{id: 1}, ownBody(tensor.NewRNG(59).Randn(1, 5)))
	if err := transport.WriteFrame(conn, MsgDo, bad); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := transport.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgErrorMux || !strings.Contains(string(payload), "panic") {
		t.Fatalf("panic inside predict answered type=%d %q", typ, payload)
	}
	if got := w.Metrics().Counter("panics.recovered").Value(); got != 1 {
		t.Fatalf("panics.recovered = %d, want 1", got)
	}

	// Same connection, valid request: the goroutine must have survived.
	good := requestPayload(requestHeader{id: 2}, ownBody(tensor.NewRNG(60).Randn(1, 4)))
	if err := transport.WriteFrame(conn, MsgDo, good); err != nil {
		t.Fatal(err)
	}
	typ, payload, err = transport.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgReply {
		t.Fatalf("post-panic request answered type=%d %q", typ, payload)
	}
	if _, err := decodeReply(payload[replyHeaderSize:], false, 1, 3); err != nil {
		t.Fatal(err)
	}
}

func TestHealthReportNamesEveryPeer(t *testing.T) {
	w := NewWorker(tinyExpert(t, 61), 1)
	addr, err := w.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	master := NewMaster(nil, 3)
	defer master.Close()
	if err := master.Connect(addr); err != nil {
		t.Fatal(err)
	}
	if _, _, err := master.Infer(tensor.NewRNG(62).Randn(1, 4)); err != nil {
		t.Fatal(err)
	}
	report := master.HealthReport()
	if !strings.Contains(report, addr) || !strings.Contains(report, "state=healthy") {
		t.Fatalf("health report missing peer line:\n%s", report)
	}
	if !strings.Contains(report, "requests=1") {
		t.Fatalf("health report missing request count:\n%s", report)
	}
}
