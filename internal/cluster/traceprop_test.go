package cluster

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/trace"
)

// spanByName indexes one trace's spans; duplicate names keep the first.
func spanByName(spans []trace.Span) map[string]trace.Span {
	out := make(map[string]trace.Span)
	for _, s := range spans {
		if _, ok := out[s.Name]; !ok {
			out[s.Name] = s
		}
	}
	return out
}

// TestTracePropagationOverTCP is the tracing acceptance check: one query a
// gateway sends under its own span crosses front → Node → Master → Worker
// over real loopback TCP and comes back as a single tree with one trace id —
// gateway span → the front's "peer …" span, and beside it the master's
// "infer" → "peer …" → network/compute, with the worker's "worker.predict"
// under the same "infer" — every id propagated in frame headers, none shared
// in memory. Each hop's remote tree hangs under the caller's span that sent
// it, beside the caller's peer span that timed it. The master-side
// network+compute split sums to (at most) the query total.
func TestTracePropagationOverTCP(t *testing.T) {
	worker := NewWorker(tinyExpert(t, 70), 1)
	workerTr := trace.New("worker", 0)
	worker.SetTracer(workerTr)
	addr, err := worker.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer worker.Close()

	master := NewMaster(tinyExpert(t, 71), 3)
	defer master.Close()
	masterTr := trace.New("master", 0)
	master.SetTracer(masterTr)
	if err := master.Connect(addr); err != nil {
		t.Fatal(err)
	}

	srv := NewNode(RoleMaster, master, 7)
	maddr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	front := NewFront(3)
	defer front.Close()
	gatewayTr := trace.New("gateway", 0)
	front.SetTracer(gatewayTr)
	if err := front.Connect(maddr); err != nil {
		t.Fatal(err)
	}

	batch := gatewayTr.Start(trace.Context{}, "serve.batch")
	x := tensor.NewRNG(72).Randn(1, 4)
	if _, _, err := front.InferContext(trace.NewContext(context.Background(), batch.Ctx()), x); err != nil {
		t.Fatal(err)
	}
	batch.End()
	gw := spanByName(gatewayTr.Trace(batch.Ctx().TraceID))
	if hop := gw["peer "+maddr]; hop.ParentID != batch.Ctx().SpanID || gw["network"].ParentID != hop.SpanID {
		t.Fatalf("front trace %v: want serve.batch → peer %s → network", gatewayTr.Trace(batch.Ctx().TraceID), maddr)
	}

	ids := masterTr.TraceIDs(1)
	if len(ids) != 1 {
		t.Fatalf("master recorded %d traces, want 1", len(ids))
	}
	spans := masterTr.Trace(ids[0])
	by := spanByName(spans)
	// The fabric hop: the master's tree hangs off the gateway's span.
	if ids[0] != batch.Ctx().TraceID || by["infer"].ParentID != batch.Ctx().SpanID {
		t.Fatalf("master trace %x, infer parent %x; want the gateway's trace %x under its span %x",
			ids[0], by["infer"].ParentID, batch.Ctx().TraceID, batch.Ctx().SpanID)
	}
	for _, name := range []string{"infer", "serialize", "peer " + addr, "network", "compute", "local.compute", "gate"} {
		if _, ok := by[name]; !ok {
			t.Fatalf("master trace missing span %q; have %v", name, spans)
		}
	}
	// The per-peer split is the paper's decomposition: network + compute
	// must fit inside the query total (the rest is serialize/gate/local).
	total := by["infer"].Duration
	split := by["network"].Duration + by["compute"].Duration
	if split <= 0 || split > total {
		t.Fatalf("network+compute = %v outside (0, total=%v]", split, total)
	}
	if by["compute"].Node != addr {
		t.Fatalf("compute span attributed to %q, want worker %q", by["compute"].Node, addr)
	}
	// Tree structure: peer span parents network and compute.
	peer := by["peer "+addr]
	if peer.ParentID != by["infer"].SpanID || by["network"].ParentID != peer.SpanID || by["compute"].ParentID != peer.SpanID {
		t.Fatal("infer → peer → network/compute is not one chain")
	}

	// Worker side: the trace id crossed the TCP connection.
	deadline := time.Now().Add(2 * time.Second)
	for workerTr.Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	wspans := workerTr.Snapshot(0)
	if len(wspans) == 0 {
		t.Fatal("worker recorded no spans for a traced query")
	}
	ws := wspans[len(wspans)-1]
	if ws.Name != "worker.predict" {
		t.Fatalf("worker span name %q", ws.Name)
	}
	if ws.TraceID != ids[0] {
		t.Fatalf("worker trace id %x != master trace id %x", ws.TraceID, ids[0])
	}
	if ws.ParentID != by["infer"].SpanID {
		t.Fatalf("worker span parent %x != query root span %x", ws.ParentID, by["infer"].SpanID)
	}
}

// TestNewWorkerUntracedMasterInterop: tracing off is a live configuration.
// The worker always reports its compute time; a master whose headers carry
// no trace parent must round-trip correctly, and still gets the
// network/compute split its histograms need.
func TestNewWorkerUntracedMasterInterop(t *testing.T) {
	worker := NewWorker(tinyExpert(t, 74), 1)
	addr, err := worker.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer worker.Close()

	master := NewMaster(nil, 3) // no SetTracer: zero trace fields on requests
	defer master.Close()
	if err := master.Connect(addr); err != nil {
		t.Fatal(err)
	}
	x := tensor.NewRNG(75).Randn(2, 4)
	probs, winners, err := master.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	if probs.Shape[0] != 2 || len(winners) != 2 {
		t.Fatalf("bad result shape %v / %d winners", probs.Shape, len(winners))
	}
	if n := master.Metrics().Histogram("peer." + addr + ".compute").Count(); n != 1 {
		t.Fatalf("untraced master recorded %d compute samples, want 1", n)
	}
}

// TestQuarantinedPeerTaggedSkipped: a quarantined peer must appear in the
// span tree tagged skipped, not vanish — under best effort, which answers
// without it, and under strict Infer, which fails with the quarantine error.
func TestQuarantinedPeerTaggedSkipped(t *testing.T) {
	worker := NewWorker(tinyExpert(t, 76), 1)
	addr, err := worker.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	master := NewMaster(tinyExpert(t, 77), 3)
	defer master.Close()
	master.SetSupervisor(fastSupervisor())
	master.SetTimeout(200 * time.Millisecond)
	masterTr := trace.New("master", 0)
	master.SetTracer(masterTr)
	if err := master.Connect(addr); err != nil {
		t.Fatal(err)
	}

	// Kill the worker and burn through the failure threshold.
	worker.Close()
	x := tensor.NewRNG(78).Randn(1, 4)
	for i := 0; i < 6; i++ {
		if _, _, _, err := bestEffort(master, x); err != nil {
			t.Fatal(err)
		}
		if h := master.Health(); len(h) == 1 && h[0].State == PeerOpen {
			break
		}
	}
	waitForPeerState(t, master, 0, PeerOpen, 2*time.Second)

	if _, _, live, err := bestEffort(master, x); err != nil {
		t.Fatal(err)
	} else if live != 1 {
		t.Fatalf("live = %d, want 1 (local only)", live)
	}
	assertSkipped := func() {
		t.Helper()
		ids := masterTr.TraceIDs(1)
		if len(ids) != 1 {
			t.Fatal("no trace recorded")
		}
		for _, s := range masterTr.Trace(ids[0]) {
			if s.Name == "peer "+addr && s.Status == trace.StatusSkipped {
				return
			}
		}
		t.Fatalf("no skipped span for quarantined peer in %v", masterTr.Trace(ids[0]))
	}
	assertSkipped()

	_, _, err = master.Infer(x)
	var quarantined errPeerQuarantined
	if !errors.As(err, &quarantined) || !strings.HasPrefix(err.Error(), "cluster: node 1: ") {
		t.Fatalf("strict Infer against a quarantined peer: %v", err)
	}
	assertSkipped()
}

// TestPingRecordsLatencyHistogram: the satellite bugfix — Master.Ping and
// the supervisor's probes must feed the latency histograms instead of
// discarding their timings.
func TestPingRecordsLatencyHistogram(t *testing.T) {
	worker := NewWorker(tinyExpert(t, 79), 1)
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
	if err := master.Ping(); err != nil {
		t.Fatal(err)
	}
	h := master.Metrics().Histogram("peer." + addr + ".ping")
	if h.Count() < 1 {
		t.Fatal("Ping did not record a latency sample")
	}
	if h.Sum() <= 0 {
		t.Fatal("ping histogram recorded a zero-duration sample")
	}
}
