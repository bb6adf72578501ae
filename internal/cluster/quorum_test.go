package cluster

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/chaos"
	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/transport"
)

// Quorum-gather tests: InferQuorumContext is the partial-ensemble path
// behind the serve gateway's degraded mode — a straggler or a quarantined
// peer thins the answer instead of failing or stalling it. All run under
// -race via the verify target.

// TestInferQuorumPartialOnSoftDeadline: with one peer stalled forever and a
// 150ms soft deadline, the answer must come back around the soft deadline
// with live = everyone-but-the-straggler, not wait out the full per-peer
// timeout.
func TestInferQuorumPartialOnSoftDeadline(t *testing.T) {
	_, stalled := chaosWorker(t, 130, 1, chaos.Fault{Mode: chaos.Stall, Prob: 1})
	good := healthyWorker(t, 131, 2)

	master := NewMaster(tinyExpert(t, 132), 3)
	defer master.Close()
	master.SetSupervisor(SupervisorConfig{
		MaxRetries:       0,
		FailureThreshold: 10,
		DialTimeout:      time.Second,
		RetryBackoff:     &transport.Backoff{Base: 5 * time.Millisecond, Max: 20 * time.Millisecond},
		ProbeBackoff:     &transport.Backoff{Base: 30 * time.Second, Max: 30 * time.Second},
	})
	master.SetTimeout(10 * time.Second) // only the soft deadline may cut the wait
	for _, a := range []string{stalled, good} {
		if err := master.Connect(a); err != nil {
			t.Fatal(err)
		}
	}

	x := tensor.NewRNG(133).Randn(2, 4)
	start := time.Now()
	probs, winners, live, total, err := master.InferQuorumContext(context.Background(), x, 150*time.Millisecond)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("quorum infer failed around a stalled peer: %v", err)
	}
	if total != 3 {
		t.Fatalf("total = %d, want 3", total)
	}
	if live != 2 {
		t.Fatalf("live = %d, want 2 (local + healthy; the stalled peer must be cut)", live)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("partial answer took %v; the soft deadline was 150ms", elapsed)
	}
	if probs.Shape[0] != 2 || len(winners) != 2 || probs.HasNaN() {
		t.Fatalf("malformed partial answer: shape %v, %d winners", probs.Shape, len(winners))
	}
	if got := master.Metrics().Counter("infer.partial").Value(); got == 0 {
		t.Fatal("partial answer was not counted under infer.partial")
	}
}

// TestInferQuorumCountsQuarantined: a quarantined peer still counts toward
// total but not live, so the caller can see the answer is degraded even
// when nothing had to be waited for.
func TestInferQuorumCountsQuarantined(t *testing.T) {
	w := NewWorker(tinyExpert(t, 134), 1)
	dying, err := w.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	good := healthyWorker(t, 135, 2)

	master := NewMaster(tinyExpert(t, 136), 3)
	defer master.Close()
	master.SetSupervisor(SupervisorConfig{
		MaxRetries:       0,
		FailureThreshold: 1,
		DialTimeout:      time.Second,
		RetryBackoff:     &transport.Backoff{Base: 5 * time.Millisecond, Max: 20 * time.Millisecond},
		ProbeBackoff:     &transport.Backoff{Base: 30 * time.Second, Max: 30 * time.Second},
	})
	master.SetTimeout(300 * time.Millisecond)
	for _, a := range []string{dying, good} {
		if err := master.Connect(a); err != nil {
			t.Fatal(err)
		}
	}
	w.Close() // the peer dies; the first query trips its breaker

	x := tensor.NewRNG(137).Randn(1, 4)
	if _, _, _, err := bestEffort(master, x); err != nil {
		t.Fatal(err)
	}
	waitForPeerState(t, master, 0, PeerOpen, 5*time.Second)

	skippedBefore := master.Metrics().Counter("route.skipped_quarantined").Value()
	_, _, live, total, err := master.InferQuorumContext(context.Background(), x, 0)
	if err != nil {
		t.Fatal(err)
	}
	if total != 3 || live != 2 {
		t.Fatalf("live/total = %d/%d, want 2/3 with one quarantined peer", live, total)
	}
	if got := master.Metrics().Counter("route.skipped_quarantined").Value(); got <= skippedBefore {
		t.Fatal("quarantined peer was not skipped at routing")
	}
}

// TestInferQuorumNothingGathered: an already-expired context with no result
// at all must still error — degraded mode never invents an answer.
func TestInferQuorumNothingGathered(t *testing.T) {
	good := healthyWorker(t, 138, 1)
	master := NewMaster(nil, 3)
	defer master.Close()
	if err := master.Connect(good); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, _, err := master.InferQuorumContext(ctx, tensor.NewRNG(139).Randn(1, 4), 0); err == nil {
		t.Fatal("quorum infer on a dead context returned an answer")
	}
}

// TestBestEffortStrictOnExpiry pins the pre-existing contract the gather
// refactor must preserve: best-effort returns the context's error on
// expiry, never a stale partial subset.
func TestBestEffortStrictOnExpiry(t *testing.T) {
	_, stalled := chaosWorker(t, 140, 1, chaos.Fault{Mode: chaos.Stall, Prob: 1})
	master := NewMaster(tinyExpert(t, 141), 3)
	defer master.Close()
	master.SetTimeout(10 * time.Second)
	if err := master.Connect(stalled); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err := master.Do(ctx, Request{X: tensor.NewRNG(142).Randn(1, 4), Policy: Policy{Gather: BestEffort}})
	if err == nil {
		t.Fatal("best-effort returned a partial answer past its deadline")
	}
}

// TestLocalPanicContained: gather runs the local expert off the caller's
// goroutine, so a forward-pass panic (width-mismatched input) cannot be
// caught by any caller-side recover — it must be contained in the gather
// goroutine itself, failing the local slot like any other sick node
// instead of killing the process.
func TestLocalPanicContained(t *testing.T) {
	good := healthyWorker(t, 150, 1)
	master := NewMaster(tinyExpert(t, 151), 3) // local expert wants width 4
	defer master.Close()
	master.SetTimeout(2 * time.Second)
	if err := master.Connect(good); err != nil {
		t.Fatal(err)
	}

	// Width 8: the local forward pass panics; the worker recovers on its
	// side and answers an error frame. No node answers — that must surface
	// as an error, not a crash.
	_, _, _, err := bestEffort(master, tensor.NewRNG(152).Randn(1, 8))
	if err == nil {
		t.Fatal("width-mismatched input produced an answer")
	}
	if got := master.Metrics().Counter("local.panics_recovered").Value(); got == 0 {
		t.Fatal("local panic was not recovered via the gather guard")
	}

	// The master must still be serving: a well-formed infer right after.
	probs, _, live, err := bestEffort(master, tensor.NewRNG(153).Randn(1, 4))
	if err != nil {
		t.Fatalf("master broken after contained panic: %v", err)
	}
	if live != 2 || probs.HasNaN() {
		t.Fatalf("degraded recovery answer: live=%d", live)
	}

	// Strict Infer runs the same gather: the panic is this query's error,
	// named for the node that failed, not the caller's crash.
	solo := NewMaster(tinyExpert(t, 151), 3)
	defer solo.Close()
	if _, _, err := solo.Infer(tensor.NewRNG(152).Randn(1, 8)); err == nil || !strings.Contains(err.Error(), "node 0: local expert panic") {
		t.Fatalf("strict Infer on a panicking local expert: %v", err)
	}
}

// TestStrictFailureCancelsOtherWaits: strict Infer needs every node, so the
// first node to fail fails the query — and the waits on the others are
// cancelled as a caller abort: no breaker strike, links up, nothing left in
// flight. The failing peer answers "expired", the verdict on a request whose
// budget ran out before a handler could start: a worker answer like any
// other — no retry, no strike.
func TestStrictFailureCancelsOtherWaits(t *testing.T) {
	_, stalledA := chaosWorker(t, 160, 1, chaos.Fault{Mode: chaos.Stall, Prob: 1})
	_, stalledB := chaosWorker(t, 161, 2, chaos.Fault{Mode: chaos.Stall, Prob: 1})
	failing := cannedReplier(t, MsgErrorMux, func(id uint32) []byte {
		return replyPayload(replyHeader{id: id}, []byte(expiredText))
	})

	master := NewMaster(nil, 3)
	defer master.Close()
	master.SetTimeout(10 * time.Second) // only the failing peer may end the wait
	for _, a := range []string{stalledA, stalledB, failing} {
		if err := master.Connect(a); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	_, _, err := master.Infer(tensor.NewRNG(162).Randn(1, 4))
	if err == nil || !strings.Contains(err.Error(), "cluster: node 2: worker error: expired") {
		t.Fatalf("strict Infer with one failing peer: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("failure took %v to surface; the stalled peers' waits were not cancelled", elapsed)
	}
	waitForGaugeZero(t, master, "mux.inflight", 2*time.Second)
	for _, h := range master.Health() {
		if h.Failures != 0 || h.Retries != 0 || h.State != PeerHealthy {
			t.Fatalf("a cancelled or answered wait cost a retry or a breaker strike: %+v", h)
		}
	}
}
