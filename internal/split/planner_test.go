package split

import (
	"math"
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/tensor"
)

func testProfile(t *testing.T) Profile {
	t.Helper()
	net, err := nn.DigitsBaseline(64, 10).Build(tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	return NewProfile(nn.MustSnapshot(net))
}

func TestNewProfileShape(t *testing.T) {
	p := testProfile(t)
	if p.Model != "MLP-8" {
		t.Fatalf("model %q", p.Model)
	}
	if len(p.Boundaries) != p.Steps()+1 {
		t.Fatalf("%d boundaries for %d steps", len(p.Boundaries), p.Steps())
	}
	if p.Boundaries[0].HeadFLOPs != 0 || p.Boundaries[0].TailFLOPs != p.TotalFLOPs {
		t.Fatalf("boundary 0 not whole-remote: %+v", p.Boundaries[0])
	}
	last := p.Boundaries[p.Steps()]
	if last.TailFLOPs != 0 || last.HeadFLOPs != p.TotalFLOPs {
		t.Fatalf("boundary N not whole-local: %+v", last)
	}
	for i, b := range p.Boundaries {
		if b.Index != i {
			t.Fatalf("boundary %d has index %d", i, b.Index)
		}
		if math.Abs(b.HeadFLOPs+b.TailFLOPs-p.TotalFLOPs) > 1e-6 {
			t.Fatalf("boundary %d flops don't sum: %+v", i, b)
		}
		if b.Width <= 0 {
			t.Fatalf("boundary %d width %d", i, b.Width)
		}
	}
	if p.Boundaries[0].Width != 64 {
		t.Fatalf("input width %d", p.Boundaries[0].Width)
	}
}

// TestEstimatorRecoversLinearModel feeds exact base+slope observations at
// three sizes and checks predictions interpolate exactly — the property the
// bench leans on for auto == argmin.
func TestEstimatorRecoversLinearModel(t *testing.T) {
	var e Fit
	base, slope := 0.003, 2e-9
	for _, x := range []float64{1e6, 4e6, 9e6} {
		e.Observe(x, base+slope*x)
	}
	for _, x := range []float64{0, 2e6, 16e6} {
		want := base + slope*x
		if got := e.Predict(x); math.Abs(got-want) > 1e-9*math.Max(1, want) {
			t.Fatalf("Predict(%g) = %g, want %g", x, got, want)
		}
	}
}

func TestEstimatorDegenerateFallsBackToMean(t *testing.T) {
	var e Fit
	e.Observe(5, 2.0)
	e.Observe(5, 4.0)
	// With no x spread the fit degenerates to the decay-weighted mean.
	want := (fitDecay*2.0 + 4.0) / (fitDecay + 1)
	if got := e.Predict(100); math.Abs(got-want) > 1e-9 {
		t.Fatalf("degenerate Predict = %g, want weighted mean %g", got, want)
	}
	var empty Fit
	if empty.Predict(10) != 0 || empty.Ready() {
		t.Fatal("empty fit should predict 0 and not be ready")
	}
}

func TestPlannerDefaultsWholeLocal(t *testing.T) {
	p := New(testProfile(t), Options{})
	d := p.Plan(1, nil)
	if d.Split != p.Profile().Steps() || d.Peer != "" {
		t.Fatalf("unmeasured planner decided %+v, want whole-local", d)
	}
}

// measuredPeer is a peer whose fits hold exact observations of a 1 ms + 1 ns/B
// link and a 100 GFLOP/s device.
func measuredPeer(addr string) Peer {
	pr := Peer{Addr: addr}
	for _, f := range []float64{1e5, 4e5} {
		pr.Compute.Observe(f, f/100e9)
		pr.Link.Observe(f/10, 1e-3+f/10*1e-9)
	}
	return pr
}

// TestPlannerPicksCheapestBoundary builds a scenario with a hand-computable
// optimum: a fast remote peer behind a link whose cost is proportional to
// bytes, so the best cut is the narrowest boundary once compute dominates.
func TestPlannerPicksCheapestBoundary(t *testing.T) {
	prof := testProfile(t)
	p := New(prof, Options{})
	// Local device: 100 MFLOP/s. Feed two exact sizes so the fit is exact.
	for _, f := range []float64{1e5, 4e5} {
		p.ObserveLocal(f, time.Duration(f/100e6*1e9))
	}
	// Peer: 100 GFLOP/s, link 1ms + 1µs/KB.
	linkSec := func(bytes int) float64 { return 1e-3 + float64(bytes)*1e-9 }
	d := p.Plan(1, []Peer{measuredPeer("peer")})
	// Exhaustively recompute the argmin from the same inputs.
	bestSec, bestSplit := math.Inf(1), -1
	for _, b := range prof.Boundaries {
		var sec float64
		if b.Index == prof.Steps() {
			sec = prof.TotalFLOPs / 100e6
		} else {
			wire := 8 * b.Width
			sec = b.HeadFLOPs/100e6 + linkSec(wire) + b.TailFLOPs/100e9
		}
		if sec < bestSec {
			bestSec, bestSplit = sec, b.Index
		}
	}
	if d.Split != bestSplit {
		t.Fatalf("planner chose split %d (%.6fs), argmin is %d (%.6fs)", d.Split, d.PredictedSec, bestSplit, bestSec)
	}
	if bestSplit == prof.Steps() {
		t.Fatal("test scenario degenerate: argmin is whole-local, tune constants")
	}
	if math.Abs(d.PredictedSec-bestSec) > 1e-6 {
		t.Fatalf("predicted %.9f != argmin cost %.9f", d.PredictedSec, bestSec)
	}
}

// TestPlannerProbesUnmeasuredPeer: a peer whose probe the caller claimed
// (its fits stale or never measured: one claim per horizon) gets a
// whole-remote probe; within the horizon the claim is spent and the probe
// does not repeat, and a measured peer is not probed.
func TestPlannerProbesUnmeasuredPeer(t *testing.T) {
	p := New(testProfile(t), Options{})
	p.ObserveLocal(1e5, time.Millisecond)
	d := p.Decide(1, []Peer{{Addr: "newpeer", Probe: true}})
	if !d.Explore || d.Peer != "newpeer" || d.Split != 0 {
		t.Fatalf("expected whole-remote probe, got %+v", d)
	}
	// Within the horizon the probe must not repeat.
	if d2 := p.Decide(1, []Peer{{Addr: "newpeer"}}); d2.Explore {
		t.Fatalf("probe not throttled: %+v", d2)
	}
	// Once the peer is measured, no more probes.
	if d3 := p.Decide(1, []Peer{measuredPeer("newpeer")}); d3.Explore {
		t.Fatalf("measured peer still probed: %+v", d3)
	}
}

func TestPlannerDecideCachesWithinReplan(t *testing.T) {
	p := New(testProfile(t), Options{Replan: time.Hour})
	base := time.Unix(1000, 0)
	p.haveNow = func() time.Time { return base }
	d1 := p.Decide(1, nil)
	p.ObserveLocal(1e5, time.Millisecond) // would change the plan...
	if d2 := p.Decide(1, nil); d2 != d1 {
		t.Fatalf("plan not cached: %+v vs %+v", d2, d1)
	}
	p.haveNow = func() time.Time { return base.Add(2 * time.Hour) }
	if d3 := p.Decide(1, nil); d3.PredictedSec == 0 {
		t.Fatalf("plan not recomputed after replan window: %+v", d3)
	}
}

// TestPlannerDecideKeysTheCacheOnBatch: a plan cached for one batch size is
// not the answer for another within Replan — Decide(64) right after
// Decide(1) is Plan(64), not the batch-1 plan and its batch-1 prediction.
func TestPlannerDecideKeysTheCacheOnBatch(t *testing.T) {
	p := New(testProfile(t), Options{Replan: time.Hour})
	for _, f := range []float64{1e5, 4e5} {
		p.ObserveLocal(f, time.Duration(f/100e6*1e9))
	}
	peers := []Peer{measuredPeer("peer")}
	d1 := p.Decide(1, peers)
	got, want := p.Decide(64, peers), p.Plan(64, peers)
	if got != want || got == d1 {
		t.Fatalf("Decide(64) after Decide(1) = %+v, Plan(64) = %+v (batch-1 plan %+v)", got, want, d1)
	}
	if again := p.Decide(1, peers); again != d1 {
		t.Fatalf("Decide(1) = %+v after a batch-64 plan, want %+v", again, d1)
	}
}

func TestReportListsAllCandidates(t *testing.T) {
	p := New(testProfile(t), Options{})
	p.ObserveLocal(1e5, time.Millisecond)
	r := p.Report(2, []Peer{measuredPeer("peer")})
	if r.Model != "MLP-8" || !r.LocalReady || r.Batch != 2 {
		t.Fatalf("report header wrong: %+v", r)
	}
	if len(r.Peers) != 1 || !r.Peers[0].Measured || len(r.Peers[0].Candidates) != p.Profile().Steps() {
		t.Fatalf("candidate table wrong: %+v", r.Peers)
	}
	for _, c := range r.Peers[0].Candidates {
		if c.TotalSec != c.HeadSec+c.NetSec+c.TailSec {
			t.Fatalf("candidate %d breakdown doesn't sum: %+v", c.Split, c)
		}
		if c.WireBytes <= 0 {
			t.Fatalf("candidate %d wire bytes %d", c.Split, c.WireBytes)
		}
	}
}
