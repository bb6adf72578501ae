package bench

import (
	"fmt"
	"strings"
	"time"

	"github.com/teamnet/teamnet/internal/cluster"
	"github.com/teamnet/teamnet/internal/edgesim"
	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/split"
	"github.com/teamnet/teamnet/internal/tensor"
)

// Partial-offload planning benchmark (`make bench-split`): an analytic
// sweep of the split planner across edge link profiles. The head runs on a
// Raspberry Pi CPU, the tail on a Jetson TX2 GPU, and the activation
// crosses a link priced by internal/edgesim; every (boundary, link) cost is
// computed exactly from the static profile and the device/link models, the
// planner is fed exact observations of the same models, and the artifact
// records whether the planner's auto choice lands on the true argmin. The
// headline claim: as the link degrades from fast WiFi to a saturated LoRa-
// class trickle, the chosen split point walks from whole-remote through
// interior cuts to whole-local — one mechanism subsuming the binary offload
// decision.
//
// The model is deliberately not the zoo: the paper-family models are
// either so small that shipping the input is always cheapest or have such
// wide early activations that no interior cut wins. SS-8e (a narrow-stem
// 16×16 Shake-Shake) has a genuinely link-dependent optimum, which is the
// regime partial offload exists for.

// SplitGateFloor is the acceptance slack: the auto plan's modeled latency
// must be within 5% of the best static endpoint (whole-local or
// whole-remote) on every link — i.e. auto never loses meaningfully to the
// binary choice it subsumes.
const SplitGateFloor = 0.05

// splitBenchSpec is the swept model: narrow stem so early activations are
// shippable, widening stages so late ones are not, enough total FLOPs that
// the Pi head is worth offloading on a decent link.
func splitBenchSpec() nn.Spec {
	return nn.Spec{Kind: "shake", Shake: &nn.ShakeSpec{
		Label: "SS-8e", InC: 3, InH: 16, InW: 16,
		Widths: []int{4, 16, 32}, BlocksPerStage: 1, Classes: 10,
	}}
}

// SplitLinkSpec is one swept link profile.
type SplitLinkSpec struct {
	Name          string  `json:"name"`
	BandwidthMbps float64 `json:"bandwidth_mbps"`
	LatencyMs     float64 `json:"latency_ms"`
}

// splitBenchLinks spans the regimes that move the optimum: campus WiFi
// (ship everything), a congested uplink (cut in the middle), and a
// LoRa-class trickle (stay home).
func splitBenchLinks() []SplitLinkSpec {
	return []SplitLinkSpec{
		{Name: "fast", BandwidthMbps: 100, LatencyMs: 0.4},
		{Name: "medium", BandwidthMbps: 1.5, LatencyMs: 1},
		{Name: "slow", BandwidthMbps: 0.25, LatencyMs: 5},
	}
}

// SplitBenchConfig parameterizes the sweep.
type SplitBenchConfig struct {
	Batch int // rows per query; 0 = 1 (the edge sensing case)
}

// SplitLinkResult is the sweep outcome on one link profile.
type SplitLinkResult struct {
	SplitLinkSpec
	// AutoSplit / AutoMs: the planner's choice and its exact modeled cost.
	AutoSplit int     `json:"auto_split"`
	AutoMs    float64 `json:"auto_ms"`
	// BestSplit / BestStaticMs: the exhaustive argmin over all boundaries.
	BestSplit    int     `json:"best_split"`
	BestStaticMs float64 `json:"best_static_ms"`
	// The two degenerate endpoints the auto planner must not lose to.
	WholeLocalMs  float64 `json:"whole_local_ms"`
	WholeRemoteMs float64 `json:"whole_remote_ms"`
	WithinFloor   bool    `json:"within_floor"`
}

// SplitReport is the BENCH_split.json artifact.
type SplitReport struct {
	Model              string            `json:"model"`
	Batch              int               `json:"batch"`
	TotalFLOPs         float64           `json:"total_flops"`
	Boundaries         int               `json:"boundaries"`
	HeadDevice         string            `json:"head_device"`
	TailDevice         string            `json:"tail_device"`
	GateFloor          float64           `json:"gate_floor"`
	Links              []SplitLinkResult `json:"links"`
	DistinctAutoSplits int               `json:"distinct_auto_splits"`
	Pass               bool              `json:"pass"`
}

// splitCost is the exact modeled latency of cutting at boundary b: head on
// the Pi CPU, request + response unicasts on the link, tail on the Jetson
// GPU. Boundary n is whole-local (no wire, no tail).
func splitCost(prof split.Profile, b split.Boundary, head, tail edgesim.Device, net edgesim.Net, batch, classes int) float64 {
	if b.Index == prof.Steps() {
		return head.ComputeTime(prof.TotalFLOPs*float64(batch), false)
	}
	sec := head.ComputeTime(b.HeadFLOPs*float64(batch), false)
	req, rep := tailWireBytes(batch, b.Width, classes)
	sec += net.Unicast(req)
	sec += net.Unicast(rep)
	sec += tail.ComputeTime(b.TailFLOPs*float64(batch), true)
	return sec
}

// tailWireBytes is a split tail's request and reply frames, the codec's own
// sizes (cluster.WireBytes) with no version pin.
func tailWireBytes(batch, width, classes int) (request, reply int) {
	return cluster.WireBytes(cluster.Policy{Gather: cluster.Own, Split: cluster.SplitAt(0)}, 0, batch, width, classes)
}

// calibratePlanner feeds the planner's local fit and the returned peer's
// link and compute fits exact observations of the device and link models at
// three operating points, so the fits recover the models exactly — the sweep
// then tests the planner's ranking, not its regression noise (the live
// path's noisy-measurement behavior is covered by the planner's own unit
// tests).
func calibratePlanner(pl *split.Planner, prof split.Profile, head, tail edgesim.Device, net edgesim.Net, batch, classes int) split.Peer {
	peer := split.Peer{Addr: "sim-peer"}
	for _, frac := range []float64{0.2, 0.6, 1.0} {
		f := prof.TotalFLOPs * frac
		pl.ObserveLocal(f, secToDur(head.ComputeTime(f, false)))
		reqBytes, resBytes := tailWireBytes(batch, int(float64(prof.Boundaries[0].Width)*frac)+1, classes)
		netSec := net.Unicast(reqBytes) + net.Unicast(resBytes)
		peer.Compute.Observe(f, secToDur(tail.ComputeTime(f, true)).Seconds())
		peer.Link.Observe(float64(reqBytes+resBytes), secToDur(netSec).Seconds())
	}
	return peer
}

func secToDur(sec float64) time.Duration {
	return time.Duration(sec * float64(time.Second))
}

// RunSplitBench runs the analytic sweep. It is deterministic and takes
// milliseconds — the cost model is arithmetic, not wall clock — so the same
// entry point serves `make bench-split`, the short-test smoke, and the
// bench-check re-run.
func RunSplitBench(cfg SplitBenchConfig) (*SplitReport, error) {
	batch := cfg.Batch
	if batch <= 0 {
		batch = 1
	}
	spec := splitBenchSpec()
	classes := spec.Shake.Classes
	net0, err := spec.Build(tensor.NewRNG(1))
	if err != nil {
		return nil, fmt.Errorf("bench: build %s: %w", spec.Label(), err)
	}
	snap, err := nn.NewSnapshot(net0)
	if err != nil {
		return nil, fmt.Errorf("bench: snapshot %s: %w", spec.Label(), err)
	}
	prof := split.NewProfile(snap)
	head := edgesim.RaspberryPi3B()
	tail := edgesim.JetsonTX2GPU()

	report := &SplitReport{
		Model:      prof.Model,
		Batch:      batch,
		TotalFLOPs: prof.TotalFLOPs,
		Boundaries: len(prof.Boundaries),
		HeadDevice: head.Name,
		TailDevice: tail.Name,
		GateFloor:  SplitGateFloor,
		Pass:       true,
	}
	n := prof.Steps()
	distinct := map[int]bool{}
	for _, ls := range splitBenchLinks() {
		wire := edgesim.Net{
			Link: edgesim.Link{
				Name:         ls.Name,
				LatencySec:   ls.LatencyMs / 1e3,
				BandwidthBps: ls.BandwidthMbps * 1e6,
			},
			Transport: edgesim.Socket(),
		}
		pl := split.New(prof, split.Options{WireBytes: func(b, width int) int {
			req, rep := tailWireBytes(b, width, classes)
			return req + rep
		}})
		peer := calibratePlanner(pl, prof, head, tail, wire, batch, classes)
		d := pl.Plan(batch, []split.Peer{peer})

		res := SplitLinkResult{SplitLinkSpec: ls, AutoSplit: d.Split, BestSplit: -1}
		for _, b := range prof.Boundaries {
			c := splitCost(prof, b, head, tail, wire, batch, classes) * 1e3
			if res.BestSplit < 0 || c < res.BestStaticMs {
				res.BestSplit, res.BestStaticMs = b.Index, c
			}
			switch b.Index {
			case 0:
				res.WholeRemoteMs = c
			case n:
				res.WholeLocalMs = c
			}
			if b.Index == d.Split {
				res.AutoMs = c
			}
		}
		bestEndpoint := min(res.WholeLocalMs, res.WholeRemoteMs)
		res.WithinFloor = res.AutoMs <= bestEndpoint*(1+SplitGateFloor)
		if !res.WithinFloor {
			report.Pass = false
		}
		distinct[d.Split] = true
		report.Links = append(report.Links, res)
	}
	report.DistinctAutoSplits = len(distinct)
	if report.DistinctAutoSplits < 3 {
		report.Pass = false
	}
	return report, nil
}

func (r *SplitReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "split plan sweep: %s (%.0f FLOPs, %d boundaries), batch %d, head %s, tail %s\n",
		r.Model, r.TotalFLOPs, r.Boundaries, r.Batch, r.HeadDevice, r.TailDevice)
	for _, l := range r.Links {
		verdict := "ok"
		if !l.WithinFloor {
			verdict = "LOSES TO ENDPOINT"
		}
		fmt.Fprintf(&b, "  %-7s %7.2f Mbps %5.1f ms   auto split %2d  %8.3f ms   (local %8.3f, remote %8.3f, argmin %2d)  %s\n",
			l.Name, l.BandwidthMbps, l.LatencyMs, l.AutoSplit, l.AutoMs, l.WholeLocalMs, l.WholeRemoteMs, l.BestSplit, verdict)
	}
	fmt.Fprintf(&b, "  distinct auto splits: %d (want >= 3)", r.DistinctAutoSplits)
	if r.Pass {
		b.WriteString("  PASS")
	} else {
		b.WriteString("  FAIL")
	}
	return b.String()
}

// EvaluateSplitCheck reduces a committed/current split-report pair to
// compared metrics (pure; unit-tested without running anything). The sweep
// is analytic, so the gates are structural rather than tolerance-based:
// the planner must still walk the split point across links, still match
// the committed choice per link, and still clear the endpoint floor.
func EvaluateSplitCheck(committed, current *SplitReport, tol float64) []CheckResult {
	results := []CheckResult{
		{Name: "split.distinct_auto_splits", Committed: float64(committed.DistinctAutoSplits),
			Current: float64(current.DistinctAutoSplits), Limit: 3,
			Pass: current.DistinctAutoSplits >= 3},
	}
	cur := map[string]SplitLinkResult{}
	for _, l := range current.Links {
		cur[l.Name] = l
	}
	for _, cl := range committed.Links {
		l, ok := cur[cl.Name]
		if !ok {
			results = append(results, CheckResult{Name: "split." + cl.Name + ".present",
				Committed: 1, Current: 0, Limit: 1, Pass: false})
			continue
		}
		results = append(results,
			CheckResult{Name: "split." + cl.Name + ".auto_split", Committed: float64(cl.AutoSplit),
				Current: float64(l.AutoSplit), Limit: float64(cl.AutoSplit),
				Pass: l.AutoSplit == cl.AutoSplit},
			checkCeilingGrace("split."+cl.Name+".auto_ms", cl.AutoMs, l.AutoMs, tol, 0),
			CheckResult{Name: "split." + cl.Name + ".within_floor", Committed: b2f(cl.WithinFloor),
				Current: b2f(l.WithinFloor), Limit: 1, Pass: l.WithinFloor},
		)
	}
	return results
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
