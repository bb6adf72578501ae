package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"
)

// Regression check: `make bench-check` re-runs the fleet, split-planning and
// forward-pass benchmarks with the configuration recorded in the committed
// BENCH_fleet.json / BENCH_split.json / BENCH_forward.json artifacts and
// fails when a headline number regresses past tolerance — >20% lower
// goodput or snapshot speedup by default — or an exact invariant breaks: the
// fleet drill's fault and hot-swap verdicts, the snapshot's zero-allocation
// steady state, the split plan. End-to-end speed is judged by the repository
// benchmark (BENCHMARK.json), not here.

// CheckTolerance is the default allowed relative regression (20%).
const CheckTolerance = 0.20

// CheckConfig points the regression check at the committed artifacts.
type CheckConfig struct {
	ForwardPath string        // committed BENCH_forward.json ("" skips)
	FleetPath   string        // committed BENCH_fleet.json ("" skips)
	SplitPath   string        // committed BENCH_split.json ("" skips)
	Duration    time.Duration // fleet re-run window per scale; 0 = the committed window
	Tolerance   float64       // allowed relative regression; 0 = CheckTolerance
}

// CheckResult is one compared metric.
type CheckResult struct {
	Name      string  `json:"name"`
	Committed float64 `json:"committed"`
	Current   float64 `json:"current"`
	Limit     float64 `json:"limit"` // pass boundary in the metric's own units
	Pass      bool    `json:"pass"`
}

// CheckReport collects every compared metric; Pass is the conjunction.
type CheckReport struct {
	Tolerance float64       `json:"tolerance"`
	Results   []CheckResult `json:"results"`
	Pass      bool          `json:"pass"`
}

func (r *CheckReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "bench-check: tolerance %.0f%%\n", r.Tolerance*100)
	for _, c := range r.Results {
		verdict := "ok"
		if !c.Pass {
			verdict = "REGRESSED"
		}
		fmt.Fprintf(&b, "  %-28s committed %9.2f  current %9.2f  limit %9.2f  %s\n",
			c.Name, c.Committed, c.Current, c.Limit, verdict)
	}
	if r.Pass {
		b.WriteString("  PASS")
	} else {
		b.WriteString("  FAIL")
	}
	return b.String()
}

// checkFloor compares a higher-is-better metric (QPS, goodput) against the
// committed baseline: current must hold (1 - tol) of it.
func checkFloor(name string, committed, current, tol float64) CheckResult {
	limit := committed * (1 - tol)
	return CheckResult{Name: name, Committed: committed, Current: current, Limit: limit, Pass: current >= limit}
}

// checkCeilingGrace compares a lower-is-better latency metric: current must
// stay under committed×(1+tol) plus the absolute grace; a metric with no
// run-to-run noise (the analytic split sweep) passes 0.
func checkCeilingGrace(name string, committed, current, tol, graceMs float64) CheckResult {
	limit := committed*(1+tol) + graceMs
	return CheckResult{Name: name, Committed: committed, Current: current, Limit: limit, Pass: current <= limit}
}

// EvaluateFleetCheck gates the serving fabric: aggregate goodput at the
// largest scale and the scaling factor itself are relative floors, while the
// drill's verdicts are exact and summed over every scale — a rollout that
// hard-fails even one request, leaves one stale-version cache entry or ends
// with the tiers on different versions, an interval with zero goodput, or a
// scale whose tail never recovers after the heal is a regression at any
// tolerance.
func EvaluateFleetCheck(committed, current *FleetReport, tol float64) []CheckResult {
	ct, cu := committed.Scales[len(committed.Scales)-1], current.Scales[len(current.Scales)-1]
	exact := func(name string, count func(FleetScale) int) CheckResult {
		sum := func(r *FleetReport) (n int) {
			for _, s := range r.Scales {
				n += count(s)
			}
			return n
		}
		n := sum(current)
		return CheckResult{Name: name, Committed: float64(sum(committed)), Current: float64(n), Limit: 0, Pass: n == 0}
	}
	flag := func(bad bool) int {
		if bad {
			return 1
		}
		return 0
	}
	return []CheckResult{
		checkFloor("fleet.goodput_max.qps", ct.GoodputQPS, cu.GoodputQPS, tol),
		checkFloor("fleet.scaling_x", committed.ScalingX, current.ScalingX, tol),
		exact("fleet.swap.failed_requests", func(s FleetScale) int { return s.Swap.FailedRequests }),
		exact("fleet.swap.stale_entries", func(s FleetScale) int { return s.Swap.StaleEntries }),
		exact("fleet.swap.split_versions", func(s FleetScale) int { return flag(s.Swap.Version == "") }),
		exact("fleet.zero_goodput_intervals", func(s FleetScale) int { return s.ZeroGoodputIntervals }),
		exact("fleet.unrecovered_scales", func(s FleetScale) int { return flag(!s.Recovered) }),
	}
}

// recheck binds one artifact's "read committed → re-run → evaluate" ("" skips).
func recheck[R any](path string, rerun func(committed *R) (*R, error), evaluate func(committed, current *R, tol float64) []CheckResult) func(tol float64) ([]CheckResult, error) {
	return func(tol float64) ([]CheckResult, error) {
		if path == "" {
			return nil, nil
		}
		var committed R
		if err := readJSON(path, &committed); err != nil {
			return nil, err
		}
		current, err := rerun(&committed)
		if err != nil {
			return nil, fmt.Errorf("bench-check: %s re-run: %w", path, err)
		}
		return evaluate(&committed, current, tol), nil
	}
}

// RunBenchCheck loads the committed artifacts, re-runs each benchmark with
// the committed configuration (the fleet at cfg.Duration when set), and
// compares. A regression is reported in the CheckReport, not as an error —
// errors mean the check itself could not run.
func RunBenchCheck(cfg CheckConfig) (*CheckReport, error) {
	tol := cfg.Tolerance
	if tol <= 0 {
		tol = CheckTolerance
	}
	checks := []func(tol float64) ([]CheckResult, error){
		recheck(cfg.FleetPath, func(c *FleetReport) (*FleetReport, error) {
			if len(c.Scales) == 0 {
				return nil, fmt.Errorf("artifact records no scales")
			}
			scales := make([]int, len(c.Scales))
			for i, s := range c.Scales {
				scales[i] = s.Pairs
			}
			// cfg.Duration exists to shorten the multi-second committed window.
			window := seconds(c.DurationSec)
			if cfg.Duration > 0 {
				window = cfg.Duration
			}
			return RunFleetBench(FleetConfig{
				PairQPS:        c.PairQPS,
				Duration:       window,
				Deadline:       millis(c.DeadlineMs),
				Scales:         scales,
				WorkersPerPair: c.WorkersPerPair,
				NetDelay:       netDelayFromMs(c.NetDelayMs),
				MaxBatch:       c.MaxBatch,
				CacheSize:      c.CacheSize,
			})
		}, EvaluateFleetCheck),
		// The split sweep is analytic (no wall clock), so the committed
		// configuration is just the batch size.
		recheck(cfg.SplitPath, func(c *SplitReport) (*SplitReport, error) {
			return RunSplitBench(SplitBenchConfig{Batch: c.Batch})
		}, EvaluateSplitCheck),
		// The forward windows are already CI-sized (hundreds of ms per model
		// per engine), so the committed window is always used.
		recheck(cfg.ForwardPath, func(c *ForwardReport) (*ForwardReport, error) {
			return RunForwardBench(ForwardBenchConfig{Batch: c.Batch, Duration: seconds(c.DurationSec)})
		}, EvaluateForwardCheck),
	}

	report := &CheckReport{Tolerance: tol, Pass: true}
	for _, check := range checks {
		results, err := check(tol)
		if err != nil {
			return nil, err
		}
		for _, c := range results {
			report.Pass = report.Pass && c.Pass
		}
		report.Results = append(report.Results, results...)
	}
	if len(report.Results) == 0 {
		return nil, fmt.Errorf("bench-check: nothing to check (no artifact paths)")
	}
	return report, nil
}

// seconds and millis turn a report's recorded config back into a duration.
func seconds(v float64) time.Duration { return time.Duration(v * float64(time.Second)) }
func millis(v float64) time.Duration  { return time.Duration(v * float64(time.Millisecond)) }

// netDelayFromMs restores the config's NetDelay from the recorded
// milliseconds; a recorded 0 means no injected delay, which the config spells
// as a negative delay.
func netDelayFromMs(msv float64) time.Duration {
	if msv <= 0 {
		return -1
	}
	return millis(msv)
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("bench-check: %w", err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("bench-check: %s: %w", path, err)
	}
	return nil
}
