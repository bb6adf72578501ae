// Package metrics provides the small measurement kit the live runtime, the
// benchmarks and the CLI tools share:
//
//   - Registry: the one named collection a component keeps and exports as
//     Metrics() — counters, gauges, duration histograms and unitless value
//     histograms by name, created on first use; the zero value works.
//   - Counter: monotonic event counts, the supervisor's retry/redial/breaker
//     accounting. Gauge: instantaneous levels that go up and down — queue
//     depth, in-flight requests, retry-budget tokens.
//   - Histogram: log-2-bucketed distributions with p50/p95/p99 extraction in
//     bounded memory — what the cluster runtime records every round trip,
//     ping and probe into. One type, one bucket array, one Quantile; the
//     unit is fixed at creation: nanoseconds exposed as seconds
//     (Registry.Histogram) or raw counts such as the gateway's batch sizes
//     (Registry.ValueHistogram).
//   - WritePrometheus: the one text exposition of any number of registries
//     for the admin server's /metrics endpoint, mapping the supervisor's
//     "peer.<addr>.<field>" series onto peer-labelled metric families and
//     rendering each histogram from a single pass over its buckets.
//   - Summary: sample-retaining duration statistics for short offline runs
//     (exact percentiles, unbounded memory — fine for a CLI or a benchmark
//     harness, wrong for a server). The one sample quantile in internal/:
//     every live harness in internal/bench reads its p50/p95/p99 here.
//
// The simulated experiments (internal/bench) produce modeled times instead;
// this package measures the real thing when the runtime executes over
// actual sockets.
package metrics

import (
	"fmt"
	"sort"
	"time"
)

// Summary accumulates duration observations and reports order statistics.
// The zero value is ready to use. Not safe for concurrent use.
type Summary struct {
	samples []time.Duration
	sorted  bool
}

// Observe records one duration.
func (s *Summary) Observe(d time.Duration) {
	s.samples = append(s.samples, d)
	s.sorted = false
}

// N returns the number of observations.
func (s *Summary) N() int { return len(s.samples) }

// Mean returns the average duration, or 0 with no samples.
func (s *Summary) Mean() time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	var total time.Duration
	for _, d := range s.samples {
		total += d
	}
	return total / time.Duration(len(s.samples))
}

// Percentile returns the p-th percentile (0 < p ≤ 100) by
// nearest-rank, or 0 with no samples.
func (s *Summary) Percentile(p float64) time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Slice(s.samples, func(i, j int) bool { return s.samples[i] < s.samples[j] })
		s.sorted = true
	}
	rank := int(p/100*float64(len(s.samples))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s.samples) {
		rank = len(s.samples) - 1
	}
	return s.samples[rank]
}

// Max returns the largest observation, or 0 with no samples.
func (s *Summary) Max() time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	return s.Percentile(100)
}

// String renders a one-line digest.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v max=%v",
		s.N(), s.Mean(), s.Percentile(50), s.Percentile(95), s.Max())
}
