package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
)

// report derives the workload's end-to-end values, its validity checks and,
// after a traced round, its per-layer metrics.
func (o *outcome) report(minGood int) {
	o.samples = map[string][]float64{}
	for _, r := range o.rounds {
		o.samples["setup_s"] = append(o.samples["setup_s"], r.setup.Seconds())
		for k := range r.segments {
			for name, v := range endToEnd(&r.segments[k]) {
				o.samples[name] = append(o.samples[name], v)
			}
		}
	}
	o.e2e = map[string]float64{}
	for name, vs := range o.samples {
		o.e2e[name] = steady(name, vs)
	}
	for _, r := range o.all() {
		o.invalid = append(o.invalid, validity(r, minGood)...)
	}
	if o.traced != nil {
		o.layers = o.perLayer()
	}
}

// endToEnd is one segment's value of every end-to-end metric but setup_s.
func endToEnd(s *segment) map[string]float64 {
	good := math.Max(float64(len(s.latencies)), 1)
	return map[string]float64{
		"goodput_rps":    float64(len(s.latencies)) / s.length.Seconds(),
		"latency_p50_ms": percentile(s.latencies, 0.50),
		"latency_p95_ms": percentile(s.latencies, 0.95),
		"cpu_ms_per_req": s.cpu * 1000 / good,
	}
}

// steady reduces a run's samples of one metric of the end-to-end table to
// the value reported. setup_s is the median of the rounds' set-ups. Every
// other metric is its best segment: the shared host this runs on disturbs the
// fleet in bursts of 10 to 30 s that cost up to twice the CPU per request and
// half the goodput, a burst can cover most of a run, and what it adds is
// always on the slow side, so the best segment is the one number that is the
// program's own and repeats from run to run (README.md, "Why the best
// segment").
func steady(name string, vs []float64) float64 {
	switch name {
	case "setup_s":
		return median(vs)
	case "goodput_rps":
		return slices.Max(vs)
	default:
		return slices.Min(vs)
	}
}

// validity holds a round to what its workload is meant to exercise; a round
// that drifts off it measures something else and must not be reported.
func validity(r *roundResult, minGood int) []string {
	var bad []string
	note := func(format string, args ...any) {
		bad = append(bad, fmt.Sprintf("%s round %d: ", r.wl.name, r.round)+fmt.Sprintf(format, args...))
	}
	if r.failed > 0 {
		note("%d of %d requests failed, e.g. %s", r.failed, len(r.requests), strings.Join(r.firstFailures(3), "; "))
	}
	// A disturbed segment may fall short; it is then not the best one either.
	fullest := 0
	for k := range r.segments {
		fullest = max(fullest, len(r.segments[k].latencies))
	}
	if fullest < minGood {
		note("no segment holds more than %d good responses, p95 needs %d", fullest, minGood)
	}
	// Hit share as the clients saw it inside the window (cached: true on the
	// reply); the gateway's own counter must agree that nothing ever hit
	// where inputs never repeat.
	gw := r.after[roleGateway]
	share := float64(r.cachedGood) / math.Max(float64(r.good), 1)
	switch {
	case !r.wl.zipf && (share != 0 || gw["teamnet_serve_cache_hits_total"] != 0):
		note("serve.cache.hit_share is %.4f (%v hits at the gateway), must be exactly 0: inputs never repeat",
			share, gw["teamnet_serve_cache_hits_total"])
	case r.wl.zipf && (share < 0.6 || share > 0.99):
		note("serve.cache.hit_share is %.4f, must be within [0.6, 0.99]", share)
	}
	if r.wl.rows == 16 {
		if m := gw["teamnet_serve_batch_size_sum"] / math.Max(gw["teamnet_serve_batch_size_count"], 1); m != 16 {
			note("serve.queue.batch_rows_mean is %.3f, must be 16 (full batches flush with no linger)", m)
		}
	}
	return bad
}

// perLayer computes every per-layer metric from the traced round: "fleet"
// values are deltas of the processes' /metrics across the window, "probe"
// values are means of the probe spans, "os" values come from /proc.
func (o *outcome) perLayer() map[string]float64 {
	t, p := o.traced, o.probes
	gw := t.after[roleGateway].minus(t.before[roleGateway])
	ms := gw // the gateway is its own master except behind the fabric
	if o.wl.fabric {
		ms = t.after[roleMaster].minus(t.before[roleMaster])
	}
	wk := t.after[roleWorker].minus(t.before[roleWorker])
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	m := map[string]float64{}
	// loadgen: diagnostics of the generator itself.
	var goodputs []float64 // of the untraced rounds, each over its whole window
	for _, r := range o.rounds {
		goodputs = append(goodputs, float64(r.good)/r.window.Seconds())
	}
	sort.Float64s(goodputs)
	untraced := median(goodputs)
	verified := 0
	for _, r := range o.all() {
		verified += r.verified
	}
	m["loadgen.attempted"] = float64(len(t.requests))
	m["loadgen.ok"] = float64(t.good)
	m["loadgen.failed"] = float64(t.failed)
	m["loadgen.latency_p99_ms"] = percentile(t.latencies, 0.99)
	m["loadgen.round_spread_pct"] = 100 * ratio(goodputs[len(goodputs)-1]-goodputs[0], untraced)
	m["loadgen.verify_checked"] = float64(verified)
	m["loadgen.trace_overhead_pct"] = 100 * ratio(untraced-float64(t.good)/t.window.Seconds(), untraced)

	// proc: which process the CPU went to, and peak memory.
	cpu := t.cpu[roleGateway] + t.cpu[roleMaster] + t.cpu[roleWorker]
	m["proc.cpu_ms_per_req"] = ratio(cpu*1000, float64(t.good))
	m["proc.rss_peak_mb"] = t.rssMB
	m["proc.cpu_share.gateway"] = ratio(t.cpu[roleGateway], cpu)
	m["proc.cpu_share.master"] = ratio(t.cpu[roleMaster], cpu)
	m["proc.cpu_share.workers"] = ratio(t.cpu[roleWorker], cpu)

	bodyBytes := float64(len(appendBody(nil, make([]byte, o.wl.features), 0, 0, o.wl.rows)))
	m["serve.http.parse_us"] = p.meanUS("serve.http.parse_us")
	m["serve.http.parse_mb_per_s"] = ratio(bodyBytes, m["serve.http.parse_us"]) // B/µs = MB/s
	m["serve.http.encode_us"] = p.meanUS("serve.http.encode_us")
	m["serve.http.body_kb"] = bodyBytes / 1024

	hits, misses := gw["teamnet_serve_cache_hits_total"], gw["teamnet_serve_cache_misses_total"]
	m["serve.cache.key_hit_us"] = p.meanUS("serve.cache.key_hit_us")
	m["serve.cache.hit_share"] = ratio(hits, hits+misses)
	m["serve.cache.misses"] = misses
	m["serve.cache.evictions"] = gw["teamnet_serve_cache_evictions_total"]
	m["serve.cache.expired"] = gw["teamnet_serve_cache_expired_total"]
	m["serve.cache.coalesced"] = gw["teamnet_serve_cache_coalesced_total"]

	m["serve.queue.wait_us_mean"] = gw.meanUS("serve_queue_wait")
	m["serve.queue.batch_rows_mean"] = ratio(gw["teamnet_serve_batch_size_sum"], gw["teamnet_serve_batch_size_count"])
	m["serve.queue.e2e_us_mean"] = gw.meanUS("serve_e2e")
	m["serve.queue.shed"] = gw["teamnet_serve_shed_queue_full_total"] + gw["teamnet_serve_shed_expired_total"]
	m["serve.queue.timeouts"] = gw["teamnet_serve_timeouts_total"]
	m["serve.queue.overhead_us"] = p.meanUS("serve.queue.overhead_us")

	// The fabric hop exists on edge_single only; elsewhere these are 0.
	if o.wl.fabric {
		m["cluster.fabric.hop_us_mean"] = gw.meanUS("serve_e2e") - gw.meanUS("serve_queue_wait") - ms.meanUS("infer_total")
	} else {
		m["cluster.fabric.hop_us_mean"] = 0
	}
	m["cluster.fabric.requests"] = gw["teamnet_fabric_requests_total"]
	m["cluster.fabric.errors"] = gw["teamnet_fabric_errors_total"]

	m["cluster.infer.total_us_mean"] = ms.meanUS("infer_total")
	m["cluster.infer.serialize_us_mean"] = ms.meanUS("infer_serialize")
	m["cluster.infer.gate_us_mean"] = ms.meanUS("infer_gate")
	m["cluster.infer.local_compute_us_mean"] = ms.meanUS("local_compute")
	m["cluster.peer.rtt_us_mean"] = ms.meanUS("peer_rtt")
	m["cluster.peer.compute_us_mean"] = ms.meanUS("peer_compute")
	m["cluster.peer.network_us_mean"] = ms.meanUS("peer_rtt") - ms.meanUS("peer_compute")
	m["cluster.peer.hedge_fired"] = ms["teamnet_hedge_fired_total"]
	m["cluster.peer.hedge_wasted"] = ms["teamnet_hedge_wasted_total"]
	m["cluster.peer.degraded"] = gw["teamnet_serve_degraded_total"] + ms["teamnet_infer_partial_total"]
	m["cluster.worker.predict_us_mean"] = wk.meanUS("predict")
	m["cluster.worker.requests"] = wk["teamnet_requests_total"]

	m["transport.encode_us"] = p.meanUS("transport.encode_us")
	m["transport.decode_us"] = p.meanUS("transport.decode_us")
	m["transport.request_bytes"] = float64(p.requestB)
	m["transport.result_bytes"] = float64(p.resultB)
	m["nn.forward_us"] = p.meanUS("nn.forward_us")
	m["nn.forward_rows_per_s"] = ratio(float64(o.wl.rows)*1e6, m["nn.forward_us"])
	m["nn.flops_per_row"] = p.flopsPerRow
	m["tensor.gemm_gflops"] = p.gemmGflops
	m["tensor.entropy_us"] = p.meanUS("tensor.entropy_us")

	// The budget: what the probes and histograms explain of the mean client
	// latency. Queue wait, fabric hop and inference are paid by the requests
	// that reached the queue (all of them, except cache hits on zipf_hot).
	o.budget = []budgetLine{
		{"http parse", m["serve.http.parse_us"]},
		{"cache key", m["serve.cache.key_hit_us"]},
		{"queue wait", m["serve.queue.wait_us_mean"]},
		{"fabric hop", m["cluster.fabric.hop_us_mean"]},
		{"infer total", m["cluster.infer.total_us_mean"]},
		{"http encode", m["serve.http.encode_us"]},
	}
	queued := ratio(gw["teamnet_serve_queue_wait_seconds_count"], gw["teamnet_serve_e2e_seconds_count"])
	for i := 2; i <= 4; i++ {
		o.budget[i].us *= queued
	}
	o.meanLatencyUS = 1000 * mean(t.latencies)
	explained := 0.0
	for _, b := range o.budget {
		explained += b.us
	}
	m["budget.residual_share"] = 1 - ratio(explained, o.meanLatencyUS)
	return m
}

type budgetLine struct {
	stage string
	us    float64 // per request, averaged over all requests of the window
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printReport writes the tables and the result line: the per-layer metrics
// after a traced run, the end-to-end metrics otherwise. With more than one
// workload, metric names on the result line are prefixed "<workload>.".
func printReport(w io.Writer, sp *spec, cfg config, outs []*outcome) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	for _, o := range outs {
		fmt.Fprintf(w, "\n== %s   seed %d, %d rounds × %.1f s after %.1f s warm-up, %d closed-loop clients, %d row(s) per request\n",
			o.wl.name, cfg.seed, cfg.rounds, cfg.window.Seconds(), cfg.warm.Seconds(), clients, o.wl.rows)
		attempted, failed := o.counts()
		res.Attempted += attempted
		res.Failed += failed

		fmt.Fprintf(w, "  %-34s %12s  %-6s %-7s %-6s %s\n", "end to end (best segment)", "value", "unit", "better", "bound", "per segment (setup_s: median, per round)")
		var samples []string
		for _, r := range o.rounds {
			for k := range r.segments {
				samples = append(samples, fmt.Sprint(len(r.segments[k].latencies)))
			}
		}
		for _, ms := range sp.EndToEnd {
			v, ok := o.e2e[ms.Name]
			if !ok {
				return nil, fmt.Errorf("BENCHMARK.json lists end-to-end metric %q, which the benchmark does not compute", ms.Name)
			}
			note := ""
			if strings.HasPrefix(ms.Name, "latency_") {
				note = "  (samples " + strings.Join(samples, " ") + ")"
			}
			fmt.Fprintf(w, "  %-34s %12.4f  %-6s %-7s %-6.2f %s%s\n", ms.Name, v, ms.Unit, ms.Better, ms.Bound, fmtValues(o.samples[ms.Name]), note)
			if !cfg.traced {
				res.Metrics[resultKey(outs, o, ms.Name)] = metricValue{v, ms.Unit}
			}
		}
		// Reported beside them but not gated: too unsteady on a shared host
		// (README.md, "Why the best segment"); BENCHMARK.json carries the
		// traced round's value as proc.cpu_ms_per_req.
		fmt.Fprintf(w, "  %-34s %12.4f  %-6s %-7s %-6s %s\n", "cpu_ms_per_req", o.e2e["cpu_ms_per_req"], "ms", "lower", "-", fmtValues(o.samples["cpu_ms_per_req"]))
		fmt.Fprintf(w, "  %-34s %12.6f  %-6s %-7s %-6s %d failed of %d attempted\n", "failed_share", float64(failed)/float64(attempted), "ratio", "lower", "0", failed, attempted)

		if cfg.traced {
			fmt.Fprintf(w, "  %-34s %12s  %-6s %s\n", "per layer (traced round)", "value", "unit", "better")
			for _, ms := range sp.PerLayer {
				v, ok := o.layers[ms.Name]
				if !ok {
					return nil, fmt.Errorf("BENCHMARK.json lists per-layer metric %q, which the benchmark does not compute", ms.Name)
				}
				fmt.Fprintf(w, "  %-34s %12.4f  %-6s %s\n", ms.Name, v, ms.Unit, ms.Better)
				res.Metrics[resultKey(outs, o, ms.Name)] = metricValue{v, ms.Unit}
			}
			fmt.Fprintf(w, "  budget: mean client latency %.0f µs =", o.meanLatencyUS)
			for _, b := range o.budget {
				fmt.Fprintf(w, " %s %.1f%% +", b.stage, 100*b.us/o.meanLatencyUS)
			}
			fmt.Fprintf(w, " residual %.1f%% (HTTP server and client, loopback, scheduling)\n", 100*o.layers["budget.residual_share"])
			fmt.Fprintf(w, "  transport.*_bytes are computed from tensor sizes, tensor.gemm_gflops from 2·m·k·n at %v; spans in benchmark/out/spans-%s.jsonl\n", o.wl.gemm, o.wl.name)
		}
		for _, msg := range o.invalid {
			res.Correct = false
			fmt.Fprintln(w, "  INVALID:", msg)
		}
	}
	for name, mv := range res.Metrics {
		if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, mv.Value)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "\n%s\n", line)
	return res, nil
}

func resultKey(outs []*outcome, o *outcome, metric string) string {
	if len(outs) == 1 {
		return metric
	}
	return o.wl.name + "." + metric
}

func fmtValues(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%.4g", v)
	}
	return strings.Join(parts, " ")
}

// runSelfcheck is the repeatability acceptance test: the whole benchmark
// twice, back to back, and every end-to-end metric of every workload must
// agree between the two sets within its own bound, relative to the smaller
// value. Failures must be equal, which with a correct run means zero.
func runSelfcheck(ctx context.Context, e *env, sp *spec, cfg config) (bool, error) {
	var sets [2][]*outcome
	ok := true
	for i := range sets {
		fmt.Printf("\n#### selfcheck set %d of 2\n", i+1)
		outs, err := run(ctx, e, cfg)
		if err != nil {
			return false, err
		}
		res, err := printReport(os.Stdout, sp, cfg, outs)
		if err != nil {
			return false, err
		}
		ok = ok && res.Correct
		sets[i] = outs
	}
	fmt.Printf("\n#### selfcheck: set 1 vs set 2\n  %-16s %-16s %12s %12s %8s %6s\n", "workload", "metric", "set 1", "set 2", "spread", "bound")
	for w := range sets[0] {
		a, b := sets[0][w], sets[1][w]
		for _, ms := range sp.EndToEnd {
			va, vb := a.e2e[ms.Name], b.e2e[ms.Name]
			spread := math.Abs(va-vb) / math.Min(va, vb)
			verdict := ""
			if spread > ms.Bound {
				verdict = "  FAIL"
				ok = false
			}
			fmt.Printf("  %-16s %-16s %12.4f %12.4f %7.2f%% %5.0f%%%s\n", a.wl.name, ms.Name, va, vb, 100*spread, 100*ms.Bound, verdict)
		}
		_, fa := a.counts()
		_, fb := b.counts()
		if fa != fb {
			fmt.Printf("  %-16s failed: %d vs %d  FAIL\n", a.wl.name, fa, fb)
			ok = false
		}
	}
	if ok {
		fmt.Println("selfcheck passed")
	} else {
		fmt.Println("selfcheck FAILED")
	}
	return ok, nil
}
