package metrics

import (
	"bufio"
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// units is the table every bucket test runs over: the same histogram code
// in both of its units. scale is one "step" of the unit — 1µs of a duration
// histogram's nanoseconds, 1 of a value histogram's counts — so bucket i's
// bound is scale<<i in both rows.
var units = []struct {
	name  string
	new   func() *Histogram
	scale int64
}{
	{"duration", func() *Histogram { return new(Registry).Histogram("h") }, int64(time.Microsecond)},
	{"raw", func() *Histogram { return new(Registry).ValueHistogram("h") }, 1},
}

func TestHistogramCountSumMean(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Mean() != 0 {
		t.Fatal("zero-value histogram not empty")
	}
	h.Observe(int64(2 * time.Millisecond))
	h.Observe(int64(4 * time.Millisecond))
	h.Observe(-1) // clamps to 0: counted, adds nothing
	if h.Count() != 3 {
		t.Errorf("count = %d", h.Count())
	}
	if time.Duration(h.Sum()) != 6*time.Millisecond {
		t.Errorf("sum = %v", time.Duration(h.Sum()))
	}
	if time.Duration(h.Mean()) != 2*time.Millisecond {
		t.Errorf("mean = %v", time.Duration(h.Mean()))
	}
}

// TestHistogramQuantilesKnownDistribution feeds a known distribution —
// 1000 samples uniform over (0, 100000 steps], 0.1ms..100ms in the duration
// row — and checks the extracted quantiles against the true values within
// log-bucket resolution (the holding bucket's factor-2 bounds).
func TestHistogramQuantilesKnownDistribution(t *testing.T) {
	for _, u := range units {
		h := u.new()
		for i := 1; i <= 1000; i++ {
			h.Observe(int64(i) * 100 * u.scale)
		}
		for _, pct := range []int64{50, 95, 99} {
			got, truth := h.Quantile(float64(pct)/100), float64(pct*1000*u.scale)
			// The true value's bucket is [bound(i-1), bound(i)]; the estimate
			// must land in the same factor-2 bucket.
			if got < truth/2 || got > truth*2 {
				t.Errorf("%s: q%d = %v, want within a factor 2 of true %v", u.name, pct, got, truth)
			}
		}
		// Quantiles are monotone in q.
		if !(h.Quantile(0.5) <= h.Quantile(0.95) && h.Quantile(0.95) <= h.Quantile(0.99)) {
			t.Errorf("%s: quantiles not monotone: p50=%v p95=%v p99=%v", u.name,
				h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99))
		}
	}
}

func TestHistogramQuantileExactBucket(t *testing.T) {
	for _, u := range units {
		h := u.new()
		// All mass in one bucket: every quantile must land inside its bounds.
		for i := 0; i < 100; i++ {
			h.Observe(3000 * u.scale) // bucket (2048, 4096] steps: 3ms in (2.048ms, 4.096ms]
		}
		for _, q := range []float64{0.01, 0.5, 0.99, 1} {
			got := h.Quantile(q)
			if got <= float64(2048*u.scale) || got > float64(4096*u.scale) {
				t.Errorf("%s: Quantile(%g) = %v, outside holding bucket (2048, 4096]·%d", u.name, q, got, u.scale)
			}
		}
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	for _, u := range units {
		h := u.new()
		h.Observe(int64(100 * time.Hour)) // beyond the last finite bound in either unit
		if h.Count() != 1 {
			t.Fatalf("%s: count = %d", u.name, h.Count())
		}
		if got, last := h.Quantile(1), float64(u.scale<<(histBuckets-1)); got != last {
			t.Errorf("%s: overflow quantile = %v, want saturation at %v", u.name, got, last)
		}
	}
}

func TestRegistryHistograms(t *testing.T) {
	var r Registry
	r.Histogram("a.rtt").Observe(int64(time.Millisecond))
	r.Histogram("a.rtt").Observe(int64(time.Millisecond))
	r.Histogram("b.rtt").Observe(int64(time.Second))
	if got := r.Histogram("a.rtt").Count(); got != 2 {
		t.Errorf("a.rtt count = %d", got)
	}
	out := r.String()
	if !strings.Contains(out, "a.rtt: n=2 mean=1ms") || strings.Index(out, "a.rtt") > strings.Index(out, "b.rtt") {
		t.Errorf("String() = %q", out)
	}
}

// promLine matches one exposition line: a metric name with optional labels
// followed by a number.
var promLine = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*(\{[^{}]*\})? (NaN|[-+0-9.eE]+|\+Inf)$`)

// TestWritePrometheusParses renders a realistic counter + histogram mix and
// checks the output line by line: every line must match the exposition
// grammar, per-peer series must be labelled, histogram buckets must be
// cumulative and capped by _count.
func TestWritePrometheusParses(t *testing.T) {
	var r Registry
	r.Counter("peer.127.0.0.1:7001.requests").Add(5)
	r.Counter("peer.127.0.0.1:7001.failures").Add(2)
	r.Counter("route.skipped_quarantined").Add(1)
	r.Gauge("mux.inflight").Set(3)
	r.Gauge("mux.queue_depth").Set(0)
	for i := 1; i <= 100; i++ {
		r.Histogram("peer.127.0.0.1:7001.rtt").Observe(int64(time.Duration(i) * time.Millisecond))
		r.Histogram("infer.total").Observe(int64(time.Duration(i) * 2 * time.Millisecond))
	}

	var b strings.Builder
	if err := WritePrometheus(&b, &r, nil); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	lines := 0
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		lines++
		if !promLine.MatchString(line) {
			t.Errorf("line %d does not parse as prometheus exposition: %q", lines, line)
		}
	}
	if lines < 10 {
		t.Fatalf("suspiciously few lines (%d):\n%s", lines, out)
	}

	for _, want := range []string{
		`teamnet_peer_requests_total{peer="127.0.0.1:7001"} 5`,
		`teamnet_route_skipped_quarantined_total 1`,
		`teamnet_mux_inflight 3`,
		`teamnet_mux_queue_depth 0`,
		`teamnet_infer_total_seconds_count 100`,
		`teamnet_peer_rtt_seconds_bucket{peer="127.0.0.1:7001",le="+Inf"} 100`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}

	// Bucket series must be cumulative (non-decreasing) and end at count.
	var prev int64 = -1
	bucketRe := regexp.MustCompile(`^teamnet_infer_total_seconds_bucket\{le="([^"]+)"\} (\d+)$`)
	found := 0
	for _, line := range strings.Split(out, "\n") {
		m := bucketRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		found++
		var v int64
		fmt.Sscanf(m[2], "%d", &v)
		if v < prev {
			t.Errorf("bucket counts not cumulative at le=%s: %d < %d", m[1], v, prev)
		}
		prev = v
	}
	if found == 0 {
		t.Fatal("no bucket lines found for infer.total")
	}
	if prev != 100 {
		t.Errorf("final cumulative bucket = %d, want 100", prev)
	}
}

// goldenExposition is what the writers this package had before Registry
// (one for counters, gauges and duration histograms, a second for value
// histograms, over four per-kind set types) printed for the population
// TestWritePrometheusGolden builds, captured from that commit: every shape
// the roles emit. Dashboards and the repo's benchmark scrape these names,
// so a changed line here is a changed contract.
const goldenExposition = `teamnet_peer_retries_total{peer="127.0.0.1:7001"} 2
teamnet_predict_total 5
teamnet_serve_cache_hits_total 42
teamnet_serve_shed_queue_full_total 3
teamnet_retry_budget_tokens -1
teamnet_serve_queue_depth 7
teamnet_infer_total_seconds_bucket{le="1e-06"} 0
teamnet_infer_total_seconds_bucket{le="2e-06"} 0
teamnet_infer_total_seconds_bucket{le="4e-06"} 0
teamnet_infer_total_seconds_bucket{le="8e-06"} 0
teamnet_infer_total_seconds_bucket{le="1.6e-05"} 0
teamnet_infer_total_seconds_bucket{le="3.2e-05"} 0
teamnet_infer_total_seconds_bucket{le="6.4e-05"} 0
teamnet_infer_total_seconds_bucket{le="0.000128"} 0
teamnet_infer_total_seconds_bucket{le="0.000256"} 0
teamnet_infer_total_seconds_bucket{le="0.000512"} 0
teamnet_infer_total_seconds_bucket{le="0.001024"} 0
teamnet_infer_total_seconds_bucket{le="0.002048"} 0
teamnet_infer_total_seconds_bucket{le="0.004096"} 0
teamnet_infer_total_seconds_bucket{le="0.008192"} 1
teamnet_infer_total_seconds_bucket{le="0.016384"} 1
teamnet_infer_total_seconds_bucket{le="0.032768"} 1
teamnet_infer_total_seconds_bucket{le="0.065536"} 1
teamnet_infer_total_seconds_bucket{le="0.131072"} 1
teamnet_infer_total_seconds_bucket{le="0.262144"} 1
teamnet_infer_total_seconds_bucket{le="0.524288"} 1
teamnet_infer_total_seconds_bucket{le="1.048576"} 1
teamnet_infer_total_seconds_bucket{le="2.097152"} 1
teamnet_infer_total_seconds_bucket{le="4.194304"} 1
teamnet_infer_total_seconds_bucket{le="8.388608"} 1
teamnet_infer_total_seconds_bucket{le="16.777216"} 1
teamnet_infer_total_seconds_bucket{le="33.554432"} 1
teamnet_infer_total_seconds_bucket{le="67.108864"} 1
teamnet_infer_total_seconds_bucket{le="134.217728"} 1
teamnet_infer_total_seconds_bucket{le="268.435456"} 1
teamnet_infer_total_seconds_bucket{le="536.870912"} 1
teamnet_infer_total_seconds_bucket{le="1073.741824"} 1
teamnet_infer_total_seconds_bucket{le="+Inf"} 2
teamnet_infer_total_seconds_sum 360000.005
teamnet_infer_total_seconds_count 2
teamnet_peer_rtt_seconds_bucket{peer="127.0.0.1:7001",le="1e-06"} 0
teamnet_peer_rtt_seconds_bucket{peer="127.0.0.1:7001",le="2e-06"} 0
teamnet_peer_rtt_seconds_bucket{peer="127.0.0.1:7001",le="4e-06"} 0
teamnet_peer_rtt_seconds_bucket{peer="127.0.0.1:7001",le="8e-06"} 0
teamnet_peer_rtt_seconds_bucket{peer="127.0.0.1:7001",le="1.6e-05"} 0
teamnet_peer_rtt_seconds_bucket{peer="127.0.0.1:7001",le="3.2e-05"} 0
teamnet_peer_rtt_seconds_bucket{peer="127.0.0.1:7001",le="6.4e-05"} 0
teamnet_peer_rtt_seconds_bucket{peer="127.0.0.1:7001",le="0.000128"} 0
teamnet_peer_rtt_seconds_bucket{peer="127.0.0.1:7001",le="0.000256"} 0
teamnet_peer_rtt_seconds_bucket{peer="127.0.0.1:7001",le="0.000512"} 0
teamnet_peer_rtt_seconds_bucket{peer="127.0.0.1:7001",le="0.001024"} 1
teamnet_peer_rtt_seconds_bucket{peer="127.0.0.1:7001",le="0.002048"} 1
teamnet_peer_rtt_seconds_bucket{peer="127.0.0.1:7001",le="0.004096"} 2
teamnet_peer_rtt_seconds_bucket{peer="127.0.0.1:7001",le="+Inf"} 2
teamnet_peer_rtt_seconds_sum{peer="127.0.0.1:7001"} 0.0032
teamnet_peer_rtt_seconds_count{peer="127.0.0.1:7001"} 2
teamnet_predict_seconds_bucket{le="1e-06"} 0
teamnet_predict_seconds_bucket{le="2e-06"} 0
teamnet_predict_seconds_bucket{le="4e-06"} 0
teamnet_predict_seconds_bucket{le="8e-06"} 0
teamnet_predict_seconds_bucket{le="1.6e-05"} 0
teamnet_predict_seconds_bucket{le="3.2e-05"} 0
teamnet_predict_seconds_bucket{le="6.4e-05"} 0
teamnet_predict_seconds_bucket{le="0.000128"} 0
teamnet_predict_seconds_bucket{le="0.000256"} 1
teamnet_predict_seconds_bucket{le="0.000512"} 1
teamnet_predict_seconds_bucket{le="+Inf"} 1
teamnet_predict_seconds_sum 0.00025
teamnet_predict_seconds_count 1
teamnet_serve_dispatch_wait_seconds_bucket{le="1e-06"} 0
teamnet_serve_dispatch_wait_seconds_bucket{le="2e-06"} 0
teamnet_serve_dispatch_wait_seconds_bucket{le="4e-06"} 0
teamnet_serve_dispatch_wait_seconds_bucket{le="8e-06"} 0
teamnet_serve_dispatch_wait_seconds_bucket{le="1.6e-05"} 0
teamnet_serve_dispatch_wait_seconds_bucket{le="3.2e-05"} 0
teamnet_serve_dispatch_wait_seconds_bucket{le="6.4e-05"} 0
teamnet_serve_dispatch_wait_seconds_bucket{le="0.000128"} 0
teamnet_serve_dispatch_wait_seconds_bucket{le="0.000256"} 0
teamnet_serve_dispatch_wait_seconds_bucket{le="0.000512"} 0
teamnet_serve_dispatch_wait_seconds_bucket{le="+Inf"} 0
teamnet_serve_dispatch_wait_seconds_sum 0
teamnet_serve_dispatch_wait_seconds_count 0
teamnet_serve_e2e_seconds_bucket{le="1e-06"} 0
teamnet_serve_e2e_seconds_bucket{le="2e-06"} 0
teamnet_serve_e2e_seconds_bucket{le="4e-06"} 0
teamnet_serve_e2e_seconds_bucket{le="8e-06"} 0
teamnet_serve_e2e_seconds_bucket{le="1.6e-05"} 0
teamnet_serve_e2e_seconds_bucket{le="3.2e-05"} 0
teamnet_serve_e2e_seconds_bucket{le="6.4e-05"} 0
teamnet_serve_e2e_seconds_bucket{le="0.000128"} 0
teamnet_serve_e2e_seconds_bucket{le="0.000256"} 0
teamnet_serve_e2e_seconds_bucket{le="0.000512"} 0
teamnet_serve_e2e_seconds_bucket{le="0.001024"} 1
teamnet_serve_e2e_seconds_bucket{le="0.002048"} 1
teamnet_serve_e2e_seconds_bucket{le="0.004096"} 3
teamnet_serve_e2e_seconds_bucket{le="0.008192"} 3
teamnet_serve_e2e_seconds_bucket{le="0.016384"} 3
teamnet_serve_e2e_seconds_bucket{le="0.032768"} 3
teamnet_serve_e2e_seconds_bucket{le="0.065536"} 4
teamnet_serve_e2e_seconds_bucket{le="+Inf"} 4
teamnet_serve_e2e_seconds_sum 0.047
teamnet_serve_e2e_seconds_count 4
teamnet_serve_batch_size_bucket{le="1"} 1
teamnet_serve_batch_size_bucket{le="2"} 1
teamnet_serve_batch_size_bucket{le="4"} 1
teamnet_serve_batch_size_bucket{le="8"} 2
teamnet_serve_batch_size_bucket{le="16"} 4
teamnet_serve_batch_size_bucket{le="32"} 4
teamnet_serve_batch_size_bucket{le="64"} 4
teamnet_serve_batch_size_bucket{le="128"} 4
teamnet_serve_batch_size_bucket{le="256"} 4
teamnet_serve_batch_size_bucket{le="512"} 4
teamnet_serve_batch_size_bucket{le="1024"} 4
teamnet_serve_batch_size_bucket{le="2048"} 5
teamnet_serve_batch_size_bucket{le="+Inf"} 5
teamnet_serve_batch_size_sum 2038
teamnet_serve_batch_size_count 5
teamnet_serve_idle_bucket{le="1"} 0
teamnet_serve_idle_bucket{le="2"} 0
teamnet_serve_idle_bucket{le="4"} 0
teamnet_serve_idle_bucket{le="8"} 0
teamnet_serve_idle_bucket{le="16"} 0
teamnet_serve_idle_bucket{le="32"} 0
teamnet_serve_idle_bucket{le="64"} 0
teamnet_serve_idle_bucket{le="128"} 0
teamnet_serve_idle_bucket{le="256"} 0
teamnet_serve_idle_bucket{le="512"} 0
teamnet_serve_idle_bucket{le="+Inf"} 0
teamnet_serve_idle_sum 0
teamnet_serve_idle_count 0
teamnet_serve_rows_bucket{le="1"} 0
teamnet_serve_rows_bucket{le="2"} 0
teamnet_serve_rows_bucket{le="4"} 1
teamnet_serve_rows_bucket{le="8"} 1
teamnet_serve_rows_bucket{le="16"} 1
teamnet_serve_rows_bucket{le="32"} 1
teamnet_serve_rows_bucket{le="64"} 1
teamnet_serve_rows_bucket{le="128"} 1
teamnet_serve_rows_bucket{le="256"} 1
teamnet_serve_rows_bucket{le="512"} 1
teamnet_serve_rows_bucket{le="1024"} 1
teamnet_serve_rows_bucket{le="2048"} 1
teamnet_serve_rows_bucket{le="4096"} 1
teamnet_serve_rows_bucket{le="8192"} 1
teamnet_serve_rows_bucket{le="16384"} 1
teamnet_serve_rows_bucket{le="32768"} 1
teamnet_serve_rows_bucket{le="65536"} 1
teamnet_serve_rows_bucket{le="131072"} 1
teamnet_serve_rows_bucket{le="262144"} 1
teamnet_serve_rows_bucket{le="524288"} 1
teamnet_serve_rows_bucket{le="1048576"} 1
teamnet_serve_rows_bucket{le="2097152"} 1
teamnet_serve_rows_bucket{le="4194304"} 1
teamnet_serve_rows_bucket{le="8388608"} 1
teamnet_serve_rows_bucket{le="16777216"} 1
teamnet_serve_rows_bucket{le="33554432"} 1
teamnet_serve_rows_bucket{le="67108864"} 1
teamnet_serve_rows_bucket{le="134217728"} 1
teamnet_serve_rows_bucket{le="268435456"} 1
teamnet_serve_rows_bucket{le="536870912"} 1
teamnet_serve_rows_bucket{le="1073741824"} 1
teamnet_serve_rows_bucket{le="+Inf"} 2
teamnet_serve_rows_sum 1099511627779
teamnet_serve_rows_count 2
`

// TestWritePrometheusGolden pins the exposition against text captured
// before the registry existed. Lines are compared sorted: the order across
// kinds and registries is not part of the contract.
func TestWritePrometheusGolden(t *testing.T) {
	var a, b Registry // two registries through the one writer
	a.Counter("serve.cache.hits").Add(42)
	a.Counter("serve.shed.queue_full").Add(3) // dotted multi-level name
	b.Counter("peer.127.0.0.1:7001.retries").Add(2)
	b.Counter("predict").Add(5) // same name as a histogram below: both kept
	a.Gauge("serve.queue_depth").Set(7)
	b.Gauge("retry_budget.tokens").Set(-1)
	for _, ms := range []int{1, 3, 3, 40} {
		a.Histogram("serve.e2e").Observe(int64(time.Duration(ms) * time.Millisecond))
	}
	b.Histogram("peer.127.0.0.1:7001.rtt").Observe(int64(700 * time.Microsecond))
	b.Histogram("peer.127.0.0.1:7001.rtt").Observe(int64(2500 * time.Microsecond))
	b.Histogram("predict").Observe(int64(250 * time.Microsecond))
	b.Histogram("infer.total").Observe(int64(5 * time.Millisecond))
	b.Histogram("infer.total").Observe(int64(100 * time.Hour)) // overflow
	a.Histogram("serve.dispatch_wait")                         // empty
	for _, v := range []int64{1, 16, 16, 5, 2000} {
		a.ValueHistogram("serve.batch_size").Observe(v)
	}
	a.ValueHistogram("serve.rows").Observe(3)
	a.ValueHistogram("serve.rows").Observe(1 << 40) // overflow
	a.ValueHistogram("serve.idle")                  // empty

	var out strings.Builder
	if err := WritePrometheus(&out, &a, &b); err != nil {
		t.Fatal(err)
	}
	got := strings.Split(strings.TrimSpace(out.String()), "\n")
	want := strings.Split(strings.TrimSpace(goldenExposition), "\n")
	sort.Strings(got)
	sort.Strings(want)
	for i := 0; i < len(got) || i < len(want); i++ {
		switch {
		case i >= len(got):
			t.Fatalf("missing line %q", want[i])
		case i >= len(want):
			t.Fatalf("extra line %q", got[i])
		case got[i] != want[i]:
			t.Fatalf("sorted line %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestWritePrometheusConsistentUnderLoad scrapes in a loop while writers
// observe into both histogram units: every rendered histogram must have
// non-decreasing le counts, a last finite bucket no larger than +Inf, and
// +Inf equal to _count — what promql's histogram_quantile assumes. Three
// separate reads of a moving count (the pre-registry writer) fail this.
func TestWritePrometheusConsistentUnderLoad(t *testing.T) {
	var r Registry
	e2e, batch := r.Histogram("serve.e2e"), r.ValueHistogram("serve.batch_size")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := int64(g); ; v = (v*5 + 1) % (1 << 33) { // finite buckets and overflow alike
				select {
				case <-stop:
					return
				default:
				}
				e2e.Observe(v * int64(time.Microsecond))
				batch.Observe(v)
			}
		}()
	}
	for i := 0; i < 2000 && !t.Failed(); i++ {
		var b strings.Builder
		if err := WritePrometheus(&b, &r); err != nil {
			t.Fatal(err)
		}
		last := map[string]int64{} // family → the previous bucket's count; after +Inf, +Inf's
		for _, l := range strings.Split(b.String(), "\n") {
			series, value, _ := strings.Cut(l, " ")
			v, _ := strconv.ParseInt(value, 10, 64)
			if fam, le, ok := strings.Cut(series, "_bucket{"); ok {
				if v < last[fam] {
					t.Errorf("scrape %d: %s %s = %d below the previous bucket's %d", i, fam, le, v, last[fam])
				}
				last[fam] = v
			} else if fam, ok := strings.CutSuffix(series, "_count"); ok && v != last[fam] {
				t.Errorf("scrape %d: %s_count = %d but le=\"+Inf\" = %d", i, fam, v, last[fam])
			}
		}
		if len(last) != 2 {
			t.Fatalf("scrape %d saw %d histogram families, want 2:\n%s", i, len(last), b.String())
		}
	}
	close(stop)
	wg.Wait()
}

func TestPeerSeriesSplit(t *testing.T) {
	addr, field, ok := peerSeries("peer.127.0.0.1:7001.rtt")
	if !ok || addr != "127.0.0.1:7001" || field != "rtt" {
		t.Errorf("got addr=%q field=%q ok=%v", addr, field, ok)
	}
	if _, _, ok := peerSeries("infer.total"); ok {
		t.Error("non-peer name matched peer pattern")
	}
	if _, _, ok := peerSeries("peer.x"); ok {
		t.Error("malformed peer name matched")
	}
}
