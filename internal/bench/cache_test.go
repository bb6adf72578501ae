package bench

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// TestRunCacheBenchSmoke runs a miniature of each two-mode open-loop
// comparison — direct-vs-gateway and uncached-vs-cached: both modes must be
// offered the same arrivals and complete requests, the cached mode must
// actually hit the cache on the Zipf-skewed key stream, and the reports must
// round-trip through JSON (they are the committed BENCH_serve.json /
// BENCH_cache.json schemas). The acceptance speedups are asserted by the
// bench-serve / bench-cache make targets at real duration and load, not
// here — a 300ms CI window at low QPS never pushes the slower mode past its
// ceiling.
func TestRunCacheBenchSmoke(t *testing.T) {
	const window = 300 * time.Millisecond
	for _, tc := range []struct {
		name string
		run  func(t *testing.T) (first, second Load, speedup float64, report any)
	}{
		{"serve", func(t *testing.T) (Load, Load, float64, any) {
			r, err := RunServeBench(ServeBenchConfig{
				TargetQPS: 1500,
				Duration:  window,
				NetDelay:  -1, // no injected delay keeps the smoke fast
				Seed:      7,
			})
			if err != nil {
				t.Fatal(err)
			}
			if r.Direct.Mode != "direct" || r.Gateway.Mode != "gateway" || r.MeanBatchRows < 1 {
				t.Fatalf("modes mislabelled or the gateway's batch size unread: %+v", r)
			}
			return r.Direct.Load, r.Gateway.Load, r.Speedup, r
		}},
		{"cache", func(t *testing.T) (Load, Load, float64, any) {
			r, err := RunCacheBench(CacheBenchConfig{
				QPS:      1500,
				Duration: window,
				Deadline: 300 * time.Millisecond,
				NetDelay: -1,
				KeySpace: 32,
				Seed:     7,
			})
			if err != nil {
				t.Fatal(err)
			}
			if r.Uncached.CacheHits != 0 {
				t.Fatalf("uncached mode recorded cache hits: %+v", r.Uncached)
			}
			if r.Cached.CacheHits == 0 {
				t.Fatalf("cached mode never hit on a 32-key Zipf stream: %+v", r.Cached)
			}
			return r.Uncached.Load, r.Cached.Load, r.Speedup, r
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first, second, speedup, report := tc.run(t)
			for _, m := range []Load{first, second} {
				if m.Offered == 0 || m.Completed == 0 {
					t.Fatalf("a mode completed nothing: %+v", m)
				}
				if m.GoodputQPS != float64(m.Completed)/window.Seconds() {
					t.Fatalf("goodput %v is not completions over the offered window: %+v", m.GoodputQPS, m)
				}
			}
			if first.Offered != second.Offered {
				t.Fatalf("the two modes were offered different loads: %d vs %d", first.Offered, second.Offered)
			}
			if speedup <= 0 {
				t.Fatalf("speedup %v not computed", speedup)
			}
			raw, err := json.Marshal(report)
			if err != nil {
				t.Fatal(err)
			}
			back := reflect.New(reflect.TypeOf(report).Elem()).Interface()
			if err := json.Unmarshal(raw, back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back, report) {
				t.Fatalf("report did not round-trip through JSON:\n%+v\n%+v", report, back)
			}
		})
	}
}
