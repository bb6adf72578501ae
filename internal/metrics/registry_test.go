package metrics

import (
	"io"
	"sync"
	"testing"
)

func TestCounterConcurrentInc(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
}

func TestRegistryCreatesOnFirstUse(t *testing.T) {
	var r Registry // the zero value must work
	r.Counter("a").Add(3)
	r.Counter("a").Inc()
	r.Counter("b").Inc()
	if a, b := r.Counter("a").Value(), r.Counter("b").Value(); a != 4 || b != 1 {
		t.Fatalf("a=%d b=%d, want 4 and 1", a, b)
	}
	g := r.Gauge("depth")
	g.Set(2)
	g.Inc()
	g.Dec()
	if got := r.Gauge("depth").Value(); got != 2 {
		t.Fatalf("gauge = %d, want 2", got)
	}
	// Same name and kind must return the same metric.
	if r.Counter("a") != r.Counter("a") || r.Gauge("depth") != g ||
		r.Histogram("h") != r.Histogram("h") || r.ValueHistogram("v") != r.ValueHistogram("v") {
		t.Fatal("accessor not stable for a repeated name")
	}
	// The kinds are separate namespaces: one name, four series.
	r.Gauge("a").Set(9)
	r.Histogram("a").Observe(1)
	r.ValueHistogram("a").Observe(1)
	if r.Counter("a").Value() != 4 || r.Gauge("a").Value() != 9 || r.Histogram("a") == r.ValueHistogram("a") {
		t.Fatal("kinds share a namespace")
	}
}

func TestRegistryStringSorted(t *testing.T) {
	var r Registry
	r.Counter("zeta").Inc()
	r.Counter("alpha").Add(2)
	if got := r.String(); got != "alpha=2\nzeta=1\n" {
		t.Fatalf("String() = %q", got)
	}
	// Counters, then gauges, then duration and value histograms.
	r.ValueHistogram("rows").Observe(4)
	r.Histogram("rtt")
	r.Gauge("depth").Set(-1)
	want := "alpha=2\nzeta=1\ndepth=-1\n" +
		"rtt: n=0 mean=0s p50=0s p95=0s p99=0s\n" +
		"rows: n=1 mean=4.00 p50=4.0 p95=4.0 p99=4.0\n"
	if got := r.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// TestRegistryConcurrentAccess hammers all four kinds through one handle
// while String and the exposition writer walk the registry.
func TestRegistryConcurrentAccess(t *testing.T) {
	var r Registry
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Counter("shared").Inc()
				r.Gauge("shared").Inc()
				r.Histogram("shared").Observe(int64(j))
				r.ValueHistogram("shared").Observe(int64(j))
				_ = r.String()
				_ = WritePrometheus(io.Discard, &r)
			}
		}()
	}
	wg.Wait()
	for kind, got := range map[string]int64{
		"counter":         r.Counter("shared").Value(),
		"gauge":           r.Gauge("shared").Value(),
		"histogram":       r.Histogram("shared").Count(),
		"value histogram": r.ValueHistogram("shared").Count(),
	} {
		if got != 2000 {
			t.Errorf("shared %s = %d, want 2000", kind, got)
		}
	}
}
