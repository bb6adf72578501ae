package metrics

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonic event counter safe for concurrent use. The cluster
// supervisor bumps these on every retry, redial, breaker trip and probe so
// operators can see *why* a degraded inference run behaved the way it did.
// The zero value is ready to use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (the runtime only counts up).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous level safe for concurrent use — the value goes
// up and down, unlike a Counter. The mux transport reports its in-flight
// request count and window queue depth through gauges, so a scrape shows
// the pipeline's current pressure rather than a lifetime total. The zero
// value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Set replaces the current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// kind separates a registry's namespaces — the same name may be a counter
// and a histogram, and both series are kept — and fixes the order String
// and WritePrometheus walk them in.
type kind int

const (
	counterKind kind = iota
	gaugeKind
	durationKind
	valueKind
	numKinds
)

// Registry is the one named collection of metrics a component keeps:
// counters, gauges, duration histograms and unitless value histograms, each
// created at zero the first time its name is asked for. The zero value is
// ready to use and safe for concurrent use.
//
// A request looks several names up and a name is registered once, so the
// table is copy-on-write: lookups are one atomic load and a map read, with
// no lock for concurrent requests to queue on, and only registration takes
// the mutex and publishes a grown copy.
type Registry struct {
	mu sync.Mutex                               // serialises registration
	m  atomic.Pointer[[numKinds]map[string]any] // *Counter, *Gauge, *Histogram, *Histogram; never mutated once stored
}

// metric returns the k-kind metric registered under name, registering
// create() on first use.
func metric[T any](r *Registry, k kind, name string, create func() *T) *T {
	if v, ok := r.table()[k][name]; ok {
		return v.(*T)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	next := r.table()
	if v, ok := next[k][name]; ok { // registered while this caller waited
		return v.(*T)
	}
	next[k] = maps.Clone(next[k])
	if next[k] == nil {
		next[k] = make(map[string]any)
	}
	v := create()
	next[k][name] = v
	r.m.Store(&next)
	return v
}

// table returns the published maps (all nil before the first registration).
func (r *Registry) table() (t [numKinds]map[string]any) {
	if p := r.m.Load(); p != nil {
		t = *p
	}
	return t
}

// Counter returns the counter registered under name, creating it at zero on
// first use.
func (r *Registry) Counter(name string) *Counter {
	return metric(r, counterKind, name, func() *Counter { return new(Counter) })
}

// Gauge returns the gauge registered under name, creating it at zero on
// first use.
func (r *Registry) Gauge(name string) *Gauge {
	return metric(r, gaugeKind, name, func() *Gauge { return new(Gauge) })
}

// Histogram returns the duration histogram registered under name, creating
// it empty on first use. Observations are nanoseconds (see Observe); the
// exposition renders them as <name>_seconds.
func (r *Registry) Histogram(name string) *Histogram {
	return metric(r, durationKind, name, func() *Histogram { return new(Histogram) })
}

// Observe records one duration into the histogram registered under name.
func (r *Registry) Observe(name string, d time.Duration) {
	r.Histogram(name).Observe(int64(d))
}

// ValueHistogram returns the unitless histogram registered under name —
// batch sizes, row counts — creating it empty on first use.
func (r *Registry) ValueHistogram(name string) *Histogram {
	return metric(r, valueKind, name, func() *Histogram { return &Histogram{raw: true} })
}

// series is one registered metric as String and WritePrometheus see it.
type series struct {
	name   string
	metric any
}

// sorted lists every registered metric by kind, then name.
func (r *Registry) sorted() []series {
	var out []series
	for _, m := range r.table() {
		for name, v := range m {
			out = append(out, series{name, v})
		}
		ofKind := out[len(out)-len(m):]
		sort.Slice(ofKind, func(i, j int) bool { return ofKind[i].name < ofKind[j].name })
	}
	return out
}

// String renders every metric, one per line, by kind then name: counters
// and gauges as "name=value" — the block the CLIs print at shutdown —
// and histograms as "name: <digest>".
func (r *Registry) String() string {
	var b strings.Builder
	for _, s := range r.sorted() {
		switch v := s.metric.(type) {
		case *Histogram:
			fmt.Fprintf(&b, "%s: %s\n", s.name, v)
		case interface{ Value() int64 }:
			fmt.Fprintf(&b, "%s=%d\n", s.name, v.Value())
		}
	}
	return b.String()
}
