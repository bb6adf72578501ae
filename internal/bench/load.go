package bench

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"

	"github.com/teamnet/teamnet/internal/metrics"
	"github.com/teamnet/teamnet/internal/serve"
	"github.com/teamnet/teamnet/internal/tensor"
)

// Open-loop load generator: the one instrument the serve, cache, soak and
// fleet harnesses measure with. Single-row requests arrive on a Poisson
// clock — exponential gaps paced against absolute time — whether or not
// earlier ones have finished, so a slow system cannot slow the clock down;
// that back-pressure immunity is the whole point of open loop. Every request
// carries its own deadline and ends in exactly one outcome class; goodput
// and the latency quantiles are defined here and nowhere else.

// Load is what one bucket of an open-loop run measured. Offered counts
// arrivals by their scheduled arrival time, so it is a pure function of
// (seed, rate, window); every other field counts by finish time, a finish
// after the window landing in the last bucket. Completed, TimedOut, Shed and
// Errors partition the arrivals; Degraded is the part of Completed answered
// by a partial ensemble. GoodputQPS is Completed over the width of the
// bucket — the offered window, never the drain tail after the last arrival,
// which is longest for whichever side is losing.
type Load struct {
	Offered    int     `json:"offered"`
	Completed  int     `json:"completed"` // answered without error under the request deadline
	Degraded   int     `json:"degraded"`
	TimedOut   int     `json:"timed_out"`
	Shed       int     `json:"shed"`   // rejected at gateway admission
	Errors     int     `json:"errors"` // hard failures: not timeouts, not shed
	GoodputQPS float64 `json:"goodput_qps"`
	P50Ms      float64 `json:"p50_ms"` // of completed requests, timed from the send
	P95Ms      float64 `json:"p95_ms"`
	P99Ms      float64 `json:"p99_ms"`
}

// step is one entry of a scripted timeline: fn runs at offset at into the
// measured window.
type step struct {
	at time.Duration
	fn func()
}

// loadSpec describes one open-loop run.
type loadSpec struct {
	qps      int           // offered Poisson arrival rate, requests/second
	window   time.Duration // arrivals stop here; in-flight requests drain after
	deadline time.Duration // per-request context deadline
	seed     int64         // arrival-process seed
	bucket   time.Duration // time-series bucket width; 0 = one bucket, the window
	// pick chooses arrival i's input. It runs on the arrival goroutine, so a
	// seeded choice (a Zipf key) is drawn in arrival order whatever the
	// requests in flight are doing.
	pick func(i int) *tensor.Tensor
	// call makes arrival i's request on its own goroutine.
	call func(ctx context.Context, i int, x *tensor.Tensor) (degraded bool, err error)
	// timeline runs beside the load, in order (ascending at); steps not yet
	// due when the last request finishes are dropped.
	timeline []step
}

// loadBucket accumulates one bucket concurrently.
type loadBucket struct {
	mu sync.Mutex
	Load
	lat metrics.Summary
}

// buckets is how many Loads run returns and how wide each but the last is.
func (s loadSpec) buckets() (n int, width time.Duration) {
	width = s.bucket
	if width <= 0 || width > s.window {
		width = s.window
	}
	return int((s.window + width - 1) / width), width
}

// run offers the load and returns one Load per bucket.
func (s loadSpec) run() []Load {
	n, width := s.buckets()
	buckets := make([]loadBucket, n)
	start := time.Now()
	index := func(t time.Time) int {
		return min(int(t.Sub(start)/width), len(buckets)-1)
	}

	fire := func(i int, x *tensor.Tensor) {
		ctx, cancel := context.WithTimeout(context.Background(), s.deadline)
		defer cancel()
		sent := time.Now()
		degraded, err := s.call(ctx, i, x)
		done := time.Now()
		b := &buckets[index(done)]
		b.mu.Lock()
		defer b.mu.Unlock()
		switch {
		case err == nil:
			b.Completed++
			if degraded {
				b.Degraded++
			}
			b.lat.Observe(done.Sub(sent))
		case errors.Is(err, serve.ErrQueueFull):
			b.Shed++
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			b.TimedOut++
		default:
			b.Errors++
		}
	}

	stop, scripted := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scripted)
		for _, st := range s.timeline {
			select {
			case <-time.After(time.Until(start.Add(st.at))):
				st.fn()
			case <-stop:
				return
			}
		}
	}()

	arrivals := rand.New(rand.NewSource(s.seed))
	offered := make([]int, len(buckets)) // arrival goroutine only
	end := start.Add(s.window)
	next := start
	var wg sync.WaitGroup
	for i := 0; ; i++ {
		next = next.Add(time.Duration(arrivals.ExpFloat64() / float64(s.qps) * float64(time.Second)))
		if next.After(end) {
			break
		}
		time.Sleep(time.Until(next))
		offered[index(next)]++
		x := s.pick(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			fire(i, x)
		}()
	}
	wg.Wait()
	close(stop)
	<-scripted

	loads := make([]Load, len(buckets))
	for i := range buckets {
		b := &buckets[i]
		if i == len(buckets)-1 {
			width = s.window - time.Duration(i)*width // the last bucket may be short
		}
		loads[i] = b.Load
		loads[i].Offered = offered[i]
		loads[i].GoodputQPS = float64(b.Completed) / width.Seconds()
		loads[i].P50Ms = ms(b.lat.Percentile(50))
		loads[i].P95Ms = ms(b.lat.Percentile(95))
		loads[i].P99Ms = ms(b.lat.Percentile(99))
	}
	return loads
}

// cycle picks rows round-robin by arrival index.
func cycle(rows []*tensor.Tensor) func(int) *tensor.Tensor {
	return func(i int) *tensor.Tensor { return rows[i%len(rows)] }
}

// predict adapts Gateway.Predict to loadSpec.call, spreading arrivals
// round-robin when there are several gateways.
func predict(gateways ...*serve.Gateway) func(context.Context, int, *tensor.Tensor) (bool, error) {
	return func(ctx context.Context, i int, x *tensor.Tensor) (bool, error) {
		res, err := gateways[i%len(gateways)].Predict(ctx, x)
		return res.Degraded, err
	}
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
