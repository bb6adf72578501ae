package bench

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/serve"
	"github.com/teamnet/teamnet/internal/tensor"
)

// The generator against fake calls: no sockets, so these run under -short
// and -race.

func noRow(int) *tensor.Tensor { return nil }

func offeredOf(loads []Load) []int {
	out := make([]int, len(loads))
	for i, l := range loads {
		out[i] = l.Offered
	}
	return out
}

// TestLoadOfferedIsOpenLoop pins the open-loop property: Offered is a pure
// function of (seed, rate, window) — per bucket, not just in total — and a
// system that answers nothing until the deadline is offered exactly as much
// as one that answers at once.
func TestLoadOfferedIsOpenLoop(t *testing.T) {
	spec := loadSpec{
		qps: 2000, window: 150 * time.Millisecond, deadline: 60 * time.Millisecond,
		seed: 9, bucket: 50 * time.Millisecond, pick: noRow,
	}
	spec.call = func(context.Context, int, *tensor.Tensor) (bool, error) { return false, nil }
	_, fast := spec.run()
	spec.call = func(ctx context.Context, _ int, _ *tensor.Tensor) (bool, error) {
		<-ctx.Done()
		return false, ctx.Err()
	}
	_, blocked := spec.run()

	if len(fast) != 3 || fast[0].Offered == 0 {
		t.Fatalf("want 3 buckets with arrivals, got %+v", fast)
	}
	if !reflect.DeepEqual(offeredOf(fast), offeredOf(blocked)) {
		t.Fatalf("offered depends on the system under test: %v answering at once, %v blocked to the deadline",
			offeredOf(fast), offeredOf(blocked))
	}
	for i, l := range blocked {
		if l.Completed != 0 || l.GoodputQPS != 0 {
			t.Fatalf("bucket %d completed requests that only ever timed out: %+v", i, l)
		}
	}
	spec.seed = 10
	if _, other := spec.run(); reflect.DeepEqual(offeredOf(other), offeredOf(blocked)) {
		t.Fatal("a different seed drew the identical arrival process")
	}
}

// TestLoadOutcomeClasses sends every outcome through the generator by
// arrival index: each lands in its own counter, the four that partition the
// arrivals sum to Offered, Degraded stays a part of Completed, and the
// context handed to the call carries the per-request deadline.
func TestLoadOutcomeClasses(t *testing.T) {
	const deadline = 100 * time.Millisecond
	var badDeadline, rowMismatch atomic.Int64
	rng := tensor.NewRNG(1)
	rows := make([]*tensor.Tensor, 5)
	for i := range rows {
		rows[i] = rng.Randn(1, 4)
	}
	total, loads := loadSpec{
		qps: 1000, window: 100 * time.Millisecond, deadline: deadline, seed: 3, pick: func(i int) *tensor.Tensor { return rows[i%5] },
		call: func(ctx context.Context, i int, x *tensor.Tensor) (bool, error) {
			if dl, ok := ctx.Deadline(); !ok || time.Until(dl) > deadline || time.Until(dl) < deadline/2 {
				badDeadline.Add(1)
			}
			if x != rows[i%5] {
				rowMismatch.Add(1)
			}
			switch i % 5 {
			case 0:
				return false, nil
			case 1:
				return true, nil
			case 2:
				return false, fmt.Errorf("admission: %w", serve.ErrQueueFull)
			case 3:
				<-ctx.Done()
				return false, ctx.Err()
			}
			return false, errors.New("boom")
		},
	}.run()

	if len(loads) != 1 {
		t.Fatalf("no bucket width set, want one bucket, got %d", len(loads))
	}
	l := loads[0]
	if total != l {
		t.Fatalf("one bucket is the whole window, but the total differs:\n total %+v\nbucket %+v", total, l)
	}
	// Arrival i has class i%5, so class c was offered ceil((Offered-c)/5) times.
	class := func(c int) int { return (l.Offered - c + 4) / 5 }
	want := Load{
		Offered: l.Offered, Completed: class(0) + class(1), Degraded: class(1),
		Shed: class(2), TimedOut: class(3), Errors: class(4),
	}
	want.GoodputQPS = float64(want.Completed) / 0.1
	want.P50Ms, want.P95Ms, want.P99Ms = l.P50Ms, l.P95Ms, l.P99Ms
	if l.Offered < 50 || l != want {
		t.Fatalf("outcome classes misfiled:\n got %+v\nwant %+v", l, want)
	}
	if l.Completed+l.TimedOut+l.Shed+l.Errors != l.Offered {
		t.Fatalf("outcome counters do not partition the %d arrivals: %+v", l.Offered, l)
	}
	if n := badDeadline.Load(); n != 0 {
		t.Fatalf("%d calls saw a context without the %v per-request deadline", n, deadline)
	}
	if n := rowMismatch.Load(); n != 0 {
		t.Fatalf("%d calls got a row other than the one picked for their arrival", n)
	}
}

// TestLoadBuckets pins the time-series accounting with a call that takes
// exactly one bucket width: arrivals are counted where they arrive,
// completions where they finish, a finish after the window clamps to the
// last bucket, and the short last bucket divides by its real width.
func TestLoadBuckets(t *testing.T) {
	const width = 100 * time.Millisecond
	total, loads := loadSpec{
		qps: 400, window: 250 * time.Millisecond, deadline: time.Second, seed: 5, bucket: width, pick: noRow,
		call: func(context.Context, int, *tensor.Tensor) (bool, error) {
			time.Sleep(width)
			return false, nil
		},
	}.run()

	if len(loads) != 3 {
		t.Fatalf("250ms in 100ms buckets: want 3 buckets, got %d", len(loads))
	}
	a, b, c := loads[0], loads[1], loads[2]
	if a.Offered == 0 || b.Offered == 0 || c.Offered == 0 {
		t.Fatalf("a bucket saw no arrivals: %v", offeredOf(loads))
	}
	// Every request finishes at least one bucket after it arrived; the last
	// bucket also takes whatever finished past the window.
	if a.Completed != 0 || b.Completed > a.Offered || c.Completed < b.Offered+c.Offered {
		t.Fatalf("completions not counted by finish time: offered %v, completed [%d %d %d]",
			offeredOf(loads), a.Completed, b.Completed, c.Completed)
	}
	if got, want := a.Completed+b.Completed+c.Completed, a.Offered+b.Offered+c.Offered; got != want {
		t.Fatalf("%d completions for %d arrivals", got, want)
	}
	if total.Offered != a.Offered+b.Offered+c.Offered || total.Completed != total.Offered {
		t.Fatalf("whole-window total %+v does not sum the buckets' %v arrivals", total, offeredOf(loads))
	}
	if want := float64(total.Completed) / 0.25; total.GoodputQPS != want {
		t.Fatalf("whole-window goodput %v, want %v over the 250ms window", total.GoodputQPS, want)
	}
	if want := float64(b.Completed) / 0.1; b.GoodputQPS != want {
		t.Fatalf("full bucket goodput %v, want %v", b.GoodputQPS, want)
	}
	if want := float64(c.Completed) / 0.05; c.GoodputQPS != want {
		t.Fatalf("last bucket is 50ms wide: goodput %v, want %v", c.GoodputQPS, want)
	}
	if c.P50Ms < 100 {
		t.Fatalf("p50 %vms of requests that each took 100ms", c.P50Ms)
	}
}
