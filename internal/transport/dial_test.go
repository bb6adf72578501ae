package transport

import (
	"math/rand"
	"net"
	"testing"
	"time"
)

func TestDialSuccessAndRefused(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if _, err := Dial("127.0.0.1:1", 200*time.Millisecond); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestBackoffScheduleDoublesAndCaps(t *testing.T) {
	b := &Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond}
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for i, w := range want {
		if got := b.Delay(i); got != w*time.Millisecond {
			t.Fatalf("Delay(%d) = %v, want %v", i, got, w*time.Millisecond)
		}
	}
	if got := b.Delay(-3); got != 10*time.Millisecond {
		t.Fatalf("Delay(-3) = %v", got)
	}
	// A huge attempt index must saturate, not overflow.
	if got := b.Delay(200); got != 80*time.Millisecond {
		t.Fatalf("Delay(200) = %v", got)
	}
}

// Seed makes the jitter stream deterministic.
func (b *Backoff) Seed(seed int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.rng = rand.New(rand.NewSource(seed))
}

func TestBackoffJitterStaysInBand(t *testing.T) {
	b := &Backoff{Base: 100 * time.Millisecond, Max: time.Second, Jitter: 0.5}
	b.Seed(1)
	lo, hi := 50*time.Millisecond, 100*time.Millisecond
	varied := false
	prev := time.Duration(-1)
	for i := 0; i < 50; i++ {
		d := b.Delay(0)
		if d < lo || d > hi {
			t.Fatalf("jittered delay %v outside [%v, %v]", d, lo, hi)
		}
		if prev >= 0 && d != prev {
			varied = true
		}
		prev = d
	}
	if !varied {
		t.Fatal("jitter produced a constant schedule")
	}
}

func TestBackoffSleepCancels(t *testing.T) {
	b := &Backoff{Base: time.Hour, Max: time.Hour}
	done := make(chan struct{})
	close(done)
	start := time.Now()
	if b.Sleep(0, done) {
		t.Fatal("cancelled sleep reported completion")
	}
	if time.Since(start) > time.Second {
		t.Fatal("cancelled sleep actually slept")
	}
}
