package chaos

import (
	"net"
	"sync"
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/transport"
)

// echoServer answers every frame with the same type and payload — enough
// protocol to measure what the proxy does to a request/response exchange.
type echoServer struct {
	ln net.Listener
	wg sync.WaitGroup
}

func startEcho(t *testing.T) (*echoServer, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &echoServer{ln: ln}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer conn.Close()
				for {
					typ, payload, err := transport.ReadFrame(conn)
					if err != nil {
						return
					}
					if err := transport.WriteFrame(conn, typ, payload); err != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() { ln.Close(); s.wg.Wait() })
	return s, ln.Addr().String()
}

// exchange performs one framed round trip through addr with a deadline.
func exchange(t *testing.T, addr string, payload []byte, timeout time.Duration) ([]byte, error) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		t.Fatal(err)
	}
	if err := transport.WriteFrame(conn, 7, payload); err != nil {
		return nil, err
	}
	_, got, err := transport.ReadFrame(conn)
	return got, err
}

func TestProxyTransparentWithEmptyPlan(t *testing.T) {
	_, target := startEcho(t)
	p := New(target)
	addr, err := p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	got, err := exchange(t, addr, []byte("hello"), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("echo through proxy = %q", got)
	}
	if p.Metrics().Counter("conns.accepted").Value() != 1 {
		t.Fatal("accepted counter not bumped")
	}
}

func TestProxyLatencyDelaysRoundTrip(t *testing.T) {
	_, target := startEcho(t)
	p := New(target, Fault{Mode: Latency, Delay: 60 * time.Millisecond})
	addr, err := p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	start := time.Now()
	if _, err := exchange(t, addr, []byte("x"), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Two directions, ≥ 60ms each.
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Fatalf("round trip took %v, latency not injected", elapsed)
	}
}

func TestProxyResetBreaksConnection(t *testing.T) {
	_, target := startEcho(t)
	p := New(target, Fault{Mode: Reset, Prob: 1})
	addr, err := p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := exchange(t, addr, []byte("x"), 2*time.Second); err == nil {
		t.Fatal("exchange through reset-everything proxy succeeded")
	}
	if p.Metrics().Counter("injected.reset").Value() == 0 {
		t.Fatal("reset counter not bumped")
	}
}

func TestProxyStallTimesOutClient(t *testing.T) {
	_, target := startEcho(t)
	p := New(target, Fault{Mode: Stall, Prob: 1})
	addr, err := p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	start := time.Now()
	_, err = exchange(t, addr, []byte("x"), 200*time.Millisecond)
	if err == nil {
		t.Fatal("exchange through stalled proxy succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("stalled exchange took %v, deadline not honoured", elapsed)
	}
}

func TestProxyTruncateCutsFrame(t *testing.T) {
	_, target := startEcho(t)
	p := New(target, Fault{Mode: Truncate, Prob: 1})
	addr, err := p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := exchange(t, addr, make([]byte, 4096), time.Second); err == nil {
		t.Fatal("exchange through truncating proxy succeeded")
	}
	if p.Metrics().Counter("injected.truncate").Value() == 0 {
		t.Fatal("truncate counter not bumped")
	}
}

func TestProxyCorruptFlipsBytes(t *testing.T) {
	_, target := startEcho(t)
	p := New(target, Fault{Mode: Corrupt, Prob: 1})
	addr, err := p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	payload := make([]byte, 1024)
	got, err := exchange(t, addr, payload, 2*time.Second)
	// Either the flip hit a frame header (read error) or the payload came
	// back damaged — silent success with intact bytes is the only failure.
	if err == nil {
		same := len(got) == len(payload)
		if same {
			for i := range got {
				if got[i] != payload[i] {
					same = false
					break
				}
			}
		}
		if same {
			t.Fatal("corrupting proxy delivered intact bytes")
		}
	}
	if p.Metrics().Counter("injected.corrupt").Value() == 0 {
		t.Fatal("corrupt counter not bumped")
	}
}

func TestProxyDropNthConnection(t *testing.T) {
	_, target := startEcho(t)
	p := New(target, Fault{Mode: DropNth, N: 2})
	addr, err := p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	failures := 0
	for i := 0; i < 6; i++ {
		if _, err := exchange(t, addr, []byte("x"), time.Second); err != nil {
			failures++
		}
	}
	if failures != 3 {
		t.Fatalf("dropnth:2 failed %d of 6 connections, want 3", failures)
	}
}

func TestProxyHealRestoresService(t *testing.T) {
	_, target := startEcho(t)
	p := New(target, Fault{Mode: Reset, Prob: 1})
	addr, err := p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := exchange(t, addr, []byte("x"), time.Second); err == nil {
		t.Fatal("broken proxy let a request through")
	}
	p.Heal()
	got, err := exchange(t, addr, []byte("again"), 2*time.Second)
	if err != nil {
		t.Fatalf("healed proxy still failing: %v", err)
	}
	if string(got) != "again" {
		t.Fatalf("healed echo = %q", got)
	}
}

func TestParseFault(t *testing.T) {
	cases := []struct {
		spec string
		want Fault
	}{
		{"latency:50ms", Fault{Mode: Latency, Delay: 50 * time.Millisecond}},
		{"stall:0.3", Fault{Mode: Stall, Prob: 0.3}},
		{"reset:1", Fault{Mode: Reset, Prob: 1}},
		{"truncate:0.5", Fault{Mode: Truncate, Prob: 0.5}},
		{"corrupt:0.05", Fault{Mode: Corrupt, Prob: 0.05}},
		{"dropnth:3", Fault{Mode: DropNth, N: 3}},
	}
	for _, c := range cases {
		got, err := ParseFault(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if got != c.want {
			t.Fatalf("%s parsed to %+v, want %+v", c.spec, got, c.want)
		}
	}
	for _, bad := range []string{"", "reset", "reset:2", "reset:-0.1", "latency:fast", "dropnth:0", "gremlins:1"} {
		if _, err := ParseFault(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}

func TestParsePlan(t *testing.T) {
	plan, err := ParsePlan("latency:10ms, reset:0.2")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 2 || plan[0].Mode != Latency || plan[1].Mode != Reset {
		t.Fatalf("plan = %+v", plan)
	}
	empty, err := ParsePlan("")
	if err != nil || empty != nil {
		t.Fatalf("empty plan = %+v, %v", empty, err)
	}
	if _, err := ParsePlan("latency:10ms,bogus"); err == nil {
		t.Fatal("bad plan accepted")
	}
}
