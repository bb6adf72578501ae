package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/cluster"
	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/serve"
	"github.com/teamnet/teamnet/internal/tensor"
)

// TestHealthyVerdict: a team's gateway is degraded by any quarantined peer; a
// front only when no master is in rotation — one master down leaves every
// front over the same masters in its load balancer.
func TestHealthyVerdict(t *testing.T) {
	peers := func(states ...cluster.PeerState) []cluster.PeerHealth {
		out := make([]cluster.PeerHealth, len(states))
		for i, s := range states {
			out[i] = cluster.PeerHealth{State: s}
		}
		return out
	}
	for _, c := range []struct {
		name  string
		front bool
		peers []cluster.PeerHealth
		want  bool
	}{
		{"team, no peers", false, nil, true},
		{"team, suspect peer", false, peers(cluster.PeerHealthy, cluster.PeerSuspect), true},
		{"team, one peer open", false, peers(cluster.PeerHealthy, cluster.PeerOpen), false},
		{"front, no masters", true, nil, false},
		{"front, one of two open", true, peers(cluster.PeerOpen, cluster.PeerHealthy), true},
		{"front, all quarantined", true, peers(cluster.PeerOpen, cluster.PeerHalfOpen), false},
	} {
		if got := healthy(c.front, c.peers); got != c.want {
			t.Errorf("%s: healthy = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestCutoverSwapsWeightsOnASingleNode drives the cutover -swap-watch calls
// on the setup its flag help names: a master with a local expert, a
// co-located gateway, and no fabric endpoint. The served answer for a fixed
// input must become the new weights' answer, and the gateway's label must
// move with it.
func TestCutoverSwapsWeightsOnASingleNode(t *testing.T) {
	spec := nn.Spec{Kind: "mlp", MLP: &nn.MLPSpec{Label: "m", Input: 4, Width: 4, Layers: 2, Classes: 3}}
	compile := func(s nn.Spec, seed int64) *nn.Snapshot {
		net, err := s.Build(tensor.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		return nn.MustSnapshot(net)
	}
	snapA, snapB := compile(spec, 1), compile(spec, 2)

	master := cluster.NewMaster(nil, 3)
	defer master.Close()
	if err := master.SetLocal(cluster.Model{Snapshot: snapA, Version: "aaaa/e0"}); err != nil {
		t.Fatal(err)
	}
	gw := serve.New(master, serve.Config{MaxBatch: 4, QueueSize: 8, Workers: 1, CacheSize: 16})
	defer gw.Close()
	gw.SetModelVersion("aaaa")
	cutover := newCutover(master, gw)

	x := tensor.NewRNG(3).Randn(1, 4)
	serves := func(snap *nn.Snapshot, when string) {
		t.Helper()
		res, err := gw.Predict(context.Background(), x)
		if err != nil {
			t.Fatal(err)
		}
		if want := snap.Predict(x); !res.Probs.AllClose(want, 0) {
			t.Fatalf("%s the gateway answers %v, the weights it should serve give %v", when, res.Probs.Data, want.Data)
		}
	}
	serves(snapA, "before the cutover")

	if err := cutover(cluster.Model{Snapshot: snapB, Version: "bbbb/e0"}); err != nil {
		t.Fatal(err)
	}
	if got := gw.ModelVersion(); got != "bbbb" {
		t.Fatalf("gateway label %q after the cutover, want the new bundle's label bbbb", got)
	}
	if got := master.Local().Version; got != "bbbb/e0" {
		t.Fatalf("master pins %q after the cutover, want bbbb/e0", got)
	}
	serves(snapB, "after the cutover")

	// A bundle of another geometry is refused whole: weights, pin and cache
	// key all stay.
	spec.MLP.Classes = 5
	if err := cutover(cluster.Model{Snapshot: compile(spec, 4), Version: "cccc/e0"}); err == nil {
		t.Fatal("5-class model accepted by a 3-class master")
	}
	if got := gw.ModelVersion(); got != "bbbb" {
		t.Fatalf("refused cutover moved the gateway label to %q", got)
	}
	serves(snapB, "after a refused cutover")
}

// lockedBuffer collects a child's output while a scanner goroutine is still
// appending to it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) WriteString(s string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.b.WriteString(s)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// proc is one running binary of the fleet and the addresses it printed,
// keyed by the capture group's name in the pattern startProc waited for.
type proc struct {
	cmd  *exec.Cmd
	out  *lockedBuffer
	addr map[string]string
}

var (
	nodeReady  = regexp.MustCompile(`^serving expert \d+/\d+ \(.*\) on (?P<listen>\S+),`)
	fabricLine = regexp.MustCompile(`^fabric endpoint on (?P<fabric>\S+) `)
	adminLine  = regexp.MustCompile(`^admin endpoint on http://(?P<admin>\S+) `)
	serveReady = regexp.MustCompile(`^gateway on http://(?P<listen>\S+)/predict `)
)

// startProc runs bin with args and returns once it printed a line matching
// ready, with the named groups of every line matching one of lines or ready.
func startProc(t *testing.T, bin string, ready *regexp.Regexp, lines []*regexp.Regexp, args ...string) *proc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
	p := &proc{cmd: cmd, out: new(lockedBuffer), addr: map[string]string{}}
	readyc, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		sc := bufio.NewScanner(stdout)
		for isReady := false; sc.Scan(); {
			line := sc.Text()
			p.out.WriteString(line + "\n")
			// p.addr is the test's once readyc is closed.
			for _, re := range append(lines, ready) {
				if m := re.FindStringSubmatch(line); m != nil && !isReady {
					for i, name := range re.SubexpNames()[1:] {
						p.addr[name] = m[i+1]
					}
					if re == ready {
						isReady = true
						close(readyc)
					}
				}
			}
		}
	}()
	select {
	case <-readyc:
	case <-done:
		t.Fatalf("%s %s exited before it was ready:\n%s", filepath.Base(bin), strings.Join(args, " "), p.out)
	case <-time.After(30 * time.Second):
		t.Fatalf("%s %s was not ready after 30 s:\n%s", filepath.Base(bin), strings.Join(args, " "), p.out)
	}
	return p
}

// get returns the status and body of GET http://addr+path.
func get(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// predict posts one fresh digits-sized row to the gateway at addr.
func predict(t *testing.T, addr string, mark int) (int, []byte) {
	t.Helper()
	row := make([]float64, 784)
	row[mark%784] = 1
	body, _ := json.Marshal(map[string]any{"x": [][]float64{row}})
	resp, err := http.Post("http://"+addr+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out
}

// TestFrontGatewayBinary runs the edge_single topology from real binaries:
// a teamnet-node worker → a team's teamnet-serve with a fabric endpoint → a
// front teamnet-serve routing to it by -masters. The front answers through
// the hop, its /metrics carries the hop's counters and the master's peer
// series, and its /healthz goes 503 once its only master is gone. A process
// that asks to be both a team's gateway and a front refuses to start.
func TestFrontGatewayBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries")
	}
	dir := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", dir+string(filepath.Separator), ".", "../teamnet-train", "../teamnet-node").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	bundle := filepath.Join(dir, "team.tnet")
	train := exec.Command(filepath.Join(dir, "teamnet-train"), "-dataset", "digits", "-k", "2", "-n", "100", "-epochs", "1", "-out", bundle)
	if out, err := train.CombinedOutput(); err != nil {
		t.Fatalf("teamnet-train: %v\n%s", err, out)
	}
	nodeBin, serveBin := filepath.Join(dir, "teamnet-node"), filepath.Join(dir, "teamnet-serve")

	worker := startProc(t, nodeBin, nodeReady, nil, "-team", bundle, "-expert", "1", "-id", "1", "-listen", "127.0.0.1:0")
	master := startProc(t, serveBin, serveReady, []*regexp.Regexp{fabricLine, adminLine},
		"-team", bundle, "-local", "0", "-peers", worker.addr["listen"],
		"-listen", "127.0.0.1:0", "-admin", "127.0.0.1:0", "-fabric-listen", "127.0.0.1:0")
	fabric := master.addr["fabric"]
	front := startProc(t, serveBin, serveReady, []*regexp.Regexp{adminLine},
		"-team", bundle, "-local", "-1", "-masters", fabric, "-listen", "127.0.0.1:0", "-admin", "127.0.0.1:0")

	for i := range 4 {
		code, body := predict(t, front.addr["listen"], i)
		var res struct {
			Winners []int     `json:"winners"`
			Entropy []float64 `json:"entropy"`
		}
		if err := json.Unmarshal(body, &res); code != http.StatusOK || err != nil || len(res.Winners) != 1 || len(res.Entropy) != 1 {
			t.Fatalf("front /predict %d: HTTP %d %s (%v), want 200 with one winner and entropy", i, code, body, err)
		}
	}
	_, metrics := get(t, front.addr["admin"], "/metrics")
	var requests float64
	if _, err := fmt.Sscanf(metrics[strings.Index(metrics, "\nteamnet_fabric_requests_total ")+1:], "teamnet_fabric_requests_total %g", &requests); err != nil || requests < 4 {
		t.Fatalf("front /metrics: teamnet_fabric_requests_total %v (%v), want ≥ 4", requests, err)
	}
	if rtt := fmt.Sprintf("teamnet_peer_rtt_seconds_count{peer=%q} ", fabric); !strings.Contains(metrics, rtt) {
		t.Fatalf("front /metrics has no %s series", rtt)
	}
	if code, body := get(t, front.addr["admin"], "/healthz"); code != http.StatusOK {
		t.Fatalf("front /healthz with its master up: %d %s", code, body)
	}

	master.cmd.Process.Kill()
	master.cmd.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; ; i++ {
		if code, _ := predict(t, front.addr["listen"], 100+i); code == http.StatusOK {
			t.Fatal("front answered 200 with its only master dead")
		}
		code, body := get(t, front.addr["admin"], "/healthz")
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("front /healthz still %d after its master died: %s", code, body)
		}
	}

	mixed := exec.Command(serveBin, "-team", bundle, "-local", "0", "-masters", fabric, "-listen", "127.0.0.1:0")
	if out, err := mixed.CombinedOutput(); err == nil || !strings.Contains(string(out), "-masters makes a front gateway") {
		t.Fatalf("-local 0 with -masters: %v\n%s; want a start-up refusal", err, out)
	}
}
