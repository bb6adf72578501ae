package main

import (
	"bufio"
	"bytes"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/cli"
	"github.com/teamnet/teamnet/internal/cluster"
	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/tensor"
)

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

var servingLine = regexp.MustCompile(`^serving expert \d+/\d+ \(.*\) on (\S+), election id \d+, model (\S+)$`)

// node is one running teamnet-node process.
type node struct {
	cmd   *exec.Cmd
	out   *lockedBuffer
	addr  string
	model string        // the label it printed
	done  chan struct{} // closed once stdout hit EOF
}

// startNode runs the binary with args and waits for its serving line.
func startNode(t *testing.T, bin string, args ...string) node {
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
	t.Cleanup(func() { cmd.Process.Kill() })
	n := node{cmd: cmd, out: new(lockedBuffer), done: make(chan struct{})}
	serving := make(chan []string, 1)
	go func() {
		defer close(n.done)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			n.out.WriteString(sc.Text() + "\n")
			if m := servingLine.FindStringSubmatch(sc.Text()); m != nil {
				serving <- m
			}
		}
	}()
	select {
	case m := <-serving:
		n.addr, n.model = m[1], m[2]
	case <-n.done:
		t.Fatalf("teamnet-node %s exited before serving:\n%s", strings.Join(args, " "), n.out)
	case <-time.After(30 * time.Second):
		t.Fatalf("teamnet-node %s never printed its serving line:\n%s", strings.Join(args, " "), n.out)
	}
	return n
}

// TestNodeBinaryElectsAnnouncesSwapsAndServes drives two built nodes the way
// a fleet does — B bootstraps against A — and every exchange a process
// starts with a node: an election, membership announces, a version-only
// model push and a master's query. An interrupt must then make both exit 0
// without a panic.
func TestNodeBinaryElectsAnnouncesSwapsAndServes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries")
	}
	dir := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", dir+string(filepath.Separator), ".", "../teamnet-train").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	bundlePath := filepath.Join(dir, "team.tnet")
	train := exec.Command(filepath.Join(dir, "teamnet-train"), "-dataset", "digits", "-k", "2", "-n", "100", "-epochs", "1", "-out", bundlePath)
	if out, err := train.CombinedOutput(); err != nil {
		t.Fatalf("teamnet-train: %v\n%s", err, out)
	}
	bundle, err := cli.ReadBundle(bundlePath)
	if err != nil {
		t.Fatal(err)
	}
	_, model, err := bundle.Load(0)
	if err != nil {
		t.Fatal(err)
	}

	bin := filepath.Join(dir, "teamnet-node")
	a := startNode(t, bin, "-team", bundlePath, "-expert", "0", "-id", "1", "-listen", "127.0.0.1:0")
	b := startNode(t, bin, "-team", bundlePath, "-expert", "1", "-id", "2", "-listen", "127.0.0.1:0",
		"-bootstrap", a.addr, "-announce-every", "100ms")
	if a.model != model.Version {
		t.Fatalf("node A serves model %s, the bundle's expert 0 is %s", a.model, model.Version)
	}

	if isLeader, leader, err := cluster.ElectLeader(0, []string{a.addr, b.addr}); err != nil || isLeader || leader != 2 {
		t.Fatalf("election among ids 0, 1, 2: leader %d (isLeader %v), %v; want 2", leader, isLeader, err)
	}

	self := cluster.Member{Role: cluster.RoleGateway}
	roster := cluster.NewRoster()
	announce := func() cluster.Member {
		t.Helper()
		from, err := cluster.Announce(a.addr, self, roster, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return from
	}
	if from := announce(); from.Addr != a.addr || from.Version != model.Version {
		t.Fatalf("node A announced itself as %+v, want %s serving %s", from, a.addr, model.Version)
	}
	knowsB := func() bool {
		for _, m := range roster.Snapshot() {
			if m.Addr == b.addr {
				return true
			}
		}
		return false
	}
	for deadline := time.Now().Add(time.Second); !knowsB(); time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("node A's gossip never listed node B within a second: %+v", roster.Snapshot())
		}
		announce()
	}

	if err := cluster.PushModel(a.addr, "v2", nn.Spec{}, nil, time.Second); err != nil {
		t.Fatal(err)
	}
	if from := announce(); from.Version != "v2" {
		t.Fatalf("node A announces version %q after the push, want v2", from.Version)
	}

	snap := model.Snapshot
	master := cluster.NewMaster(nil, snap.BoundaryWidth(snap.Steps()))
	defer master.Close()
	if err := master.Connect(a.addr); err != nil {
		t.Fatal(err)
	}
	probs, _, err := master.Infer(tensor.NewRNG(1).Randn(1, snap.BoundaryWidth(0)))
	if err != nil {
		t.Fatal(err)
	}
	if probs.Rows() != 1 {
		t.Fatalf("answer of %d rows to one query", probs.Rows())
	}

	for name, n := range map[string]node{"A": a, "B": b} {
		if err := n.cmd.Process.Signal(syscall.SIGINT); err != nil {
			t.Fatal(err)
		}
		<-n.done
		if err := n.cmd.Wait(); err != nil {
			t.Fatalf("node %s after SIGINT: %v\n%s", name, err, n.out)
		}
		if strings.Contains(n.out.String(), "panic:") {
			t.Fatalf("node %s panicked:\n%s", name, n.out)
		}
	}
}
