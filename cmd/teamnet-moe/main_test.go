package main

import (
	"bufio"
	"bytes"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
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

var servingLine = regexp.MustCompile(`^serving SG-MoE expert \d+/\d+ on (\S+)`)

// TestMoEBinaryTrainServeInfer drives the built binary the way the package
// comment says to: train a toy bundle, serve each expert from its own
// process, run the traced master against them, then interrupt the nodes.
// Every process must exit 0 and no node may panic.
func TestMoEBinaryTrainServeInfer(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "teamnet-moe")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	bundle := filepath.Join(dir, "moe.tnet")
	run := func(args ...string) string {
		t.Helper()
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("teamnet-moe %s: %v\n%s", strings.Join(args, " "), err, out)
		}
		return string(out)
	}
	run("-mode", "train", "-dataset", "digits", "-n", "200", "-size", "12", "-k", "2", "-epochs", "1", "-model", bundle)

	type node struct {
		cmd  *exec.Cmd
		out  *lockedBuffer
		done chan struct{} // closed once stdout hit EOF
	}
	var nodes []node
	var peers []string
	for expert := 0; expert < 2; expert++ {
		cmd := exec.Command(bin, "-mode", "node", "-model", bundle, "-expert", strconv.Itoa(expert), "-listen", "127.0.0.1:0")
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = cmd.Stdout
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		n := node{cmd: cmd, out: new(lockedBuffer), done: make(chan struct{})}
		t.Cleanup(func() { cmd.Process.Kill() })
		addr := make(chan string, 1)
		go func() {
			defer close(n.done)
			sc := bufio.NewScanner(stdout)
			for sc.Scan() {
				n.out.WriteString(sc.Text() + "\n")
				if m := servingLine.FindStringSubmatch(sc.Text()); m != nil {
					addr <- m[1]
				}
			}
		}()
		select {
		case a := <-addr:
			peers = append(peers, a)
		case <-n.done:
			t.Fatalf("expert %d exited before serving:\n%s", expert, n.out)
		case <-time.After(30 * time.Second):
			t.Fatalf("expert %d never printed its serving line:\n%s", expert, n.out)
		}
		nodes = append(nodes, n)
	}

	out := run("-mode", "infer", "-model", bundle, "-dataset", "digits", "-size", "12", "-queries", "5", "-trace", "-peers", strings.Join(peers, ","))
	for _, want := range []string{"accuracy:", "moe.infer", "peer " + peers[0], "network", "compute"} {
		if !strings.Contains(out, want) {
			t.Fatalf("infer output has no %q:\n%s", want, out)
		}
	}

	for i, n := range nodes {
		if err := n.cmd.Process.Signal(syscall.SIGINT); err != nil {
			t.Fatal(err)
		}
		<-n.done
		if err := n.cmd.Wait(); err != nil {
			t.Fatalf("expert %d after SIGINT: %v\n%s", i, err, n.out)
		}
		if strings.Contains(n.out.String(), "panic:") {
			t.Fatalf("expert %d panicked:\n%s", i, n.out)
		}
	}
}
