package main

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/cli"
	"github.com/teamnet/teamnet/internal/cluster"
	"github.com/teamnet/teamnet/internal/core"
	"github.com/teamnet/teamnet/internal/tensor"
)

// writeTeam saves an untrained K=2 digits team on 8×8 images (two MLP-4
// experts on 64 inputs) and returns the bundle's path.
func writeTeam(t *testing.T) string {
	t.Helper()
	ds, err := cli.BuildDataset("digits", 1, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := cli.ExpertSpec(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	team := &core.Team{Spec: spec, Classes: ds.Classes}
	for e := int64(0); e < 2; e++ {
		net, err := spec.Build(tensor.NewRNG(e))
		if err != nil {
			t.Fatal(err)
		}
		team.Experts = append(team.Experts, net)
	}
	var buf bytes.Buffer
	if err := team.Save(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "team.tnet")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestInferAnswersAndRefusesBadFlags runs the master role against expert 1
// of a tiny K=2 digits team served by an in-process node: five queries are
// answered and reported with accuracy, latency and who won. A -split that
// is not off, auto or an index, and a -local past the team, are refused
// before any peer is dialled.
func TestInferAnswersAndRefusesBadFlags(t *testing.T) {
	path := writeTeam(t)
	b, err := cli.ReadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	_, model, err := b.Load(1)
	if err != nil {
		t.Fatal(err)
	}
	node := cluster.NewWorkerModel(model, 1)
	addr, err := node.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	var out bytes.Buffer
	if err := run([]string{"-team", path, "-local", "0", "-peers", addr, "-size", "8", "-queries", "5"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	report := out.String()
	for _, want := range []*regexp.Regexp{
		regexp.MustCompile(`connected to 1 peer\(s\); local expert: true`),
		regexp.MustCompile(`accuracy \d+\.\d\d% \(\d/5\)`),
		regexp.MustCompile(`latency: n=5 `),
		regexp.MustCompile(`winning node histogram: map\[`),
	} {
		if !want.MatchString(report) {
			t.Fatalf("report lacks %q:\n%s", want, report)
		}
	}

	// A listener standing in for a peer: a refused run must not dial it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	for _, c := range []struct {
		flag, value, why string
	}{
		{"-split", "sideways", "bad -split"},
		{"-local", "2", "out of range"},
	} {
		out.Reset()
		err := run([]string{"-team", path, "-local", "0", "-peers", ln.Addr().String(), "-size", "8", "-queries", "5", c.flag, c.value}, &out)
		if err == nil || !strings.Contains(err.Error(), c.why) {
			t.Fatalf("%s %s: err %v, want one saying %q", c.flag, c.value, err, c.why)
		}
	}
	if err := ln.(*net.TCPListener).SetDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if conn, err := ln.Accept(); err == nil {
		conn.Close()
		t.Fatal("a refused run dialled its peer")
	}
}
