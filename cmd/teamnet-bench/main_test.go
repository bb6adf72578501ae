package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/teamnet/teamnet/internal/bench"
)

// TestBenchBinaryListsSplitsAndRefusesRetiredModes drives the built binary:
// -list names every experiment, -split regenerates the committed
// BENCH_split.json byte for byte (which also pins writeReport's format), and
// the retired speedup and soak modes and the fleet re-run window are unknown
// flags, not silent no-ops.
func TestBenchBinaryListsSplitsAndRefusesRetiredModes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "teamnet-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(args ...string) string {
		t.Helper()
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("teamnet-bench %s: %v\n%s", strings.Join(args, " "), err, out)
		}
		return string(out)
	}

	listed := map[string]bool{}
	for _, line := range strings.Split(run("-list"), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			listed[f[0]] = true
		}
	}
	for _, id := range bench.IDs() {
		if !listed[id] {
			t.Errorf("-list does not name experiment %q", id)
		}
	}

	out := filepath.Join(dir, "split.json")
	run("-split", "-out", out)
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../BENCH_split.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("-split -out wrote %d bytes that differ from the committed BENCH_split.json (%d bytes)", len(got), len(want))
	}

	for _, mode := range []string{"-throughput", "-serve", "-cache", "-soak", "-check-duration"} {
		msg, err := exec.Command(bin, mode).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("teamnet-bench %s: got %v, want exit status 2\n%s", mode, err, msg)
		}
		if !strings.Contains(string(msg), "flag provided but not defined") {
			t.Errorf("teamnet-bench %s does not name the unknown flag:\n%s", mode, msg)
		}
	}
}
