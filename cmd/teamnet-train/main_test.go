package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"github.com/teamnet/teamnet/internal/core"
)

// TestTrainBinaryWritesABundle builds teamnet-train and runs it with the
// objects arguments the end-to-end benchmark trains its fleet with: the
// bundle it writes must load as a two-expert team, and an unknown dataset
// must exit 1.
func TestTrainBinaryWritesABundle(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "teamnet-train")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	bundle := filepath.Join(dir, "team.tnet")
	train := exec.Command(bin, "-dataset", "objects", "-k", "2", "-n", "20", "-epochs", "0", "-seed", "42", "-out", bundle)
	if out, err := train.CombinedOutput(); err != nil {
		t.Fatalf("teamnet-train: %v\n%s", err, out)
	}
	f, err := os.Open(bundle)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	team, err := core.LoadTeam(f)
	if err != nil {
		t.Fatalf("LoadTeam: %v", err)
	}
	if team.K() != 2 {
		t.Fatalf("bundle holds %d experts, want 2", team.K())
	}

	out, err := exec.Command(bin, "-dataset", "no-such-set", "-out", filepath.Join(dir, "bad.tnet")).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("unknown -dataset: %v, want exit status 1\n%s", err, out)
	}
}
