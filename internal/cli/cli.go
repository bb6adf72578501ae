// Package cli holds the small helpers the command-line tools share:
// dataset construction from flag values, list parsing, and the one loader
// that turns a -team bundle into the labelled model a node serves. Keeping
// them in one tested package stops the cmd mains from drifting apart.
package cli

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/teamnet/teamnet/internal/cluster"
	"github.com/teamnet/teamnet/internal/core"
	"github.com/teamnet/teamnet/internal/dataset"
	"github.com/teamnet/teamnet/internal/nn"
)

// Bundle is a team bundle file, read and hashed but not yet parsed — what a
// -swap-watch poll needs to tell whether the file changed.
type Bundle struct {
	// Label is the bundle's content hash: the gateway's response-cache key,
	// and the stem of every node label cut from this bundle.
	Label string
	raw   []byte
}

// ReadBundle reads and labels the bundle at path.
func ReadBundle(path string) (Bundle, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Bundle{}, fmt.Errorf("open bundle: %w", err)
	}
	return Bundle{Label: fmt.Sprintf("%x", sha256.Sum256(raw))[:16], raw: raw}, nil
}

// Load parses the bundle and compiles the model a node running expert serves,
// labelled "<Label>/e<expert>": experts share a bundle but are different
// models, and a split tail (DESIGN.md §13) only runs where the pin matches
// this label, so every binary must cut the same label for the same expert. A
// negative expert is a pure coordinator: no snapshot, the bundle label.
func (b Bundle) Load(expert int) (team *core.Team, model cluster.Model, err error) {
	if team, err = core.LoadTeam(bytes.NewReader(b.raw)); err != nil {
		return nil, model, fmt.Errorf("load bundle: %w", err)
	}
	if expert < 0 {
		return team, cluster.Model{Version: b.Label}, nil
	}
	if expert >= team.K() {
		return nil, model, fmt.Errorf("expert %d out of range [0, %d)", expert, team.K())
	}
	if model.Snapshot, err = nn.NewSnapshot(team.Experts[expert]); err != nil {
		return nil, model, fmt.Errorf("compile expert %d: %w", expert, err)
	}
	model.Version = fmt.Sprintf("%s/e%d", b.Label, expert)
	return team, model, nil
}

// BundleLabel recovers the bundle label from a node label (Load's inverse):
// what a gateway keys its cache under when its master is pushed a new model.
// Only a trailing "/e<index>" is cut; any other label is its own bundle label.
func BundleLabel(version string) string {
	if i := strings.LastIndex(version, "/e"); i >= 0 {
		if _, err := strconv.Atoi(version[i+2:]); err == nil {
			return version[:i]
		}
	}
	return version
}

// BuildDataset constructs the named synthetic dataset. size == 0 keeps the
// dataset's default geometry.
func BuildDataset(name string, n, size int, seed int64) (*dataset.Dataset, error) {
	switch name {
	case "digits":
		cfg := dataset.DigitsConfig{N: n, Seed: seed}
		if size > 0 {
			cfg.H, cfg.W = size, size
		}
		return dataset.Digits(cfg), nil
	case "objects":
		cfg := dataset.ObjectsConfig{N: n, Seed: seed}
		if size > 0 {
			cfg.H, cfg.W = size, size
		}
		return dataset.Objects(cfg), nil
	default:
		return nil, fmt.Errorf("unknown dataset %q (digits or objects)", name)
	}
}

// LoadReal loads a real dataset from user-supplied files: "mnist" takes
// [images, labels] (IDX, optionally gzipped), "cifar10" takes one or more
// binary batch files. maxN > 0 truncates.
func LoadReal(name string, files []string, maxN int) (*dataset.Dataset, error) {
	switch name {
	case "mnist":
		if len(files) != 2 {
			return nil, fmt.Errorf("mnist needs exactly 2 files (images, labels), got %d", len(files))
		}
		return dataset.LoadMNIST(files[0], files[1], maxN)
	case "cifar10":
		return dataset.LoadCIFAR10(files, maxN)
	default:
		return nil, fmt.Errorf("unknown real dataset %q (mnist or cifar10)", name)
	}
}

// ExpertSpec returns the paper's per-expert architecture for the named
// dataset at the dataset's geometry.
func ExpertSpec(ds *dataset.Dataset, k int) (nn.Spec, error) {
	switch ds.Name {
	case "synth-digits", "mnist":
		return nn.DigitsExpert(k, ds.Features(), ds.Classes)
	case "synth-objects", "cifar10":
		return nn.ObjectsExpert(k, ds.C, ds.H, ds.W, ds.Classes)
	default:
		return nn.Spec{}, fmt.Errorf("no expert family for dataset %q", ds.Name)
	}
}

// SplitList splits a comma-separated flag value, dropping empty entries and
// trimming whitespace.
func SplitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
