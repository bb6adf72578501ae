package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/teamnet/teamnet/internal/cluster"
	"github.com/teamnet/teamnet/internal/core"
	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/tensor"
)

func TestBuildDatasetDigits(t *testing.T) {
	ds, err := BuildDataset("digits", 20, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 20 || ds.H != 28 || ds.C != 1 {
		t.Fatalf("digits defaults wrong: len=%d h=%d c=%d", ds.Len(), ds.H, ds.C)
	}
	ds, err = BuildDataset("digits", 10, 14, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ds.H != 14 || ds.W != 14 {
		t.Fatalf("size override ignored: %dx%d", ds.H, ds.W)
	}
}

func TestBuildDatasetObjects(t *testing.T) {
	ds, err := BuildDataset("objects", 10, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ds.C != 3 || ds.H != 16 {
		t.Fatalf("objects geometry wrong: c=%d h=%d", ds.C, ds.H)
	}
}

func TestBuildDatasetUnknown(t *testing.T) {
	if _, err := BuildDataset("cifar100", 10, 0, 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestExpertSpecPerDataset(t *testing.T) {
	digits, err := BuildDataset("digits", 10, 14, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ExpertSpec(digits, 2)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Kind != "mlp" || spec.MLP.Input != 196 {
		t.Fatalf("digit expert spec wrong: %+v", spec)
	}
	objects, err := BuildDataset("objects", 10, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec, err = ExpertSpec(objects, 4)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Kind != "shake" || spec.Shake.InH != 16 {
		t.Fatalf("object expert spec wrong: %+v", spec)
	}
	if _, err := ExpertSpec(digits, 3); err == nil {
		t.Fatal("K=3 accepted")
	}
	digits.Name = "other"
	if _, err := ExpertSpec(digits, 2); err == nil {
		t.Fatal("unknown dataset family accepted")
	}
}

func TestSplitList(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"a", []string{"a"}},
		{"a, b ,c", []string{"a", "b", "c"}},
		{",,a,,", []string{"a"}},
	}
	for _, c := range cases {
		if got := SplitList(c.in); !reflect.DeepEqual(got, c.want) {
			t.Fatalf("SplitList(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestLoadRealMNIST(t *testing.T) {
	dir := t.TempDir()
	// Hand-rolled 2-sample 2×2 IDX pair.
	images := []byte{0, 0, 0x08, 3, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 2,
		10, 20, 30, 40, 50, 60, 70, 80}
	labels := []byte{0, 0, 0x08, 1, 0, 0, 0, 2, 7, 3}
	imgPath := filepath.Join(dir, "imgs")
	labPath := filepath.Join(dir, "labs")
	if err := os.WriteFile(imgPath, images, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(labPath, labels, 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := LoadReal("mnist", []string{imgPath, labPath}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 2 || ds.Y[0] != 7 || ds.Y[1] != 3 {
		t.Fatalf("loaded mnist wrong: len=%d y=%v", ds.Len(), ds.Y)
	}
	// Real datasets must map to the paper's expert families too.
	if _, err := ExpertSpec(ds, 2); err != nil {
		t.Fatal(err)
	}
	// Wrong file counts and names rejected.
	if _, err := LoadReal("mnist", []string{imgPath}, 0); err == nil {
		t.Fatal("single-file mnist accepted")
	}
	if _, err := LoadReal("svhn", nil, 0); err == nil {
		t.Fatal("unknown real dataset accepted")
	}
}

// writeBundle saves a two-expert team built from seed and returns its path.
func writeBundle(t *testing.T, seed int64) string {
	t.Helper()
	spec := nn.Spec{Kind: "mlp", MLP: &nn.MLPSpec{Label: "m", Input: 4, Width: 4, Layers: 2, Classes: 3}}
	team := &core.Team{Spec: spec, Classes: 3}
	for e := int64(0); e < 2; e++ {
		net, err := spec.Build(tensor.NewRNG(seed + e))
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

// TestBundleLabelsAgreeAcrossBinaries pins the one label scheme: every
// command cuts its node's label with ReadBundle + Load, so the same bundle
// and the same expert index must give byte-equal labels whoever asks — a
// split tail only runs where the pin matches — and a coordinator, like the
// gateway's cache key, gets the bundle label.
func TestBundleLabelsAgreeAcrossBinaries(t *testing.T) {
	path := writeBundle(t, 1)
	load := func(path string, expert int) (Bundle, cluster.Model) {
		t.Helper()
		b, err := ReadBundle(path)
		if err != nil {
			t.Fatal(err)
		}
		team, model, err := b.Load(expert)
		if err != nil {
			t.Fatal(err)
		}
		if team.K() != 2 || team.Classes != 3 {
			t.Fatalf("loaded team K=%d classes=%d", team.K(), team.Classes)
		}
		return b, model
	}
	b, node := load(path, 1)   // teamnet-node -expert 1
	_, master := load(path, 1) // teamnet-serve / teamnet-infer -local 1
	if len(b.Label) != 16 || node.Version != b.Label+"/e1" || master.Version != node.Version {
		t.Fatalf("bundle %q: node label %q, master label %q — want <bundle>/e1 from both", b.Label, node.Version, master.Version)
	}
	if node.Snapshot == nil || node.Snapshot.BoundaryWidth(0) != 4 {
		t.Fatalf("expert model not compiled: %+v", node)
	}
	if _, other := load(path, 0); other.Version == node.Version {
		t.Fatalf("experts 0 and 1 share the label %q", other.Version)
	}
	if _, coord := load(path, -1); coord.Snapshot != nil || coord.Version != b.Label {
		t.Fatalf("coordinator model %+v, want no snapshot under the bundle label %q", coord, b.Label)
	}
	for v, want := range map[string]string{node.Version: b.Label, b.Label: b.Label, "v2/exp": "v2/exp", "vB": "vB"} {
		if got := BundleLabel(v); got != want {
			t.Fatalf("BundleLabel(%q) = %q, want %q", v, got, want)
		}
	}
	if other, _ := load(writeBundle(t, 50), 1); other.Label == b.Label {
		t.Fatal("different weights, same bundle label")
	}
	if _, _, err := b.Load(2); err == nil {
		t.Fatal("expert index past the team accepted")
	}
	if _, err := ReadBundle(filepath.Join(t.TempDir(), "missing.tnet")); err == nil {
		t.Fatal("missing bundle file accepted")
	}
}
