package core

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"github.com/teamnet/teamnet/internal/dataset"
	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/tensor"
)

// Team is a trained TeamNet: K specialized experts sharing one architecture
// spec. At the edge each expert runs on its own device (internal/cluster);
// Team also evaluates the whole ensemble in-process for training-side
// validation and the benchmark harness.
type Team struct {
	Experts []*nn.Network
	Spec    nn.Spec
	Classes int
}

// K returns the number of experts.
func (t *Team) K() int { return len(t.Experts) }

// Predict runs every expert on the batch and combines per sample with the
// arg-min-entropy gate of Section V (Figure 4): the prediction of the least
// uncertain expert is the final output. It returns the combined
// probabilities and the winning expert per sample.
func (t *Team) Predict(x *tensor.Tensor) (probs *tensor.Tensor, winners []int) {
	h, expertProbs := EntropyMatrix(t.Experts, x)
	winners = HardGate(h)
	batch := x.Shape[0]
	probs = tensor.New(batch, t.Classes)
	for b, w := range winners {
		copy(probs.RowSlice(b), expertProbs[w].RowSlice(b))
	}
	return probs, winners
}

// PredictVote combines experts by entropy-weighted majority vote instead of
// arg-min — the alternative Section V discusses and rejects ("considering
// the prediction of 'non-expert' can be detrimental"). Kept for the
// combiner ablation bench.
func (t *Team) PredictVote(x *tensor.Tensor) *tensor.Tensor {
	h, expertProbs := EntropyMatrix(t.Experts, x)
	batch := x.Shape[0]
	probs := tensor.New(batch, t.Classes)
	k := t.K()
	for b := 0; b < batch; b++ {
		// Confidence weights: softmax over negated entropies, so every
		// expert votes, certain experts more strongly.
		weights := make([]float64, k)
		sum := 0.0
		for i := 0; i < k; i++ {
			w := math.Exp(-h.At(b, i))
			weights[i] = w
			sum += w
		}
		dst := probs.RowSlice(b)
		for i := 0; i < k; i++ {
			w := weights[i] / sum
			src := expertProbs[i].RowSlice(b)
			for c := range dst {
				dst[c] += w * src[c]
			}
		}
	}
	return probs
}

// Accuracy evaluates arg-min-combined classification accuracy.
func (t *Team) Accuracy(x *tensor.Tensor, y []int) float64 {
	if len(y) == 0 {
		return 0
	}
	probs, _ := t.Predict(x)
	correct := 0
	for i, label := range y {
		if probs.Row(i).ArgMax() == label {
			correct++
		}
	}
	return float64(correct) / float64(len(y))
}

// VoteAccuracy evaluates majority-vote-combined accuracy (ablation).
func (t *Team) VoteAccuracy(x *tensor.Tensor, y []int) float64 {
	if len(y) == 0 {
		return 0
	}
	probs := t.PredictVote(x)
	correct := 0
	for i, label := range y {
		if probs.Row(i).ArgMax() == label {
			correct++
		}
	}
	return float64(correct) / float64(len(y))
}

// SpecializationMatrix computes, for each expert and class, the fraction of
// that class's test samples the expert wins (least entropy) — the analysis
// behind Figure 9. Rows are experts, columns are classes; each column sums
// to 1.
func (t *Team) SpecializationMatrix(ds *dataset.Dataset) *tensor.Tensor {
	h, _ := EntropyMatrix(t.Experts, ds.X)
	winners := HardGate(h)
	k := t.K()
	m := tensor.New(k, ds.Classes)
	counts := make([]float64, ds.Classes)
	for i, w := range winners {
		m.Data[w*ds.Classes+ds.Y[i]]++
		counts[ds.Y[i]]++
	}
	for c := 0; c < ds.Classes; c++ {
		if counts[c] == 0 {
			continue
		}
		for e := 0; e < k; e++ {
			m.Data[e*ds.Classes+c] /= counts[c]
		}
	}
	return m
}

// teamMagic guards the bundle format.
const teamMagic = "TNETTEAM1\n"

type teamHeader struct {
	K       int     `json:"k"`
	Classes int     `json:"classes"`
	Spec    nn.Spec `json:"spec"`
}

// Save writes the team bundle — architecture spec plus every expert's
// snapshot — so cmd/teamnet-node can load a single expert for serving.
func (t *Team) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(teamMagic); err != nil {
		return fmt.Errorf("core: write team magic: %w", err)
	}
	hdr, err := json.Marshal(teamHeader{K: t.K(), Classes: t.Classes, Spec: t.Spec})
	if err != nil {
		return fmt.Errorf("core: marshal team header: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(hdr))); err != nil {
		return fmt.Errorf("core: write team header length: %w", err)
	}
	if _, err := bw.Write(hdr); err != nil {
		return fmt.Errorf("core: write team header: %w", err)
	}
	for i, e := range t.Experts {
		if err := nn.SaveNetwork(bw, e); err != nil {
			return fmt.Errorf("core: save expert %d: %w", i, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("core: flush team bundle: %w", err)
	}
	return nil
}

// LoadTeam reads a team bundle written by Save, rebuilding each expert from
// the stored spec.
func LoadTeam(r io.Reader) (*Team, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(teamMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("core: read team magic: %w", err)
	}
	if string(magic) != teamMagic {
		return nil, fmt.Errorf("core: bad team magic %q", magic)
	}
	var hdrLen uint32
	if err := binary.Read(br, binary.LittleEndian, &hdrLen); err != nil {
		return nil, fmt.Errorf("core: read team header length: %w", err)
	}
	const maxHeader = 1 << 20
	if hdrLen > maxHeader {
		return nil, fmt.Errorf("core: team header length %d exceeds limit", hdrLen)
	}
	hdrBytes := make([]byte, hdrLen)
	if _, err := io.ReadFull(br, hdrBytes); err != nil {
		return nil, fmt.Errorf("core: read team header: %w", err)
	}
	var hdr teamHeader
	if err := json.Unmarshal(hdrBytes, &hdr); err != nil {
		return nil, fmt.Errorf("core: unmarshal team header: %w", err)
	}
	if hdr.K < 1 || hdr.K > 1024 {
		return nil, fmt.Errorf("core: team header K=%d out of range", hdr.K)
	}
	experts := make([]*nn.Network, hdr.K)
	for i := range experts {
		e, err := hdr.Spec.Build(tensor.NewRNG(0))
		if err != nil {
			return nil, fmt.Errorf("core: rebuild expert %d: %w", i, err)
		}
		if err := nn.LoadNetworkInto(br, e); err != nil {
			return nil, fmt.Errorf("core: load expert %d: %w", i, err)
		}
		experts[i] = e
	}
	return &Team{Experts: experts, Spec: hdr.Spec, Classes: hdr.Classes}, nil
}

// CloneExpert builds n independent replicas of expert i (same architecture,
// same weights and batch-norm state). Serving runtimes use replicas to
// answer concurrent requests, since a single nn.Network instance is
// single-goroutine.
func (t *Team) CloneExpert(i, n int) ([]*nn.Network, error) {
	if i < 0 || i >= t.K() {
		return nil, fmt.Errorf("core: expert %d out of range [0, %d)", i, t.K())
	}
	out := make([]*nn.Network, n)
	for j := range out {
		e, err := t.Spec.Build(tensor.NewRNG(0))
		if err != nil {
			return nil, fmt.Errorf("core: clone expert %d: %w", i, err)
		}
		e.CopyWeightsFrom(t.Experts[i])
		out[j] = e
	}
	return out, nil
}
