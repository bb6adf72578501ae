package nn

import (
	"fmt"

	"github.com/teamnet/teamnet/internal/tensor"
)

// This file is the model zoo: declarative specs that build exactly the
// architectures the paper evaluates. Names follow the paper's convention of
// counting weighted layers along one path:
//
//   MLP-n   — n dense layers (Section VI-C: MLP-8 baseline, 2×MLP-4,
//             4×MLP-2 TeamNet experts).
//   SS-n    — Shake-Shake CNN of depth n (Section VI-D: SS-26 baseline,
//             2×SS-14, 4×SS-8 experts): n = 2 + stages·blocks·2 with three
//             stages, so SS-26 → 4 blocks/stage, SS-14 → 2, SS-8 → 1.
//
// Specs are plain JSON-serializable values so trained models can be saved
// with their architecture and rebuilt by the cluster runtime (snapshot.go).

// MLPSpec describes a multi-layer perceptron classifier.
type MLPSpec struct {
	Label   string `json:"label"`
	Input   int    `json:"input"`
	Width   int    `json:"width"`  // hidden width (all hidden layers)
	Layers  int    `json:"layers"` // total dense layers, ≥ 1
	Classes int    `json:"classes"`
}

// Build constructs the network with weights drawn from rng.
func (s MLPSpec) Build(rng *tensor.RNG) (*Network, error) {
	if s.Layers < 1 || s.Input <= 0 || s.Classes <= 0 || (s.Layers > 1 && s.Width <= 0) {
		return nil, fmt.Errorf("nn: invalid MLP spec %+v", s)
	}
	var layers []Layer
	in := s.Input
	for i := 0; i < s.Layers-1; i++ {
		layers = append(layers, NewDense(in, s.Width, rng), NewReLU())
		in = s.Width
	}
	layers = append(layers, NewDense(in, s.Classes, rng))
	return NewNetwork(s.Label, layers...), nil
}

// ShakeSpec describes a Shake-Shake-regularized CNN classifier.
type ShakeSpec struct {
	Label          string `json:"label"`
	InC            int    `json:"inC"`
	InH            int    `json:"inH"`
	InW            int    `json:"inW"`
	Widths         []int  `json:"widths"` // channels per stage (3 stages in the paper's family)
	BlocksPerStage int    `json:"blocksPerStage"`
	Classes        int    `json:"classes"`
}

// Build constructs the network with weights drawn from rng. The layout is:
// 3×3 stem conv → stages of Shake-Shake blocks with 2× max-pool between
// stages → global average pool → dense classifier.
func (s ShakeSpec) Build(rng *tensor.RNG) (*Network, error) {
	if len(s.Widths) == 0 || s.BlocksPerStage < 1 || s.InC <= 0 || s.Classes <= 0 {
		return nil, fmt.Errorf("nn: invalid Shake spec %+v", s)
	}
	h, w := s.InH, s.InW
	var layers []Layer

	stem := tensor.ConvGeom{InC: s.InC, InH: h, InW: w, OutC: s.Widths[0], KH: 3, KW: 3, Stride: 1, Pad: 1}
	layers = append(layers,
		NewConv2D(stem, rng),
		NewBatchNorm(s.Widths[0], h*w),
		NewReLU(),
	)
	ch := s.Widths[0]
	for stage, width := range s.Widths {
		if stage > 0 {
			if h%2 != 0 || w%2 != 0 {
				return nil, fmt.Errorf("nn: Shake spec input %dx%d not divisible for stage %d pooling", s.InH, s.InW, stage)
			}
			layers = append(layers, NewMaxPool2D(ch, h, w, 2))
			h, w = h/2, w/2
		}
		for b := 0; b < s.BlocksPerStage; b++ {
			inCh := ch
			if b > 0 {
				inCh = width
			}
			layers = append(layers, newShakeBlock(inCh, width, h, w, rng))
		}
		ch = width
	}
	layers = append(layers,
		NewGlobalAvgPool(ch, h, w),
		NewDense(ch, s.Classes, rng),
	)
	return NewNetwork(s.Label, layers...), nil
}

// newShakeBlock builds one Shake-Shake block: each branch is
// conv3×3 → BN → ReLU → conv3×3 → BN; the skip path is identity when the
// channel count is preserved and a 1×1 projection otherwise.
func newShakeBlock(inCh, outCh, h, w int, rng *tensor.RNG) *ShakeShake {
	branch := func(id int) *Network {
		g1 := tensor.ConvGeom{InC: inCh, InH: h, InW: w, OutC: outCh, KH: 3, KW: 3, Stride: 1, Pad: 1}
		g2 := tensor.ConvGeom{InC: outCh, InH: h, InW: w, OutC: outCh, KH: 3, KW: 3, Stride: 1, Pad: 1}
		return NewNetwork(fmt.Sprintf("branch%d", id),
			NewConv2D(g1, rng),
			NewBatchNorm(outCh, h*w),
			NewReLU(),
			NewConv2D(g2, rng),
			NewBatchNorm(outCh, h*w),
		)
	}
	var skip Layer
	if inCh != outCh {
		g := tensor.ConvGeom{InC: inCh, InH: h, InW: w, OutC: outCh, KH: 1, KW: 1, Stride: 1}
		skip = NewConv2D(g, rng)
	}
	return NewShakeShake(branch(1), branch(2), skip, rng)
}

// Spec is a tagged union over the zoo's architecture families, the unit of
// model serialization.
type Spec struct {
	Kind  string     `json:"kind"` // "mlp" or "shake"
	MLP   *MLPSpec   `json:"mlp,omitempty"`
	Shake *ShakeSpec `json:"shake,omitempty"`
}

// Build constructs the described network with weights drawn from rng.
func (s Spec) Build(rng *tensor.RNG) (*Network, error) {
	switch s.Kind {
	case "mlp":
		if s.MLP == nil {
			return nil, fmt.Errorf("nn: spec kind mlp without mlp body")
		}
		return s.MLP.Build(rng)
	case "shake":
		if s.Shake == nil {
			return nil, fmt.Errorf("nn: spec kind shake without shake body")
		}
		return s.Shake.Build(rng)
	default:
		return nil, fmt.Errorf("nn: unknown spec kind %q", s.Kind)
	}
}

// Label returns the model label without building it.
func (s Spec) Label() string {
	switch {
	case s.MLP != nil:
		return s.MLP.Label
	case s.Shake != nil:
		return s.Shake.Label
	default:
		return "?"
	}
}

// DigitsBaseline returns the paper's MLP-8 baseline spec for inputDim-pixel
// digit images.
func DigitsBaseline(inputDim, classes int) Spec {
	return Spec{Kind: "mlp", MLP: &MLPSpec{Label: "MLP-8", Input: inputDim, Width: 256, Layers: 8, Classes: classes}}
}

// DigitsExpert returns the per-expert spec for a K-expert TeamNet on digits:
// 2×MLP-4 (width 128) or 4×MLP-2 (width 64), per Section VI-C.
func DigitsExpert(k, inputDim, classes int) (Spec, error) {
	switch k {
	case 2:
		return Spec{Kind: "mlp", MLP: &MLPSpec{Label: "MLP-4", Input: inputDim, Width: 128, Layers: 4, Classes: classes}}, nil
	case 4:
		return Spec{Kind: "mlp", MLP: &MLPSpec{Label: "MLP-2", Input: inputDim, Width: 64, Layers: 2, Classes: classes}}, nil
	default:
		return Spec{}, fmt.Errorf("nn: the paper defines digit experts for K=2 or K=4, got %d", k)
	}
}

// ObjectsBaseline returns the paper's SS-26 baseline spec for c×h×w object
// images.
func ObjectsBaseline(c, h, w, classes int) Spec {
	return Spec{Kind: "shake", Shake: &ShakeSpec{
		Label: "SS-26", InC: c, InH: h, InW: w, Widths: []int{16, 32, 64}, BlocksPerStage: 4, Classes: classes,
	}}
}

// ObjectsExpert returns the per-expert spec for a K-expert TeamNet on
// objects: 2×SS-14 or 4×SS-8, per Section VI-D.
func ObjectsExpert(k, c, h, w, classes int) (Spec, error) {
	switch k {
	case 2:
		return Spec{Kind: "shake", Shake: &ShakeSpec{
			Label: "SS-14", InC: c, InH: h, InW: w, Widths: []int{12, 24, 48}, BlocksPerStage: 2, Classes: classes,
		}}, nil
	case 4:
		return Spec{Kind: "shake", Shake: &ShakeSpec{
			Label: "SS-8", InC: c, InH: h, InW: w, Widths: []int{8, 16, 32}, BlocksPerStage: 1, Classes: classes,
		}}, nil
	default:
		return Spec{}, fmt.Errorf("nn: the paper defines object experts for K=2 or K=4, got %d", k)
	}
}
