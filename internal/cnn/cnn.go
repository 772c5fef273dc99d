// Package cnn describes the convolutional network of the CBIR
// feature-extraction stage as a layer graph with exact per-layer op and
// parameter accounting. The timing and energy models charge the stage
// from these counts at the paper's full VGG16 scale; no forward pass runs.
package cnn

import (
	"fmt"

	"repro/internal/kernels"
)

// LayerKind enumerates the VGG layer types.
type LayerKind int

const (
	// Conv is a 3×3 same-padded convolution followed by ReLU (the paper's
	// "Conv-ReLu" task unit).
	Conv LayerKind = iota
	// Pool is a 2×2 max-pooling layer.
	Pool
	// FC is a fully connected layer (with ReLU except on the last).
	FC
)

func (k LayerKind) String() string {
	switch k {
	case Conv:
		return "Conv-ReLU"
	case Pool:
		return "Pool"
	case FC:
		return "FCN"
	default:
		return fmt.Sprintf("LayerKind(%d)", int(k))
	}
}

// LayerSpec describes one layer's geometry.
type LayerSpec struct {
	Name string
	Kind LayerKind
	// For Conv: input spatial dims and channel counts.
	InH, InW   int
	InC, OutC  int
	KernelSize int
	// For FC: dimensions.
	FCIn, FCOut int
}

// MACs reports the layer's multiply-accumulate count.
func (l LayerSpec) MACs() float64 {
	switch l.Kind {
	case Conv:
		return kernels.Conv2DMACs(l.InH, l.InW, l.InC, l.OutC, l.KernelSize)
	case FC:
		return float64(l.FCIn) * float64(l.FCOut)
	default:
		return 0
	}
}

// Params reports the layer's parameter count (weights + biases).
func (l LayerSpec) Params() int64 {
	switch l.Kind {
	case Conv:
		return int64(l.OutC)*int64(l.InC)*int64(l.KernelSize)*int64(l.KernelSize) + int64(l.OutC)
	case FC:
		return int64(l.FCIn)*int64(l.FCOut) + int64(l.FCOut)
	default:
		return 0
	}
}

// Spec is a whole network description.
type Spec struct {
	Name   string
	Layers []LayerSpec
}

// VGG16 returns the layer graph of the paper's feature extractor
// (Simonyan & Zisserman configuration D) at full 224×224×3 input
// resolution. Totals: ~138 M parameters (552 MB in float32; 11.3 MB with
// deep compression [23]) and ~15.5 G multiply-accumulates per image.
func VGG16() *Spec {
	type block struct {
		convs int
		inC   int
		outC  int
		h, w  int
	}
	blocks := []block{
		{2, 3, 64, 224, 224},
		{2, 64, 128, 112, 112},
		{3, 128, 256, 56, 56},
		{3, 256, 512, 28, 28},
		{3, 512, 512, 14, 14},
	}
	s := &Spec{Name: "VGG16"}
	for bi, b := range blocks {
		inC := b.inC
		for c := 0; c < b.convs; c++ {
			s.Layers = append(s.Layers, LayerSpec{
				Name: fmt.Sprintf("conv%d_%d", bi+1, c+1), Kind: Conv,
				InH: b.h, InW: b.w, InC: inC, OutC: b.outC, KernelSize: 3,
			})
			inC = b.outC
		}
		s.Layers = append(s.Layers, LayerSpec{
			Name: fmt.Sprintf("pool%d", bi+1), Kind: Pool,
			InH: b.h, InW: b.w, InC: b.outC,
		})
	}
	s.Layers = append(s.Layers,
		LayerSpec{Name: "fc6", Kind: FC, FCIn: 512 * 7 * 7, FCOut: 4096},
		LayerSpec{Name: "fc7", Kind: FC, FCIn: 4096, FCOut: 4096},
		LayerSpec{Name: "fc8", Kind: FC, FCIn: 4096, FCOut: 1000},
	)
	return s
}

// TotalMACs reports the whole network's MAC count per image.
func (s *Spec) TotalMACs() float64 {
	var sum float64
	for _, l := range s.Layers {
		sum += l.MACs()
	}
	return sum
}

// TotalParams reports the parameter count.
func (s *Spec) TotalParams() int64 {
	var sum int64
	for _, l := range s.Layers {
		sum += l.Params()
	}
	return sum
}

// ParamBytes reports uncompressed float32 parameter storage.
func (s *Spec) ParamBytes() int64 { return s.TotalParams() * 4 }

// CompressedParamBytes reports the deep-compression footprint: the paper's
// Table I cites 11.3 MB for the 552 MB model, a ~49× ratio [23].
func (s *Spec) CompressedParamBytes() int64 {
	return int64(float64(s.ParamBytes()) / 48.8)
}
