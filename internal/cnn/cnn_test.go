package cnn

import "testing"

func TestVGG16Shape(t *testing.T) {
	s := VGG16()
	convs, pools, fcs := 0, 0, 0
	for _, l := range s.Layers {
		switch l.Kind {
		case Conv:
			convs++
		case Pool:
			pools++
		case FC:
			fcs++
		}
	}
	if convs != 13 || pools != 5 || fcs != 3 {
		t.Errorf("VGG16 layers = %d conv, %d pool, %d fc; want 13/5/3", convs, pools, fcs)
	}
}

func TestVGG16MatchesPublishedTotals(t *testing.T) {
	s := VGG16()
	// ~138 M parameters.
	params := s.TotalParams()
	if params < 135_000_000 || params > 141_000_000 {
		t.Errorf("VGG16 params = %d, want ~138M", params)
	}
	// 552 MB float32 (Table I; decimal megabytes).
	bytes := s.ParamBytes()
	if bytes < 545e6 || bytes > 560e6 {
		t.Errorf("VGG16 param bytes = %d (%.1f MB), Table I says 552 MB", bytes, float64(bytes)/1e6)
	}
	// ~15.5 G multiply-accumulates per image (the commonly cited VGG16
	// compute cost).
	macs := s.TotalMACs()
	if macs < 15.2e9 || macs > 15.8e9 {
		t.Errorf("VGG16 MACs = %v, want ~15.5e9", macs)
	}
	// Compressed: ~11.3 MB (Table I).
	cb := s.CompressedParamBytes()
	if cb < 11.0e6 || cb > 11.6e6 {
		t.Errorf("compressed params = %d (%.1f MB), Table I says 11.3 MB", cb, float64(cb)/1e6)
	}
}

func TestVGG16LayerAccounting(t *testing.T) {
	s := VGG16()
	l := s.Layers[0] // conv1_1: 224×224, 3→64, 3×3
	if got := l.MACs(); got != 224*224*3*64*9 {
		t.Errorf("conv1_1 MACs = %v", got)
	}
	if got := l.Params(); got != 3*64*9+64 {
		t.Errorf("conv1_1 params = %d", got)
	}
	// fc6 dominates parameters: 25088×4096.
	var fc6 LayerSpec
	for _, l := range s.Layers {
		if l.Name == "fc6" {
			fc6 = l
		}
	}
	if fc6.Params() != int64(25088)*4096+4096 {
		t.Errorf("fc6 params = %d", fc6.Params())
	}
}

func TestLayerKindStrings(t *testing.T) {
	if Conv.String() != "Conv-ReLU" || Pool.String() != "Pool" || FC.String() != "FCN" {
		t.Error("layer kind strings wrong")
	}
	if LayerKind(9).String() == "" {
		t.Error("unknown kind empty")
	}
}
