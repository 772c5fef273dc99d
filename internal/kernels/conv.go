package kernels

import (
	"fmt"
	"math"
)

// Tensor3 is a CHW (channel, height, width) float32 tensor — the activation
// layout of the CNN layers.
type Tensor3 struct {
	C, H, W int
	Data    []float32
}

// NewTensor3 allocates a zero tensor.
func NewTensor3(c, h, w int) *Tensor3 {
	if c <= 0 || h <= 0 || w <= 0 {
		panic(fmt.Sprintf("kernels: invalid tensor shape %dx%dx%d", c, h, w))
	}
	return &Tensor3{C: c, H: h, W: w, Data: make([]float32, c*h*w)}
}

// At returns element (c, y, x).
func (t *Tensor3) At(c, y, x int) float32 { return t.Data[(c*t.H+y)*t.W+x] }

// Set stores element (c, y, x).
func (t *Tensor3) Set(c, y, x int, v float32) { t.Data[(c*t.H+y)*t.W+x] = v }

// Len reports the element count.
func (t *Tensor3) Len() int { return len(t.Data) }

// ConvParams holds a convolution layer's weights: OutC filters of shape
// InC×K×K plus one bias per filter.
type ConvParams struct {
	OutC, InC, K int
	Weights      []float32 // OutC × InC × K × K
	Bias         []float32 // OutC
}

// NewConvParams allocates zeroed parameters.
func NewConvParams(outC, inC, k int) *ConvParams {
	if outC <= 0 || inC <= 0 || k <= 0 {
		panic("kernels: invalid conv params")
	}
	return &ConvParams{
		OutC: outC, InC: inC, K: k,
		Weights: make([]float32, outC*inC*k*k),
		Bias:    make([]float32, outC),
	}
}

func (p *ConvParams) w(o, i, ky, kx int) float32 {
	return p.Weights[((o*p.InC+i)*p.K+ky)*p.K+kx]
}

// Conv2D applies a same-padded, stride-1 K×K convolution — the layer shape
// used throughout VGG (3×3, pad 1).
func Conv2D(in *Tensor3, p *ConvParams) *Tensor3 {
	if in.C != p.InC {
		panic(fmt.Sprintf("kernels: Conv2D channel mismatch %d vs %d", in.C, p.InC))
	}
	pad := p.K / 2
	out := NewTensor3(p.OutC, in.H, in.W)
	for o := 0; o < p.OutC; o++ {
		for y := 0; y < in.H; y++ {
			for x := 0; x < in.W; x++ {
				sum := p.Bias[o]
				for i := 0; i < p.InC; i++ {
					for ky := 0; ky < p.K; ky++ {
						sy := y + ky - pad
						if sy < 0 || sy >= in.H {
							continue
						}
						for kx := 0; kx < p.K; kx++ {
							sx := x + kx - pad
							if sx < 0 || sx >= in.W {
								continue
							}
							sum += in.At(i, sy, sx) * p.w(o, i, ky, kx)
						}
					}
				}
				out.Set(o, y, x, sum)
			}
		}
	}
	return out
}

// Conv2DMACs reports the multiply-accumulate count of a same-padded
// stride-1 convolution over an H×W input.
func Conv2DMACs(h, w, inC, outC, k int) float64 {
	return float64(h) * float64(w) * float64(inC) * float64(outC) * float64(k) * float64(k)
}

// ReLU applies max(0, x) in place and returns its argument.
func ReLU(t *Tensor3) *Tensor3 {
	for i, v := range t.Data {
		if v < 0 {
			t.Data[i] = 0
		}
	}
	return t
}

// MaxPool2x2 downsamples by 2 in both spatial dimensions taking window
// maxima. Odd trailing rows/columns are dropped (floor semantics), as in
// VGG.
func MaxPool2x2(in *Tensor3) *Tensor3 {
	oh, ow := in.H/2, in.W/2
	if oh == 0 || ow == 0 {
		panic("kernels: MaxPool2x2 input too small")
	}
	out := NewTensor3(in.C, oh, ow)
	for c := 0; c < in.C; c++ {
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				m := float32(math.Inf(-1))
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						if v := in.At(c, 2*y+dy, 2*x+dx); v > m {
							m = v
						}
					}
				}
				out.Set(c, y, x, m)
			}
		}
	}
	return out
}

// FullyConnected computes y = W·x + b where W is out×in row-major.
func FullyConnected(x []float32, w *Matrix, bias []float32) []float32 {
	if w.Cols != len(x) || len(bias) != w.Rows {
		panic(fmt.Sprintf("kernels: FC shape mismatch W=%dx%d x=%d b=%d", w.Rows, w.Cols, len(x), len(bias)))
	}
	y := MatVec(w, x)
	for i := range y {
		y[i] += bias[i]
	}
	return y
}

// PCAProject projects v onto the rows of components (D_out × D_in) after
// subtracting mean — the dimensionality compression to D=96 the case study
// applies to CNN features.
func PCAProject(v, mean []float32, components *Matrix) []float32 {
	if len(v) != len(mean) || components.Cols != len(v) {
		panic("kernels: PCAProject shape mismatch")
	}
	centered := make([]float32, len(v))
	for i := range v {
		centered[i] = v[i] - mean[i]
	}
	return MatVec(components, centered)
}

// L2Normalize scales v to unit Euclidean norm in place (no-op for the zero
// vector) and returns it.
func L2Normalize(v []float32) []float32 {
	n := float64(SquaredNorm(v))
	if n == 0 {
		return v
	}
	inv := float32(1 / math.Sqrt(n))
	for i := range v {
		v[i] *= inv
	}
	return v
}
