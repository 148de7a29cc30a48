package nn

import (
	"middle/internal/tensor"
)

// Conv1D is a 1-D convolution over inputs of shape [N, C, L], used by the
// speech-commands-profile model on long sparse signal vectors. Like
// Conv2D it lowers the whole batch into one column matrix [C*K, N*OL]
// (sample i owns columns [i*OL, (i+1)*OL)) so forward and backward are a
// fixed number of matrix products per step. The layer owns its scratch
// buffers; returned tensors are valid until the next Forward/Backward.
type Conv1D struct {
	InC, OutC   int
	K           int
	Stride, Pad int
	W, B        *Param
	inL, outL   int

	cols  []float64
	y     *tensor.Tensor
	out   *tensor.Tensor
	dy    *tensor.Tensor
	dcols *tensor.Tensor
	dw    *tensor.Tensor
	dx    *tensor.Tensor
}

// NewConv1D constructs a 1-D convolution layer with He-normal weights for
// inputs of length inL.
func NewConv1D(inC, outC, k, stride, pad, inL int, rng *tensor.RNG) *Conv1D {
	c := &Conv1D{
		InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad,
		inL:  inL,
		outL: tensor.ConvOut(inL, k, stride, pad),
		W:    newParam("conv1d.W", outC, inC*k),
		B:    newParam("conv1d.B", outC),
	}
	rng.HeNormal(c.W.Value, inC*k)
	return c
}

// OutLen returns the per-sample output length.
func (c *Conv1D) OutLen() int { return c.outL }

// Forward convolves a batch [N, C, L] producing [N, OutC, OL].
func (c *Conv1D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 3 || x.Dim(1) != c.InC || x.Dim(2) != c.inL {
		panic(shapeError("Conv1D", "[N, C, L] matching construction", x.Shape()))
	}
	n := x.Dim(0)
	ck := c.InC * c.K
	ol := c.outL
	cols := ensureLen(c.cols, ck*n*ol)
	c.cols = cols
	inSz := c.InC * c.inL
	rowStride := n * ol
	for i := 0; i < n; i++ {
		tensor.Im2Col1DStrided(x.Data[i*inSz:(i+1)*inSz], c.InC, c.inL,
			c.K, c.Stride, c.Pad, cols[i*ol:], rowStride)
	}
	colsT := tensor.FromSlice(cols, ck, rowStride)
	c.y = tensor.Ensure(c.y, c.OutC, rowStride)
	tensor.MatMulInto(c.y, c.W.Value, colsT)
	out := tensor.Ensure(c.out, n, c.OutC, ol)
	c.out = out
	yd := c.y.Data
	bd := c.B.Value.Data
	for i := 0; i < n; i++ {
		for oc := 0; oc < c.OutC; oc++ {
			src := yd[oc*rowStride+i*ol : oc*rowStride+(i+1)*ol]
			dst := out.Data[(i*c.OutC+oc)*ol : (i*c.OutC+oc+1)*ol]
			b := bd[oc]
			for j, v := range src {
				dst[j] = v + b
			}
		}
	}
	return out
}

// Backward consumes dOut [N, OutC, OL] and returns dX [N, C, L].
func (c *Conv1D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	n := dout.Dim(0)
	ck := c.InC * c.K
	ol := c.outL
	inSz := c.InC * c.inL
	rowStride := n * ol
	c.dy = tensor.Ensure(c.dy, c.OutC, rowStride)
	dyd := c.dy.Data
	for i := 0; i < n; i++ {
		for oc := 0; oc < c.OutC; oc++ {
			copy(dyd[oc*rowStride+i*ol:oc*rowStride+(i+1)*ol],
				dout.Data[(i*c.OutC+oc)*ol:(i*c.OutC+oc+1)*ol])
		}
	}
	colsT := tensor.FromSlice(c.cols, ck, rowStride)
	c.dw = tensor.Ensure(c.dw, c.OutC, ck)
	tensor.MatMulTransBInto(c.dw, c.dy, colsT)
	c.W.Grad.AddInPlace(c.dw)
	for oc := 0; oc < c.OutC; oc++ {
		s := 0.0
		for _, v := range dyd[oc*rowStride : (oc+1)*rowStride] {
			s += v
		}
		c.B.Grad.Data[oc] += s
	}
	c.dcols = tensor.Ensure(c.dcols, ck, rowStride)
	tensor.MatMulTransAInto(c.dcols, c.W.Value, c.dy)
	dx := tensor.Ensure(c.dx, n, c.InC, c.inL)
	c.dx = dx
	dcd := c.dcols.Data
	for i := 0; i < n; i++ {
		dxi := dx.Data[i*inSz : (i+1)*inSz]
		clear(dxi)
		tensor.Col2Im1DStrided(dcd[i*ol:], c.InC, c.inL,
			c.K, c.Stride, c.Pad, dxi, rowStride)
	}
	return dx
}

// Params returns the kernel and bias parameters.
func (c *Conv1D) Params() []*Param { return []*Param{c.W, c.B} }
