package nn

import (
	"middle/internal/tensor"
)

// Conv1D is a 1-D convolution over inputs of shape [N, C, L], used by the
// speech-commands-profile model on long sparse signal vectors. Like
// Conv2D it lowers and multiplies one sample at a time straight into the
// output layout, and keeps batched only what dW reads: the training-mode
// column matrix [C*K, N*OL] (sample i owns columns [i*OL, (i+1)*OL)) and
// the gathered dOut. The layer owns its scratch buffers; returned tensors
// are valid until the next Forward/Backward.
type Conv1D struct {
	InC, OutC   int
	K           int
	Stride, Pad int
	W, B        *Param
	inL, outL   int

	cols  []float64      // [CK, N*OL] in training mode, one sample's [CK, OL] otherwise
	out   *tensor.Tensor // [N, OutC, OL]
	dy    *tensor.Tensor // [OutC, N*OL]
	dcols *tensor.Tensor // one sample's [CK, OL]
	dx    *tensor.Tensor
	dyi   *tensor.Tensor // view of one sample's dOut [OutC, OL]
	colsT *tensor.Tensor // view of cols as [CK, N*OL] for dW
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

// Forward convolves a batch [N, C, L] producing [N, OutC, OL].
func (c *Conv1D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 3 || x.Dim(1) != c.InC || x.Dim(2) != c.inL {
		panic(shapeError("Conv1D", "[N, C, L] matching construction", x.Shape()))
	}
	n := x.Dim(0)
	ck := c.InC * c.K
	ol := c.outL
	inSz := c.InC * c.inL
	outSz := c.OutC * ol
	rowStride, step := ol, 0
	if train {
		rowStride, step = n*ol, ol
	}
	cols := ensureLen(c.cols, ck*rowStride)
	c.cols = cols
	out := tensor.Ensure(c.out, n, c.OutC, ol)
	c.out = out
	bd := c.B.Value.Data
	for i := 0; i < n; i++ {
		blk := cols[i*step:]
		tensor.Im2Col1DStrided(x.Data[i*inSz:(i+1)*inSz], c.InC, c.inL,
			c.K, c.Stride, c.Pad, blk, rowStride)
		oi := out.Data[i*outSz : (i+1)*outSz]
		tensor.MatMulBlockInto(oi, c.W.Value, blk, rowStride)
		for oc, b := range bd {
			row := oi[oc*ol : (oc+1)*ol]
			for j := range row {
				row[j] += b
			}
		}
	}
	return out
}

// Backward consumes dOut [N, OutC, OL] and returns dX [N, C, L].
func (c *Conv1D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	c.backwardParams(dout)
	n := dout.Dim(0)
	ck := c.InC * c.K
	ol := c.outL
	inSz := c.InC * c.inL
	outSz := c.OutC * ol
	c.dcols = tensor.Ensure(c.dcols, ck, ol)
	dx := tensor.Ensure(c.dx, n, c.InC, c.inL)
	c.dx = dx
	if !hasShape(c.dyi, c.OutC, ol) {
		c.dyi = tensor.FromSlice(dout.Data[:outSz], c.OutC, ol)
	}
	dyi := c.dyi
	for i := 0; i < n; i++ {
		dyi.Data = dout.Data[i*outSz : (i+1)*outSz]
		tensor.MatMulTransAInto(c.dcols, c.W.Value, dyi)
		dxi := dx.Data[i*inSz : (i+1)*inSz]
		clear(dxi)
		tensor.Col2Im1DStrided(c.dcols.Data, c.InC, c.inL,
			c.K, c.Stride, c.Pad, dxi, ol)
	}
	return dx
}

// backwardParams sets dW and dB (see Conv2D.backwardParams).
func (c *Conv1D) backwardParams(dout *tensor.Tensor) {
	n := dout.Dim(0)
	ck := c.InC * c.K
	ol := c.outL
	rowStride := n * ol
	c.dy = tensor.Ensure(c.dy, c.OutC, rowStride)
	dyd := c.dy.Data
	for i := 0; i < n; i++ {
		for oc := 0; oc < c.OutC; oc++ {
			copy(dyd[oc*rowStride+i*ol:oc*rowStride+(i+1)*ol],
				dout.Data[(i*c.OutC+oc)*ol:(i*c.OutC+oc+1)*ol])
		}
	}
	if !hasShape(c.colsT, ck, rowStride) || len(c.cols) != ck*rowStride {
		c.colsT = tensor.FromSlice(c.cols, ck, rowStride)
	}
	colsT := c.colsT
	colsT.Data = c.cols
	tensor.MatMulTransBInto(c.W.Grad, c.dy, colsT)
	for oc := 0; oc < c.OutC; oc++ {
		s := 0.0
		for _, v := range dyd[oc*rowStride : (oc+1)*rowStride] {
			s += v
		}
		c.B.Grad.Data[oc] = s
	}
}

// Params returns the kernel and bias parameters.
func (c *Conv1D) Params() []*Param { return []*Param{c.W, c.B} }
