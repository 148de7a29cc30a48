package nn

import (
	"middle/internal/tensor"
)

// Conv2D is a 2-D convolution over inputs of shape [N, C, H, W], lowered
// to matrix products with im2col. Weights are stored as a matrix
// [OutC, C*KH*KW] and the whole batch is lowered at once into a single
// column matrix [C*KH*KW, N*OH*OW] (sample i owns columns
// [i*OH*OW, (i+1)*OH*OW)), so the convolution of the entire batch is one
// MatMul per Forward and the backward pass is one MatMulTransB (dW) plus
// one MatMulTransA (dX) regardless of batch size.
//
// The layer owns its scratch buffers (cols, y, out, dy, dcols, dw, dx):
// tensors returned by Forward/Backward are valid only until the layer's
// next Forward/Backward call.
type Conv2D struct {
	InC, OutC            int
	KH, KW               int
	Stride, Pad          int
	W, B                 *Param
	inH, inW, outH, outW int

	cols  []float64      // batched im2col matrix [CKK, N*OHW]
	y     *tensor.Tensor // pre-bias forward product [OutC, N*OHW]
	out   *tensor.Tensor // forward output [N, OutC, OH, OW]
	dy    *tensor.Tensor // gathered upstream gradient [OutC, N*OHW]
	dcols *tensor.Tensor // column-space input gradient [CKK, N*OHW]
	dw    *tensor.Tensor // per-step weight gradient [OutC, CKK]
	dx    *tensor.Tensor // input gradient [N, C, H, W]
}

// NewConv2D constructs a convolution layer with He-normal weights for
// inputs of spatial size inH×inW (fixed per network; the paper's tasks
// each have a fixed input geometry).
func NewConv2D(inC, outC, kh, kw, stride, pad, inH, inW int, rng *tensor.RNG) *Conv2D {
	c := &Conv2D{
		InC: inC, OutC: outC, KH: kh, KW: kw, Stride: stride, Pad: pad,
		inH: inH, inW: inW,
		outH: tensor.ConvOut(inH, kh, stride, pad),
		outW: tensor.ConvOut(inW, kw, stride, pad),
		W:    newParam("conv2d.W", outC, inC*kh*kw),
		B:    newParam("conv2d.B", outC),
	}
	rng.HeNormal(c.W.Value, inC*kh*kw)
	return c
}

// OutShape returns the per-sample output shape [OutC, OH, OW].
func (c *Conv2D) OutShape() []int { return []int{c.OutC, c.outH, c.outW} }

// Forward convolves a batch [N, C, H, W] producing [N, OutC, OH, OW].
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1) != c.InC || x.Dim(2) != c.inH || x.Dim(3) != c.inW {
		panic(shapeError("Conv2D", "[N, C, H, W] matching construction", x.Shape()))
	}
	n := x.Dim(0)
	ckk := c.InC * c.KH * c.KW
	ohw := c.outH * c.outW
	cols := ensureLen(c.cols, ckk*n*ohw)
	c.cols = cols
	inSz := c.InC * c.inH * c.inW
	rowStride := n * ohw
	// Lower every sample into its column block of the shared matrix.
	for i := 0; i < n; i++ {
		tensor.Im2ColStrided(x.Data[i*inSz:(i+1)*inSz], c.InC, c.inH, c.inW,
			c.KH, c.KW, c.Stride, c.Pad, cols[i*ohw:], rowStride)
	}
	colsT := tensor.FromSlice(cols, ckk, rowStride)
	c.y = tensor.Ensure(c.y, c.OutC, rowStride)
	tensor.MatMulInto(c.y, c.W.Value, colsT) // [OutC, N*OHW]
	out := tensor.Ensure(c.out, n, c.OutC, c.outH, c.outW)
	c.out = out
	// Un-batch: copy each sample's column range back to [N, OutC, OH, OW]
	// layout and add the bias.
	yd := c.y.Data
	bd := c.B.Value.Data
	for i := 0; i < n; i++ {
		for oc := 0; oc < c.OutC; oc++ {
			src := yd[oc*rowStride+i*ohw : oc*rowStride+(i+1)*ohw]
			dst := out.Data[(i*c.OutC+oc)*ohw : (i*c.OutC+oc+1)*ohw]
			b := bd[oc]
			for j, v := range src {
				dst[j] = v + b
			}
		}
	}
	return out
}

// Backward consumes dOut [N, OutC, OH, OW], accumulates dW and dB, and
// returns dX [N, C, H, W].
func (c *Conv2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	n := dout.Dim(0)
	ckk := c.InC * c.KH * c.KW
	ohw := c.outH * c.outW
	inSz := c.InC * c.inH * c.inW
	rowStride := n * ohw
	// Gather dOut into the batched column layout [OutC, N*OHW].
	c.dy = tensor.Ensure(c.dy, c.OutC, rowStride)
	dyd := c.dy.Data
	for i := 0; i < n; i++ {
		for oc := 0; oc < c.OutC; oc++ {
			src := dout.Data[(i*c.OutC+oc)*ohw : (i*c.OutC+oc+1)*ohw]
			copy(dyd[oc*rowStride+i*ohw:oc*rowStride+(i+1)*ohw], src)
		}
	}
	colsT := tensor.FromSlice(c.cols, ckk, rowStride)
	// dW += dy · colsᵀ — one product for the whole batch.
	c.dw = tensor.Ensure(c.dw, c.OutC, ckk)
	tensor.MatMulTransBInto(c.dw, c.dy, colsT)
	c.W.Grad.AddInPlace(c.dw)
	// dB += row sums of dy.
	for oc := 0; oc < c.OutC; oc++ {
		s := 0.0
		for _, v := range dyd[oc*rowStride : (oc+1)*rowStride] {
			s += v
		}
		c.B.Grad.Data[oc] += s
	}
	// dcols = Wᵀ · dy, then scatter each sample's block back to image
	// space.
	c.dcols = tensor.Ensure(c.dcols, ckk, rowStride)
	tensor.MatMulTransAInto(c.dcols, c.W.Value, c.dy)
	dx := tensor.Ensure(c.dx, n, c.InC, c.inH, c.inW)
	c.dx = dx
	dcd := c.dcols.Data
	for i := 0; i < n; i++ {
		dxi := dx.Data[i*inSz : (i+1)*inSz]
		clear(dxi)
		tensor.Col2ImStrided(dcd[i*ohw:], c.InC, c.inH, c.inW,
			c.KH, c.KW, c.Stride, c.Pad, dxi, rowStride)
	}
	return dx
}

// Params returns the kernel and bias parameters.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }
